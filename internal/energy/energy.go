// Package energy models the power draw of the evaluated servers so that the
// paper's energy comparison (Figure 10) can be regenerated: the paper reads
// Intel RAPL counters; here energy is power x latency with public
// TDP-derived power figures (a substitution documented in DESIGN.md).
package energy

// PowerModel describes one server's draw under load.
type PowerModel struct {
	Name string
	// IdleWatts is the baseline platform draw (board, DRAM refresh, fans).
	IdleWatts float64
	// ActiveWatts is the additional draw at full load.
	ActiveWatts float64
}

// Watts returns total draw at the given utilization in [0,1].
func (p PowerModel) Watts(utilization float64) float64 {
	if utilization < 0 {
		utilization = 0
	}
	if utilization > 1 {
		utilization = 1
	}
	return p.IdleWatts + p.ActiveWatts*utilization
}

// Energy returns joules for running `seconds` at the given utilization.
func (p PowerModel) Energy(seconds, utilization float64) float64 {
	return p.Watts(utilization) * seconds
}

// CPUServer models the baseline: dual-socket Xeon Gold 5218 (125 W TDP per
// socket) with 512 GB DDR4.
func CPUServer() PowerModel {
	return PowerModel{
		Name:        "CPU server (2x Xeon Gold 5218, 512GB DDR4)",
		IdleWatts:   110,
		ActiveWatts: 2*125 + 40, // sockets at TDP + DRAM active power
	}
}

// UPMEMServer models the PIM host (Xeon Silver 4216) plus the PIM DIMMs at
// the paper's ~13.92 W per DIMM. Fractional DIMM counts let scaled-down
// simulations price the slice of the server they model.
func UPMEMServer(dimms float64) PowerModel {
	return PowerModel{
		Name:        "UPMEM server (Xeon Silver 4216 + PIM DIMMs)",
		IdleWatts:   90 + 0.25*13.92*dimms, // DIMMs idle at ~25%
		ActiveWatts: 100 + 0.75*13.92*dimms,
	}
}

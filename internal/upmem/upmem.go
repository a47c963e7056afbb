// Package upmem simulates a UPMEM-style DRAM-PIM system (paper §2.2) well
// enough to reproduce DRIM-ANN's performance phenomena without the hardware.
//
// The simulator is functional-plus-analytic: kernels are ordinary Go code
// that computes real answers while charging simulated costs to the DPU they
// run on. The cost model captures exactly the properties the paper's design
// reacts to:
//
//   - each DPU is an in-order multithreaded pipeline that reaches ~1
//     instruction/cycle only with >= PipelineDepth tasklets (PrIM
//     characterization), at 350-450 MHz;
//   - there is no hardware multiplier: a 32-bit multiply costs ~32
//     add-equivalent cycles, a division ~64;
//   - each DPU owns 64 MB of MRAM (DRAM bank) and a 64 KB WRAM scratchpad;
//     WRAM accesses are pipeline-absorbed, MRAM is reachable only via DMA
//     with a fixed setup latency plus a per-byte cost;
//   - DPUs cannot talk to each other, and host<->DPU transfers share a
//     bandwidth of roughly 0.75 % of the aggregate internal bandwidth.
//
// Computation and DMA overlap within a phase (the paper's Equation 12), so a
// phase's wall time is max(compute, IO).
package upmem

import (
	"fmt"
)

// Phase identifies the ANNS processing phase a cost is charged to,
// mirroring the paper's CL/RC/LC/DC/TS decomposition (Figure 1).
type Phase int

// Phases in paper order. PhaseOther absorbs scheduling/merge overheads.
const (
	PhaseCL Phase = iota
	PhaseRC
	PhaseLC
	PhaseDC
	PhaseTS
	PhaseOther
	NumPhases
)

// String returns the paper's abbreviation for the phase.
func (p Phase) String() string {
	switch p {
	case PhaseCL:
		return "CL"
	case PhaseRC:
		return "RC"
	case PhaseLC:
		return "LC"
	case PhaseDC:
		return "DC"
	case PhaseTS:
		return "TS"
	case PhaseOther:
		return "Others"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Op is an instruction class with a distinct cycle cost.
type Op int

// Instruction classes. OpMul/OpDiv are the expensive software-emulated ones.
const (
	OpAdd   Op = iota // add/sub/abs/shift: 1 cycle
	OpCmp             // compare/branch: 1 cycle
	OpLoad            // WRAM load: 1 cycle (pipeline-absorbed)
	OpStore           // WRAM store: 1 cycle
	OpMul             // 32x32 multiply: no hardware unit, ~32 cycles
	OpDiv             // division: ~64 cycles
)

// CostModel holds the per-class cycle costs and DMA/transfer parameters.
type CostModel struct {
	ClockHz          float64 // DPU clock (350 MHz on the paper's DIMMs)
	PipelineDepth    int     // tasklets needed for 1 instr/cycle (11 per PrIM)
	AddCycles        uint64
	CmpCycles        uint64
	LoadCycles       uint64
	StoreCycles      uint64
	MulCycles        uint64 // the paper's "32x more expensive than addition"
	DivCycles        uint64
	DMALatencyCycles uint64  // fixed setup per MRAM<->WRAM DMA
	DMACyclesPerByte float64 // streaming cost; ~0.5 cy/B = ~700 MB/s at 350 MHz
	// WRAMSpeedup is the bandwidth advantage of WRAM-resident data over
	// MRAM streaming; the paper measures ~4.72x peak.
	WRAMSpeedup float64
}

// DefaultCostModel returns the UPMEM PIM-DIMM parameters used throughout the
// paper's experiments.
func DefaultCostModel() CostModel {
	return CostModel{
		ClockHz:          350e6,
		PipelineDepth:    11,
		AddCycles:        1,
		CmpCycles:        1,
		LoadCycles:       1,
		StoreCycles:      1,
		MulCycles:        32,
		DivCycles:        64,
		DMALatencyCycles: 77,
		DMACyclesPerByte: 0.5,
		WRAMSpeedup:      4.72,
	}
}

// Cycles returns the cost of n instructions of class op.
func (c *CostModel) Cycles(op Op, n uint64) uint64 {
	switch op {
	case OpAdd:
		return c.AddCycles * n
	case OpCmp:
		return c.CmpCycles * n
	case OpLoad:
		return c.LoadCycles * n
	case OpStore:
		return c.StoreCycles * n
	case OpMul:
		return c.MulCycles * n
	case OpDiv:
		return c.DivCycles * n
	}
	panic(fmt.Sprintf("upmem: unknown op %d", int(op)))
}

// Config describes a PIM system instance.
type Config struct {
	NumDPUs   int
	Tasklets  int // per-DPU software threads; default 16
	WRAMBytes int // default 64 KB
	MRAMBytes int // default 64 MB
	Cost      CostModel
	// HostXferFraction is host<->PIM bandwidth as a fraction of aggregate
	// internal bandwidth (the paper's 0.75 %).
	HostXferFraction float64
	// LaunchLatencySec is the fixed host-side cost of one synchronous DPU
	// launch (rank broadcast + barrier).
	LaunchLatencySec float64
}

// DefaultConfig returns a paper-like system scaled to numDPUs.
func DefaultConfig(numDPUs int) Config {
	return Config{
		NumDPUs:          numDPUs,
		Tasklets:         16,
		WRAMBytes:        64 * 1024,
		MRAMBytes:        64 * 1024 * 1024,
		Cost:             DefaultCostModel(),
		HostXferFraction: 0.0075,
		LaunchLatencySec: 20e-6,
	}
}

func (c *Config) defaults() {
	if c.Tasklets <= 0 {
		c.Tasklets = 16
	}
	if c.WRAMBytes <= 0 {
		c.WRAMBytes = 64 * 1024
	}
	if c.MRAMBytes <= 0 {
		c.MRAMBytes = 64 * 1024 * 1024
	}
	if c.Cost.ClockHz == 0 {
		c.Cost = DefaultCostModel()
	}
	if c.HostXferFraction <= 0 {
		c.HostXferFraction = 0.0075
	}
	if c.LaunchLatencySec <= 0 {
		c.LaunchLatencySec = 20e-6
	}
}

// InternalBWBytesPerSec returns the per-DPU MRAM streaming bandwidth implied
// by the DMA cost model.
func (c *Config) InternalBWBytesPerSec() float64 {
	return c.Cost.ClockHz / c.Cost.DMACyclesPerByte
}

// HostBWBytesPerSec returns the aggregate host<->PIM bandwidth.
func (c *Config) HostBWBytesPerSec() float64 {
	return c.HostXferFraction * float64(c.NumDPUs) * c.InternalBWBytesPerSec()
}

// PhaseStats accumulates the cost of one phase on one DPU.
type PhaseStats struct {
	ComputeCycles uint64 // instruction cycles (pre pipeline scaling)
	DMACount      uint64 // MRAM<->WRAM transfers issued
	DMABytes      uint64 // bytes moved by those transfers
}

// IOCycles returns the DMA-side cycles of the phase.
func (s PhaseStats) IOCycles(cost *CostModel) uint64 {
	return s.DMACount*cost.DMALatencyCycles + uint64(float64(s.DMABytes)*cost.DMACyclesPerByte)
}

// DPU models a single data processing unit: cost counters plus WRAM/MRAM
// capacity accounting. It is not safe for concurrent use; the engine runs
// each DPU in its own goroutine.
type DPU struct {
	ID  int
	cfg *Config

	wramUsed int
	mramUsed int

	phases [NumPhases]PhaseStats
}

// Charge accounts n instructions of class op against phase p.
func (d *DPU) Charge(p Phase, op Op, n uint64) {
	d.phases[p].ComputeCycles += d.cfg.Cost.Cycles(op, n)
}

// ChargeCycles accounts raw cycles against phase p.
func (d *DPU) ChargeCycles(p Phase, cycles uint64) {
	d.phases[p].ComputeCycles += cycles
}

// DMA accounts one MRAM<->WRAM transfer of the given size against phase p.
func (d *DPU) DMA(p Phase, bytes uint64) {
	d.phases[p].DMACount++
	d.phases[p].DMABytes += bytes
}

// dmaOverlap is the number of fine-grained DMA setups the per-DPU engine can
// overlap (double-buffering, per the PrIM small-transfer characterization).
const dmaOverlap = 2

// RandomAccess accounts n fine-grained MRAM accesses issued without WRAM
// buffering: each is a minimum-granularity (8-byte) DMA on the single
// per-DPU DMA engine, which can double-buffer (overlap two setups) but no
// more — per the PrIM small-transfer characterization. This is what makes
// unbuffered SQT/LUT/metadata access so expensive on real UPMEM hardware and
// what the paper's buffer optimization removes (Figure 12b).
func (d *DPU) RandomAccess(p Phase, n uint64) {
	d.phases[p].DMACount += (n + dmaOverlap - 1) / dmaOverlap
	d.phases[p].DMABytes += 8 * n
}

// Tally is a register-resident batch of cost charges. Hot simulation kernels
// accumulate instruction, DMA and random-access costs into a private Tally
// and flush it to a DPU's phase counters once per slice or launch
// (ApplyTally) instead of charging the shared counters per operation. Every
// accumulation uses exactly the arithmetic of the corresponding DPU method —
// including the per-call coalescing rule of RandomAccess — and all counters
// are uint64 sums, so a flushed Tally yields bit-identical phase statistics
// to charging per op.
type Tally struct {
	compute  [NumPhases]uint64
	dmaCount [NumPhases]uint64
	dmaBytes [NumPhases]uint64
}

// Charge accounts n instructions of class op against phase p (the Tally twin
// of DPU.Charge; cost supplies the per-class cycle weights).
func (t *Tally) Charge(cost *CostModel, p Phase, op Op, n uint64) {
	t.compute[p] += cost.Cycles(op, n)
}

// ChargeCycles accounts raw cycles against phase p.
func (t *Tally) ChargeCycles(p Phase, cycles uint64) {
	t.compute[p] += cycles
}

// DMA accounts one MRAM<->WRAM transfer of the given size against phase p.
func (t *Tally) DMA(p Phase, bytes uint64) {
	t.dmaCount[p]++
	t.dmaBytes[p] += bytes
}

// DMAs accounts n transfers moving bytes in total against phase p — n calls
// of DMA whose sizes sum to bytes, for kernels that issue a counted number
// of variable-size transfers.
func (t *Tally) DMAs(p Phase, n, bytes uint64) {
	t.dmaCount[p] += n
	t.dmaBytes[p] += bytes
}

// RandomAccess accounts n fine-grained MRAM accesses against phase p with
// the same per-call coalescing as DPU.RandomAccess (callers must keep the
// call granularity of the per-op path for bit-identical DMA counts).
func (t *Tally) RandomAccess(p Phase, n uint64) {
	t.dmaCount[p] += (n + dmaOverlap - 1) / dmaOverlap
	t.dmaBytes[p] += 8 * n
}

// ComputeCycles is the instruction cycles the tally holds, over all phases.
func (t *Tally) ComputeCycles() (n uint64) {
	for _, c := range t.compute {
		n += c
	}
	return n
}

// Reset zeroes the tally for reuse.
func (t *Tally) Reset() { *t = Tally{} }

// ApplyTally adds a tally's accumulated costs to the DPU's phase counters.
func (d *DPU) ApplyTally(t *Tally) {
	for p := Phase(0); p < NumPhases; p++ {
		d.phases[p].ComputeCycles += t.compute[p]
		d.phases[p].DMACount += t.dmaCount[p]
		d.phases[p].DMABytes += t.dmaBytes[p]
	}
}

// AllocWRAM reserves scratchpad bytes; it fails when the 64 KB WRAM would be
// exceeded — the constraint behind the paper's tiered SQT and buffer
// optimization.
func (d *DPU) AllocWRAM(bytes int) error {
	if bytes < 0 {
		return fmt.Errorf("upmem: negative WRAM allocation")
	}
	if d.wramUsed+bytes > d.cfg.WRAMBytes {
		return fmt.Errorf("upmem: WRAM overflow on DPU %d: %d + %d > %d",
			d.ID, d.wramUsed, bytes, d.cfg.WRAMBytes)
	}
	d.wramUsed += bytes
	return nil
}

// AllocMRAM reserves MRAM bytes; it fails beyond the 64 MB bank.
func (d *DPU) AllocMRAM(bytes int) error {
	if bytes < 0 {
		return fmt.Errorf("upmem: negative MRAM allocation")
	}
	if d.mramUsed+bytes > d.cfg.MRAMBytes {
		return fmt.Errorf("upmem: MRAM overflow on DPU %d: %d + %d > %d",
			d.ID, d.mramUsed, bytes, d.cfg.MRAMBytes)
	}
	d.mramUsed += bytes
	return nil
}

// WRAMFree reports remaining scratchpad bytes.
func (d *DPU) WRAMFree() int { return d.cfg.WRAMBytes - d.wramUsed }

// ResetCounters zeroes the phase statistics (between measurements).
func (d *DPU) ResetCounters() { d.phases = [NumPhases]PhaseStats{} }

// Stats returns the accumulated statistics for phase p.
func (d *DPU) Stats(p Phase) PhaseStats { return d.phases[p] }

// ComputeCycles is the instruction cycles charged so far, over all phases
// (pre pipeline scaling).
func (d *DPU) ComputeCycles() (n uint64) {
	for _, s := range d.phases {
		n += s.ComputeCycles
	}
	return n
}

// PhaseCycles returns the wall cycles of phase p: compute scaled by pipeline
// occupancy, overlapped with DMA (Equation 12's max form).
func (d *DPU) PhaseCycles(p Phase) uint64 {
	s := d.phases[p]
	compute := d.scalePipeline(s.ComputeCycles)
	io := s.IOCycles(&d.cfg.Cost)
	if io > compute {
		return io
	}
	return compute
}

// TotalCycles returns the summed wall cycles across phases.
func (d *DPU) TotalCycles() uint64 {
	var total uint64
	for p := Phase(0); p < NumPhases; p++ {
		total += d.PhaseCycles(p)
	}
	return total
}

// scalePipeline converts instruction cycles to wall cycles given the tasklet
// count: throughput is min(T, depth)/depth instructions per cycle.
func (d *DPU) scalePipeline(cycles uint64) uint64 {
	t := d.cfg.Tasklets
	depth := d.cfg.Cost.PipelineDepth
	if t >= depth {
		return cycles
	}
	return cycles * uint64(depth) / uint64(t)
}

// Seconds converts cycles to seconds at the configured clock.
func (c *Config) Seconds(cycles uint64) float64 {
	return float64(cycles) / c.Cost.ClockHz
}

// System is a collection of DPUs plus host-transfer accounting.
type System struct {
	Cfg  Config
	DPUs []*DPU

	hostToDev uint64
	devToHost uint64
	launches  int
}

// NewSystem builds a system with cfg (defaults applied).
func NewSystem(cfg Config) (*System, error) {
	cfg.defaults()
	if cfg.NumDPUs <= 0 {
		return nil, fmt.Errorf("upmem: NumDPUs must be positive, got %d", cfg.NumDPUs)
	}
	s := &System{Cfg: cfg, DPUs: make([]*DPU, cfg.NumDPUs)}
	for i := range s.DPUs {
		s.DPUs[i] = &DPU{ID: i, cfg: &s.Cfg}
	}
	return s, nil
}

// TransferToDPUs accounts host->PIM bytes (queries, LUT seeds, metadata).
func (s *System) TransferToDPUs(bytes uint64) { s.hostToDev += bytes }

// TransferFromDPUs accounts PIM->host bytes (top-k results).
func (s *System) TransferFromDPUs(bytes uint64) { s.devToHost += bytes }

// Launch accounts one synchronous launch of all DPUs.
func (s *System) Launch() { s.launches++ }

// TransferSeconds returns the time spent on host<->PIM transfers plus launch
// overheads so far.
func (s *System) TransferSeconds() float64 {
	bw := s.Cfg.HostBWBytesPerSec()
	return float64(s.hostToDev+s.devToHost)/bw + float64(s.launches)*s.Cfg.LaunchLatencySec
}

// MaxDPUCycles returns the slowest DPU's total cycles — the batch critical
// path under synchronous launches, which is exactly what load balancing
// minimizes.
func (s *System) MaxDPUCycles() uint64 {
	var max uint64
	for _, d := range s.DPUs {
		if c := d.TotalCycles(); c > max {
			max = c
		}
	}
	return max
}

// MeanDPUCycles returns the average per-DPU total cycles.
func (s *System) MeanDPUCycles() float64 {
	var sum uint64
	for _, d := range s.DPUs {
		sum += d.TotalCycles()
	}
	return float64(sum) / float64(len(s.DPUs))
}

// Imbalance returns max/mean DPU cycles (1.0 = perfectly balanced); the
// paper's load-balance optimizations drive this toward 1.
func (s *System) Imbalance() float64 {
	mean := s.MeanDPUCycles()
	if mean == 0 {
		return 1
	}
	return float64(s.MaxDPUCycles()) / mean
}

// PhaseCyclesMax returns the slowest DPU's cycles for one phase, the
// quantity behind the paper's Figure 9 breakdown.
func (s *System) PhaseCyclesMax(p Phase) uint64 {
	var max uint64
	for _, d := range s.DPUs {
		if c := d.PhaseCycles(p); c > max {
			max = c
		}
	}
	return max
}

// ResetCounters zeroes all DPU counters and transfer accounting.
func (s *System) ResetCounters() {
	for _, d := range s.DPUs {
		d.ResetCounters()
	}
	s.hostToDev, s.devToHost, s.launches = 0, 0, 0
}

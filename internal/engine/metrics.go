package engine

import (
	"math/bits"

	"drimann/internal/upmem"
)

// Metrics reports the simulated cost of a SearchBatch call. Every backend
// fills the universal fields (Queries, SimSeconds, QPS, the host/PIM/xfer
// split, launches, batches, imbalance, PointsScanned); the remaining
// counters are backend-specific and stay zero where they don't apply (the
// LUT group is IVF-PQ's, for example). Keeping one metrics
// type across backends is what makes head-to-head accounting possible: the
// serving and cluster layers merge them without knowing which engine ran.
type Metrics struct {
	Queries     int
	SimSeconds  float64 // end-to-end: sum over batches of max(host, PIM+xfer)
	QPS         float64
	HostSeconds float64 // host-side work (overlapped with PIM)
	PIMSeconds  float64 // critical-path DPU time summed over launches
	XferSeconds float64 // host<->PIM transfers + launch overhead

	PhaseSeconds [upmem.NumPhases]float64 // per-phase critical path

	// Aggregate per-phase counters summed over every DPU and launch: raw
	// instruction cycles (pre pipeline scaling), DMA transfers issued
	// (including coalesced random accesses) and bytes moved. They make the
	// accounting auditable at full precision — the batched cost-tally path
	// and the per-op reference accountant must agree on every element.
	PhaseComputeCycles [upmem.NumPhases]uint64
	PhaseDMACount      [upmem.NumPhases]uint64
	PhaseDMABytes      [upmem.NumPhases]uint64

	Launches int
	Batches  int

	ImbalanceSum float64 // summed per-launch max/mean (divide by Launches)
	Postponed    int     // tasks deferred by overheat postponement
	// PricedCycles sums the scheduler's price of every launched task; over the
	// simulated compute cycles it says how good the scheduler's model was.
	PricedCycles float64

	LockAcquired uint64
	LockSkipped  uint64
	LUTBuilds    uint64
	LUTReuses    uint64
	// LUTEntries counts the LUT entries the LC kernels built; against
	// LUTBuilds x M x CB it is the LUT occupancy (1 = dense).
	LUTEntries uint64
	// PointsScanned counts the points entering a scan's first stage;
	// PointsPruned those of them a staged scan dropped before its last stage
	// finished (their partial distance already exceeded the query's bound),
	// and CodesGathered the code elements DC actually read — PointsScanned x
	// M when nothing is pruned.
	PointsScanned uint64
	PointsPruned  uint64
	CodesGathered uint64

	// SQT16Hot/SQT16Cold were the lookups of a tiered 16-bit squaring table,
	// split by tier. No backend has that mode, so both stay zero; they remain
	// for the benchmark's upmem.sqt16_hit_rate, which reads 1.
	SQT16Hot  uint64
	SQT16Cold uint64
}

// SQT16HitRate returns the fraction of this call's tiered-table lookups
// served by the WRAM-resident hot window (1 when there were none).
func (m *Metrics) SQT16HitRate() float64 {
	if m.SQT16Hot+m.SQT16Cold == 0 {
		return 1
	}
	return float64(m.SQT16Hot) / float64(m.SQT16Hot+m.SQT16Cold)
}

// LUTOccupancy returns the fraction of the dense M x CB LUT the LC kernels
// actually built per group, for an index with m subspaces of cb entries
// (1 when nothing was built). A staged scan builds, per stage, the entries
// its surviving points read, so the ratio is a property of the data and of
// the bounds the queries carried — how many points were still alive when each
// subspace came up — not of the code distribution alone; with nothing pruned
// it is the distinct-code fraction of the scanned slices.
func (m *Metrics) LUTOccupancy(subspaces, cb int) float64 {
	if m.LUTBuilds == 0 {
		return 1
	}
	return float64(m.LUTEntries) / float64(m.LUTBuilds*uint64(subspaces*cb))
}

// PruneRate returns the fraction of scanned points a staged scan dropped
// before their distance was complete (0 when nothing was scanned).
func (m *Metrics) PruneRate() float64 {
	if m.PointsScanned == 0 {
		return 0
	}
	return float64(m.PointsPruned) / float64(m.PointsScanned)
}

// CodesPerPoint returns the mean number of code elements DC gathered per
// scanned point: the subspace count M when nothing is pruned (0 when nothing
// was scanned).
func (m *Metrics) CodesPerPoint() float64 {
	if m.PointsScanned == 0 {
		return 0
	}
	return float64(m.CodesGathered) / float64(m.PointsScanned)
}

// PriceRatio returns the scheduler's summed task price over the instruction
// cycles the simulator charged (every phase, every DPU): 1 is a scheduler
// whose model is right on the whole, whatever it gets wrong task by task (0
// when nothing ran, or the backend prices nothing).
func (m *Metrics) PriceRatio() float64 {
	var cycles float64
	for _, c := range m.PhaseComputeCycles {
		cycles += float64(c)
	}
	return m.PricedCycles / max(cycles, 1)
}

// AvgImbalance returns the mean per-launch max/mean DPU load ratio.
func (m *Metrics) AvgImbalance() float64 {
	if m.Launches == 0 {
		return 1
	}
	return m.ImbalanceSum / float64(m.Launches)
}

// PhaseShare returns each phase's fraction of total PIM time (Figure 9).
func (m *Metrics) PhaseShare() [upmem.NumPhases]float64 {
	var out [upmem.NumPhases]float64
	var total float64
	for _, s := range m.PhaseSeconds {
		total += s
	}
	if total == 0 {
		return out
	}
	for p, s := range m.PhaseSeconds {
		out[p] = s / total
	}
	return out
}

// AddLaunch folds one finished launch of sys into m. Every backend calls it,
// so their simulated seconds come from one recipe: PIM time is the slowest
// DPU's cycles, a phase's critical path its slowest DPU, compute cycles and
// DMA traffic roll up over all DPUs. It returns the launch's PIM and transfer
// seconds for the caller's host/PIM overlap.
func (m *Metrics) AddLaunch(sys *upmem.System) (pimSec, xferSec float64) {
	pimSec = sys.Cfg.Seconds(sys.MaxDPUCycles())
	xferSec = sys.TransferSeconds()
	for p := upmem.Phase(0); p < upmem.NumPhases; p++ {
		m.PhaseSeconds[p] += sys.Cfg.Seconds(sys.PhaseCyclesMax(p))
	}
	for _, d := range sys.DPUs {
		for p := upmem.Phase(0); p < upmem.NumPhases; p++ {
			st := d.Stats(p)
			m.PhaseComputeCycles[p] += st.ComputeCycles
			m.PhaseDMACount[p] += st.DMACount
			m.PhaseDMABytes[p] += st.DMABytes
		}
	}
	m.Launches++
	m.XferSeconds += xferSec
	m.PIMSeconds += pimSec
	m.ImbalanceSum += sys.Imbalance()
	return pimSec, xferSec
}

// HostMergeSeconds models the host (upmem.PlatformHost) merging items
// partial top-k entries returned by the DPUs into k-sized results.
func HostMergeSeconds(items, k int) float64 {
	host := upmem.PlatformHost()
	ops := float64(items) * float64(Log2Ceil(k)+1)
	return ops / (float64(host.Threads) * host.FreqGHz * 1e9)
}

// Log2Ceil is ceil(log2 x), at least 1: a heap's or sorting network's depth.
func Log2Ceil(x int) int {
	if x <= 1 {
		return 1
	}
	return bits.Len(uint(x - 1))
}

// Merge accumulates o into m: query counts, durations and every counter
// sum; QPS is recomputed from the merged totals. The serving layer uses it
// to aggregate per-launch SearchBatch metrics into a lifetime view whose
// derived quantities (AvgImbalance, SQT16HitRate, PhaseShare) keep working.
func (m *Metrics) Merge(o *Metrics) {
	m.Queries += o.Queries
	m.SimSeconds += o.SimSeconds
	m.HostSeconds += o.HostSeconds
	m.PIMSeconds += o.PIMSeconds
	m.XferSeconds += o.XferSeconds
	for p := range m.PhaseSeconds {
		m.PhaseSeconds[p] += o.PhaseSeconds[p]
	}
	m.addCounters(o)
}

// addCounters sums into m everything of o that is a count, not a duration or
// a query total, and recomputes QPS: the part Merge and MergeParallel share.
func (m *Metrics) addCounters(o *Metrics) {
	for p := range m.PhaseComputeCycles {
		m.PhaseComputeCycles[p] += o.PhaseComputeCycles[p]
		m.PhaseDMACount[p] += o.PhaseDMACount[p]
		m.PhaseDMABytes[p] += o.PhaseDMABytes[p]
	}
	m.Launches += o.Launches
	m.Batches += o.Batches
	m.ImbalanceSum += o.ImbalanceSum
	m.Postponed += o.Postponed
	m.PricedCycles += o.PricedCycles
	m.LockAcquired += o.LockAcquired
	m.LockSkipped += o.LockSkipped
	m.LUTBuilds += o.LUTBuilds
	m.LUTReuses += o.LUTReuses
	m.LUTEntries += o.LUTEntries
	m.PointsScanned += o.PointsScanned
	m.PointsPruned += o.PointsPruned
	m.CodesGathered += o.CodesGathered
	m.SQT16Hot += o.SQT16Hot
	m.SQT16Cold += o.SQT16Cold
	if m.SimSeconds > 0 {
		m.QPS = float64(m.Queries) / m.SimSeconds
	}
}

// MergeParallel accumulates o into m as a concurrently executing peer — the
// cross-shard view of the cluster layer, where S engines process the same
// query batch at the same time. Counters (launches, cycles, DMA, lock and
// scan totals) sum across shards, but wall-like durations take the
// elementwise max: the fleet finishes when its slowest shard does, so
// SimSeconds, HostSeconds, PIMSeconds, XferSeconds and the per-phase
// critical paths are max-over-shards, not sums. Queries also takes the max
// (every shard sees the full batch; the fleet still answered it once). QPS
// is recomputed from the merged totals. Compare Merge, the sequential
// accumulator the serving layer uses across launches of one engine.
func (m *Metrics) MergeParallel(o *Metrics) {
	m.Queries = max(m.Queries, o.Queries)
	m.SimSeconds = max(m.SimSeconds, o.SimSeconds)
	m.HostSeconds = max(m.HostSeconds, o.HostSeconds)
	m.PIMSeconds = max(m.PIMSeconds, o.PIMSeconds)
	m.XferSeconds = max(m.XferSeconds, o.XferSeconds)
	for p := range m.PhaseSeconds {
		m.PhaseSeconds[p] = max(m.PhaseSeconds[p], o.PhaseSeconds[p])
	}
	m.addCounters(o)
}

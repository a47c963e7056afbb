// Package perfmodel implements DRIM-ANN's analytic performance model
// (paper §4, Equations 1-13): closed-form per-phase compute and memory
// costs of cluster-based ANNS as a function of the index parameters
// (K, P, C, M, CB), the dataset shape (N, Q, D, bit widths) and the hardware
// (#PE, frequency, bandwidth). The model drives the design space
// exploration, the runtime scheduler's heat estimates, and the roofline and
// scalability figures.
package perfmodel

import (
	"fmt"
	"math"
	"sort"

	"drimann/internal/upmem"
)

// The element widths of the paper's Table 2, in bytes (the ratio is what
// matters; bandwidths are in bytes/s throughout this repository). A point's
// sub-code width follows CB (Params.bytesP).
const (
	bytesC  = 1 // centroid element (uint8)
	bytesQ  = 1 // query element
	bytesCB = 2 // codebook element (int16)
	bytesL  = 4 // LUT entry (uint32)
	bytesA  = 4 // address
)

// Params carries the notation of the paper's Table 2.
type Params struct {
	N int64 // total vectors
	Q int   // queries per batch
	D int   // dimension

	K  int // neighbors per query
	P  int // located clusters per query (nprobe)
	C  int // average points per cluster (N / nlist)
	M  int // subvectors per vector
	CB int // codebook entries per subspace

	// Survival is the per-stage survival profile of a staged, pruning scan
	// (the engine's bound-forwarded one): with S+1 entries the scan sums its
	// M subspaces in S equal stages, Survival[s] is the fraction of the P x C
	// scanned points still alive when stage s begins, and Survival[S] the
	// fraction that reaches TS. Equations 6-11 then count, stage by stage, the
	// points still alive in place of all of them. nil is one stage with every
	// point alive — the paper's equations as written.
	Survival []float64
}

// bytesP is the width of one encoded point sub-code: two bytes past 256
// codebook entries.
func (p *Params) bytesP() float64 {
	if p.CB > 256 {
		return 2
	}
	return 1
}

func (p *Params) defaults() error {
	if p.N <= 0 || p.Q <= 0 || p.D <= 0 || p.K <= 0 || p.P <= 0 || p.C <= 0 || p.M <= 0 || p.CB <= 0 {
		return fmt.Errorf("perfmodel: all of N,Q,D,K,P,C,M,CB must be positive: %+v", *p)
	}
	if p.D%p.M != 0 {
		return fmt.Errorf("perfmodel: M=%d must divide D=%d", p.M, p.D)
	}
	if p.Survival == nil {
		p.Survival = []float64{1, 1}
	}
	if len(p.Survival) < 2 {
		return fmt.Errorf("perfmodel: a survival profile needs a stage and the TS share, got %v", p.Survival)
	}
	return nil
}

// The staged scan the engine runs (core's package comment) and the model
// shares with it: the subspaces summed between two prune passes, the live
// points (in multiples of K) a query's first-wave probes must hold, and the
// survival curve of a scan that carries a bound.
const (
	StageWidth = 2
	WaveFill   = 16
)

// BoundedSurvival models a scan that carries a forwarded bound: the fraction
// of its points still alive once a fraction f of the subspaces has been
// summed, in descending residual magnitude. The curve is the one the benchmark
// fixture's second wave follows (0.58, 0.09 and 0.013 after a quarter, a half
// and three quarters of the subspaces); other corpora decay at other rates,
// which the regime sweep (internal/bench) records. It is the model's prior —
// what the DSE explores with before anything is measured (EngineSurvival) — not
// the engine's price: an engine deployed with a profile measures what a bound
// saves (core's share table) and reads this curve only when it has none.
func BoundedSurvival(f float64) float64 {
	return math.Min(1, math.Exp(1.6-8*f))
}

// BoundedShare is the share of a scan's no-prune work a bounded scan over m
// subspaces is expected to do under BoundedSurvival: the curve's mean over
// the stages.
func BoundedShare(m int) float64 {
	stages := (m + StageWidth - 1) / StageWidth
	var sum float64
	for s := 0; s < stages; s++ {
		sum += BoundedSurvival(float64(s) / float64(stages))
	}
	return sum / float64(stages)
}

// FitShares turns a measurement into a share table: cycles[b] and price[b] sum,
// over the bounded scans whose ρ fell in bin b (bins in rising ρ), what the
// scans cost and what they would have cost unpruned; share[b] is their ratio,
// with bins pooled with their neighbours while one is empty or reads more than
// the bin before it (ρ up, survivors down: a rise is noise), so the table is
// complete, non-increasing and prices the measured scans at what they cost on
// the whole. Nothing measured leaves prior in every bin.
func FitShares(cycles, price []float64, prior float64) []float64 {
	type pool struct {
		cycles, price float64
		lo            int // the pool's first bin
	}
	share := make([]float64, len(cycles))
	for b := range share {
		share[b] = prior
	}
	var pools []pool
	for b := range cycles {
		p := pool{cycles[b], price[b], b}
		for n := len(pools); n > 0; n-- {
			prev := pools[n-1]
			if p.price > 0 && prev.price > 0 && p.cycles*prev.price <= prev.cycles*p.price {
				break
			}
			p, pools = pool{p.cycles + prev.cycles, p.price + prev.price, prev.lo}, pools[:n-1]
		}
		pools = append(pools, p)
		for i := p.lo; i <= b && p.price > 0; i++ {
			share[i] = p.cycles / p.price
		}
	}
	return share
}

// engineProfile is a survival profile of the engine's shape at these
// parameters: stages of StageWidth subspaces; the probes of a query's first
// wave — the fewest whose lists of C points hold WaveFill x K — scanned
// whole, the others surviving to stage s of S with probability bounded(s, S).
func engineProfile(p Params, bounded func(s, stages int) float64) []float64 {
	stages := (p.M + StageWidth - 1) / StageWidth
	lead := math.Min(1, math.Ceil(float64(WaveFill*p.K)/float64(p.C))/float64(p.P))
	out := make([]float64, stages+1)
	for s := range out {
		out[s] = lead + (1-lead)*bounded(s, stages)
	}
	return out
}

// EngineSurvival is the survival profile the engine is modelled with before
// anything is measured: bounded scans follow BoundedSurvival.
func EngineSurvival(p Params) []float64 {
	return engineProfile(p, func(s, stages int) float64 { return BoundedSurvival(float64(s) / float64(stages)) })
}

// FitSurvival is the survival profile of the engine's shape that matches a
// measured run: bounded scans lose a fixed share of their points per stage,
// chosen so that the profile's mean over the stages — the share of a point's
// codes DC gathers — is gathered (engine.Metrics: CodesGathered over
// PointsScanned x M). How hard bounds prune is a property of the corpus; with
// it measured, what is left to check are the cost equations.
func FitSurvival(p Params, gathered float64) []float64 {
	mean := func(keep float64) float64 {
		prof := engineProfile(p, func(s, _ int) float64 { return math.Pow(keep, float64(s)) })
		var sum float64
		for _, a := range prof[:len(prof)-1] {
			sum += a
		}
		return sum / float64(len(prof)-1)
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 50; i++ {
		if mid := (lo + hi) / 2; mean(mid) < gathered {
			lo = mid
		} else {
			hi = mid
		}
	}
	return engineProfile(p, func(s, _ int) float64 { return math.Pow(hi, float64(s)) })
}

// NList returns the cluster count N/C implied by the parameters.
func (p Params) NList() float64 { return float64(p.N) / float64(p.C) }

// Dist is Equation 2: the op count of an X-dimensional L2 distance
// (subtract, square, accumulate per element), with the squaring op costing
// mulCost add-equivalents. mulCost=1 reproduces the paper's dist(X)=3X-1;
// mulCost=32 models UPMEM's software multiply; mulCost=2 models the SQT
// replacement (abs + load).
func Dist(x int, mulCost float64) float64 {
	return float64(x)*(2+mulCost) - 1
}

func log2(x int) float64 {
	if x <= 1 {
		return 1
	}
	return math.Log2(float64(x))
}

// LUTOccupancy is the expected number of distinct codebook entries, out of
// cb, that n points' codes reference in one subspace when codes are uniform:
// cb·(1 − (1 − 1/cb)^n). The reference-driven LC kernel builds only those
// entries, so it — not cb — is the per-subspace LUT size of Equations 6-7.
// It approaches n for n ≪ cb and saturates at the dense cb for n ≫ cb.
func LUTOccupancy(cb, n int) float64 {
	return -float64(cb) * math.Expm1(float64(n)*math.Log1p(-1/float64(cb)))
}

// PhaseCost is one phase's total compute operations and memory traffic.
type PhaseCost struct {
	Compute float64 // operations
	IO      float64 // bytes
}

// C2IO is Equation 13: compute-to-IO ratio of the phase.
func (pc PhaseCost) C2IO() float64 {
	if pc.IO == 0 {
		return math.Inf(1)
	}
	return pc.Compute / pc.IO
}

// Costs evaluates Equations 1-11 for every phase. mulCost parameterizes the
// squaring operation as in Dist.
func Costs(p Params, mulCost float64) ([upmem.NumPhases]PhaseCost, error) {
	var out [upmem.NumPhases]PhaseCost
	if err := p.defaults(); err != nil {
		return out, err
	}
	q := float64(p.Q)
	nlist := p.NList()
	d := float64(p.D)
	pp := float64(p.P)
	c := float64(p.C)
	m := float64(p.M)

	// Equation 1 & 3: cluster locating.
	out[upmem.PhaseCL] = PhaseCost{
		Compute: q * nlist * (Dist(p.D, mulCost) + log2(p.P) - 1),
		IO:      q * nlist * ((bytesC+bytesQ)*d + (bytesL+bytesA)*(log2(p.P)+1)),
	}
	// Equations 4-5: residual calculation.
	out[upmem.PhaseRC] = PhaseCost{
		Compute: q * pp * d,
		IO:      (bytesC + bytesQ) * q * pp * d,
	}
	// Equations 6-9 stage by stage. occ is the mean LUT size per subspace:
	// each stage builds the entries its surviving points reference instead of
	// all CB (the mark-then-build kernel; dense is the C >> CB limit). gathered
	// is the share of a point's M codes DC reads before the point is dropped.
	stages := len(p.Survival) - 1
	var occ, gathered float64
	for _, alive := range p.Survival[:stages] {
		occ += LUTOccupancy(p.CB, int(math.Ceil(alive*c))) / float64(stages)
		gathered += alive / float64(stages)
	}
	out[upmem.PhaseLC] = PhaseCost{
		Compute: q * pp * occ * Dist(p.D/p.M, mulCost) * m,
		IO:      q * pp * occ * ((bytesCB+bytesQ)*d + bytesL*m),
	}
	out[upmem.PhaseDC] = PhaseCost{
		Compute: q * pp * c * (gathered*m - 1),
		IO:      q * pp * c * ((bytesA+bytesL)*gathered*m + bytesL),
	}
	// Equations 10-11: top-k sorting, over the points that reach it.
	ts := q * pp * c * p.Survival[stages]
	out[upmem.PhaseTS] = PhaseCost{
		Compute: ts * (log2(p.K) - 1),
		IO:      (bytesL + bytesA) * ts * (log2(p.K) + 1),
	}
	return out, nil
}

// Hardware models one execution platform for Equation 12.
type Hardware struct {
	PE     float64 // parallel processing elements (threads or DPUs)
	FreqHz float64
	// Lanes is the SIMD width usable by the distance kernels (the AVX factor
	// for the CPU baseline; 1 for scalar DPUs).
	Lanes float64
	// BWBytes is the aggregate memory bandwidth available to the phase.
	BWBytes float64
}

// FromPlatform derives phase hardware from a platform model.
func FromPlatform(p upmem.Platform) Hardware {
	lanes := float64(p.VectorWidth)
	if lanes < 1 {
		lanes = 1
	}
	return Hardware{
		PE:      float64(p.Threads),
		FreqHz:  p.FreqGHz * 1e9,
		Lanes:   lanes,
		BWBytes: p.MemBWGBs * 1e9,
	}
}

// UPMEM is the Equation-12 hardware of a simulated UPMEM slice of dpus
// DPUs. The paper's model plugs in per-phase *profiled* frequencies F_x
// rather than the nominal clock; effOpsPerCycle stands in for that profile —
// the fraction of nominal instruction throughput a real DPU kernel sustains
// once addressing, loads/stores and loop control are included (PrIM
// measures ~0.25-0.5 for streaming integer kernels).
func UPMEM(dpus int) Hardware {
	const effOpsPerCycle = 0.30
	return Hardware{
		PE:      float64(dpus),
		FreqHz:  upmem.ClockHz * effOpsPerCycle,
		Lanes:   1,
		BWBytes: float64(dpus) * upmem.StreamBytesPerSec,
	}
}

// PhaseTime is Equation 12: compute and memory fully overlap, so the phase
// takes the maximum of the two.
func PhaseTime(pc PhaseCost, hw Hardware) float64 {
	compute := pc.Compute / (hw.FreqHz * hw.PE * hw.Lanes)
	io := pc.IO / hw.BWBytes
	return math.Max(compute, io)
}

// Assignment says which phases run on the host; the rest run on the PIM.
// DRIM-ANN's default splits CL onto the host (paper §5.2).
type Assignment struct {
	HostPhases map[upmem.Phase]bool
}

// DefaultAssignment places CL on the host.
func DefaultAssignment() Assignment {
	return Assignment{HostPhases: map[upmem.Phase]bool{upmem.PhaseCL: true}}
}

// BatchTime is the Equation 14 objective: host and PIM pipelines overlap, so
// the batch takes the maximum of the two pipelines' summed phase times.
func BatchTime(costs [upmem.NumPhases]PhaseCost, host, pim Hardware, asg Assignment) float64 {
	var hostT, pimT float64
	for p := upmem.Phase(0); p < upmem.NumPhases; p++ {
		pc := costs[p]
		if pc.Compute == 0 && pc.IO == 0 {
			continue
		}
		if asg.HostPhases[p] {
			hostT += PhaseTime(pc, host)
		} else {
			pimT += PhaseTime(pc, pim)
		}
	}
	return math.Max(hostT, pimT)
}

// QPS converts a batch time into queries per second.
func QPS(p Params, batchTime float64) float64 {
	if batchTime <= 0 {
		return 0
	}
	return float64(p.Q) / batchTime
}

// PredictQPS is the convenience entry point used by the DSE and the
// experiment harness: UPMEM-side phases with the SQT cost model and, unless
// p carries its own, the engine's survival profile; CL on the host.
func PredictQPS(p Params, host, pim Hardware, sqt bool) (float64, error) {
	if p.Survival == nil && p.M > 0 && p.C > 0 && p.P > 0 {
		p.Survival = EngineSurvival(p)
	}
	mulCost := 32.0
	if sqt {
		mulCost = 2.0
	}
	costs, err := Costs(p, mulCost)
	if err != nil {
		return 0, err
	}
	// The host has hardware multipliers regardless of the PIM kernel choice.
	hostCosts, err := Costs(p, 1.0)
	if err != nil {
		return 0, err
	}
	asg := DefaultAssignment()
	mixed := costs
	mixed[upmem.PhaseCL] = hostCosts[upmem.PhaseCL]
	return QPS(p, BatchTime(mixed, host, pim, asg)), nil
}

// SuggestAssignment implements the paper's placement rule (§4): phases with
// a higher compute-to-IO ratio go to the host — after the multiplier-less
// conversion most phases are memory-intensive and belong on the PIM, but
// C2IO-heavy ones can overlap on the host. The suggestion minimizes the
// Equation-14 objective greedily: phases are sorted by C2IO and host-side
// prefixes are evaluated against the full model.
func SuggestAssignment(costs [upmem.NumPhases]PhaseCost, host, pim Hardware) Assignment {
	type ranked struct {
		p    upmem.Phase
		c2io float64
	}
	var phases []ranked
	for p := upmem.Phase(0); p < upmem.NumPhases; p++ {
		if costs[p].Compute == 0 && costs[p].IO == 0 {
			continue
		}
		phases = append(phases, ranked{p, costs[p].C2IO()})
	}
	sort.Slice(phases, func(i, j int) bool { return phases[i].c2io > phases[j].c2io })

	best := Assignment{HostPhases: map[upmem.Phase]bool{}}
	bestTime := BatchTime(costs, host, pim, best)
	cur := map[upmem.Phase]bool{}
	for _, r := range phases {
		cur[r.p] = true
		cand := Assignment{HostPhases: map[upmem.Phase]bool{}}
		for p := range cur {
			cand.HostPhases[p] = true
		}
		if t := BatchTime(costs, host, pim, cand); t < bestTime {
			bestTime, best = t, cand
		}
	}
	return best
}

// ArithmeticIntensity returns total ops per byte over all phases — the
// x-axis of the roofline plot (Figure 2).
func ArithmeticIntensity(costs [upmem.NumPhases]PhaseCost) float64 {
	var ops, bytes float64
	for _, pc := range costs {
		ops += pc.Compute
		bytes += pc.IO
	}
	if bytes == 0 {
		return 0
	}
	return ops / bytes
}

// DatasetBytes returns the memory footprint of the encoded dataset plus the
// raw vectors (used for OOM checks in the roofline and scalability studies).
func DatasetBytes(p Params) float64 {
	if err := p.defaults(); err != nil {
		return 0
	}
	raw := float64(p.N) * float64(p.D) * bytesQ
	codes := float64(p.N) * float64(p.M) * p.bytesP()
	return raw + codes
}

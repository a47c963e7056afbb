package bench

import (
	"fmt"

	"drimann/internal/core"
	"drimann/internal/dataset"
	"drimann/internal/energy"
	"drimann/internal/perfmodel"
	"drimann/internal/upmem"
)

// paperDPUs is the paper's UPMEM server size; scaled experiments compare a
// NumDPUs-sized slice of it against the same slice of the 32-thread CPU
// baseline so all ratios carry over.
const paperDPUs = 2543

// drimRun is one simulated DRIM-ANN execution.
type drimRun struct {
	QPS     float64
	Recall  float64
	Metrics core.Metrics
	Th1     int // the layout's split threshold and the slices it made
	Slices  int
}

// runDRIM builds an engine for (dataset, nlist, nprobe) with optional option
// mutation and simulates the full query set.
func (r *Runner) runDRIM(name string, nlist, nprobe int, mutate func(*core.Options)) (drimRun, error) {
	return r.runDRIMCB(name, nlist, nprobe, r.Scale.CB, mutate)
}

// runDRIMCB is runDRIM with an explicit codebook size (a few experiments
// need a DC-heavy configuration).
func (r *Runner) runDRIMCB(name string, nlist, nprobe, cb int, mutate func(*core.Options)) (drimRun, error) {
	s := r.Dataset(name)
	m := subvectorsFor(s.Base.D)
	ix, err := r.Index(name, nlist, m, cb)
	if err != nil {
		return drimRun{}, err
	}
	opts := core.DefaultOptions()
	opts.NumDPUs = r.Scale.NumDPUs
	opts.K = r.Scale.K
	opts.NProbe = nprobe
	opts.BatchSize = 128
	opts.CopyFootprint = 64 << 10
	if mutate != nil {
		mutate(&opts)
	}
	eng, err := core.New(ix, s.Queries, opts)
	if err != nil {
		return drimRun{}, err
	}
	res, err := eng.SearchBatch(s.Queries)
	if err != nil {
		return drimRun{}, err
	}
	gt := r.GroundTruth(name)
	return drimRun{
		QPS:     res.Metrics.QPS,
		Recall:  dataset.Recall(gt, res.IDs, r.Scale.K),
		Metrics: res.Metrics,
		Th1:     eng.Placement().Th1,
		Slices:  len(eng.Placement().Slices),
	}, nil
}

// cpuQPS models the Faiss-CPU baseline on the same scaled slice: the CPU
// model gets NumDPUs/2543 of the paper CPU's threads and bandwidth, and —
// through perfmodel.Costs — the same reference-driven LUT size as the PIM
// kernel, which keeps the reported speedups conservative. The DC
// LUT gathers are charged to cache, not DRAM (Faiss keeps per-query LUTs L1
// resident), so only code/id streaming hits memory — without this the paper
// model overstates CPU memory traffic.
func (r *Runner) cpuQPS(name string, nlist, nprobe int) (float64, error) {
	s := r.Dataset(name)
	m := subvectorsFor(s.Base.D)
	slice := float64(r.Scale.NumDPUs) / paperDPUs
	c := s.Base.N / nlist
	if c < 1 {
		c = 1
	}
	p := perfmodel.Params{
		N: int64(s.Base.N), Q: s.Queries.N, D: s.Base.D,
		K: r.Scale.K, P: nprobe, C: c, M: m, CB: r.Scale.CB,
	}
	costs, err := perfmodel.Costs(p, 1)
	if err != nil {
		return 0, err
	}
	// Streaming-only DC/TS IO (codes + ids; LUT gathers are cache hits).
	costs[upmem.PhaseDC].IO = float64(p.Q*p.P*c) * (float64(m) + 4)
	costs[upmem.PhaseTS].IO = float64(p.Q*p.P*c) * 1 // threshold hits cache

	cpu := upmem.PlatformCPU()
	hw := perfmodel.FromPlatform(cpu)
	const cpuEfficiency = 0.35 // Faiss-like fraction of peak on this mix
	hw.PE *= slice * cpuEfficiency
	hw.BWBytes *= slice
	var total float64
	for ph := upmem.Phase(0); ph < upmem.NumPhases; ph++ {
		pc := costs[ph]
		if pc.Compute == 0 && pc.IO == 0 {
			continue
		}
		phw := hw
		if ph == upmem.PhaseDC || ph == upmem.PhaseTS {
			phw.Lanes = 1 // gather/compare phases do not vectorize well
		}
		total += perfmodel.PhaseTime(pc, phw)
	}
	return perfmodel.QPS(p, total), nil
}

// Table1 regenerates the dataset inventory.
func Table1(r *Runner) (*Table, error) {
	t := &Table{
		ID: "T1", Title: "Large-scale ANNS datasets",
		Columns: []string{"Dataset", "Vectors", "Dim", "Synthetic stand-in (this run)"},
	}
	scaleByName := map[string]string{
		"ST1B (SIFT1B)": "SIFT", "DP1B (DEEP1B)": "DEEP", "SV1B (SPACEV1B)": "SPACEV",
		"T2I1B": "T2I", "ST100M (SIFT100M)": "SIFT", "DP100M (DEEP100M)": "DEEP",
	}
	for _, row := range dataset.Table1() {
		stand := scaleByName[row.Name]
		t.AddRow(row.Name, fmt.Sprintf("%d", row.Vectors), fmt.Sprintf("%d", row.Dim),
			fmt.Sprintf("%s x %d vectors", stand, r.Scale.N))
	}
	t.Notes = append(t.Notes,
		"original corpora are generated synthetically at reduced scale with matching dim/dtype/skew (package internal/dataset)")
	return t, nil
}

// Figure2 regenerates the roofline analysis at paper scale (it is analytic
// in the paper as well).
func Figure2(*Runner) (*Table, error) {
	t := &Table{
		ID: "F2", Title: "Roofline analysis of ANNS (attainable GOPs; X = OOM)",
		Columns: []string{"Dataset", "AI (ops/B)", "CPU", "GPU x1", "GPU x2", "UPMEM x16", "UPMEM x24", "UPMEM x32"},
	}
	type ds struct {
		name string
		n    int64
		d    int
	}
	sets := []ds{
		{"SIFT100M", 100e6, 128}, {"DEEP100M", 100e6, 96},
		{"SIFT1B", 1e9, 128}, {"DEEP1B", 1e9, 96},
		{"SPACEV1B", 1e9, 100}, {"T2I1B", 1e9, 200},
	}
	gpu1 := upmem.PlatformGPU()
	gpu2 := gpu1
	gpu2.Name = "GPU x2"
	gpu2.PeakGOPs *= 2
	gpu2.MemBWGBs *= 2
	gpu2.MemCapGB *= 2
	platforms := []upmem.Platform{
		upmem.PlatformCPU(), gpu1, gpu2,
		upmem.PlatformUPMEM(16), upmem.PlatformUPMEM(24), upmem.PlatformUPMEM(32),
	}
	for _, s := range sets {
		m := subvectorsFor(s.d)
		p := perfmodel.Params{
			N: s.n, Q: 10000, D: s.d, K: 10, P: 96, C: int(s.n / (1 << 14)), M: m, CB: 256,
		}
		costs, err := perfmodel.Costs(p, 1)
		if err != nil {
			return nil, err
		}
		ai := perfmodel.ArithmeticIntensity(costs)
		row := []string{s.name, f2(ai)}
		bytes := perfmodel.DatasetBytes(p)
		for _, pf := range platforms {
			if !pf.Fits(bytes) {
				row = append(row, "X (OOM)")
				continue
			}
			row = append(row, f0(pf.RooflineGOPs(ai)))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, "intersection of each dataset's arithmetic intensity with each platform's roofline; X marks out-of-memory")
	return t, nil
}

// endToEnd runs the Figure 7/8 sweeps for one dataset.
func endToEnd(r *Runner, id, name string) (*Table, error) {
	t := &Table{
		ID: id, Title: fmt.Sprintf("End-to-end QPS on %s-shaped data (DRIM-ANN vs Faiss-CPU)", name),
		Columns: []string{"sweep", "value", "Faiss-CPU QPS", "DRIM-ANN QPS", "speedup", "recall@10"},
	}
	midNlist := r.Scale.NLists[len(r.Scale.NLists)/2]
	midNprobe := r.Scale.NProbes[len(r.Scale.NProbes)/2]

	for _, nprobe := range r.Scale.NProbes {
		drim, err := r.runDRIM(name, midNlist, nprobe, nil)
		if err != nil {
			return nil, err
		}
		cq, err := r.cpuQPS(name, midNlist, nprobe)
		if err != nil {
			return nil, err
		}
		t.AddRow("nprobe", fmt.Sprintf("%d", nprobe), f0(cq), f0(drim.QPS), f2(drim.QPS/cq), f3(drim.Recall))
	}
	for _, nlist := range r.Scale.NLists {
		drim, err := r.runDRIM(name, nlist, midNprobe, nil)
		if err != nil {
			return nil, err
		}
		cq, err := r.cpuQPS(name, nlist, midNprobe)
		if err != nil {
			return nil, err
		}
		t.AddRow("nlist", fmt.Sprintf("%d", nlist), f0(cq), f0(drim.QPS), f2(drim.QPS/cq), f3(drim.Recall))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("simulated %d-DPU slice of the paper's 2543-DPU server vs the matching slice of the 32-thread AVX2 CPU", r.Scale.NumDPUs),
		"paper: 1.63x-2.25x (SIFT100M) and 1.61x-2.46x (DEEP100M)")
	return t, nil
}

// Figure7 regenerates the SIFT end-to-end comparison.
func Figure7(r *Runner) (*Table, error) { return endToEnd(r, "F7", "SIFT") }

// Figure8 regenerates the DEEP end-to-end comparison.
func Figure8(r *Runner) (*Table, error) { return endToEnd(r, "F8", "DEEP") }

// Figure9 regenerates the PIM kernel latency breakdown.
func Figure9(r *Runner) (*Table, error) {
	t := &Table{
		ID: "F9", Title: "PIM kernel latency breakdown on SIFT-shaped data",
		Columns: []string{"sweep", "value", "RC", "LC", "DC", "TS", "Others", "LUT occupancy"},
	}
	subspaces := subvectorsFor(r.Dataset("SIFT").Base.D)
	midNlist := r.Scale.NLists[len(r.Scale.NLists)/2]
	midNprobe := r.Scale.NProbes[len(r.Scale.NProbes)/2]
	addRow := func(sweep string, value int, m core.Metrics) {
		sh := m.PhaseShare()
		t.AddRow(sweep, fmt.Sprintf("%d", value),
			f3(sh[upmem.PhaseRC]), f3(sh[upmem.PhaseLC]),
			f3(sh[upmem.PhaseDC]), f3(sh[upmem.PhaseTS]),
			f3(sh[upmem.PhaseCL]+sh[upmem.PhaseOther]),
			f3(m.LUTOccupancy(subspaces, r.Scale.CB)))
	}
	for _, nprobe := range r.Scale.NProbes {
		drim, err := r.runDRIM("SIFT", midNlist, nprobe, nil)
		if err != nil {
			return nil, err
		}
		addRow("nprobe", nprobe, drim.Metrics)
	}
	for _, nlist := range r.Scale.NLists {
		drim, err := r.runDRIM("SIFT", nlist, midNprobe, nil)
		if err != nil {
			return nil, err
		}
		addRow("nlist", nlist, drim.Metrics)
	}
	t.Notes = append(t.Notes,
		"paper: LC and DC dominate; the bottleneck moves from DC to LC as nlist grows",
		"LUT occupancy: share of the dense M x CB LUT the reference-driven LC kernel builds per group — per stage, the entries the points that survived the query's bound so far read; it falls as slices shrink (higher nlist, or big clusters split across DPUs) and as bounds prune harder (more probes behind the first wave, longer lists), which is what keeps LC from swamping DC entirely")
	return t, nil
}

// Figure10 regenerates the energy comparison.
func Figure10(r *Runner) (*Table, error) {
	t := &Table{
		ID: "F10", Title: "End-to-end energy on SIFT-shaped data (J per query batch)",
		Columns: []string{"sweep", "value", "Faiss-CPU J", "DRIM-ANN J", "efficiency gain"},
	}
	cpuPower := energy.CPUServer()
	pimPower := energy.UPMEMServer(32) // the paper's full 32-DIMM server
	// Both systems are simulated as a 1/scaleup slice; energy per query at
	// full scale is P_full / (QPS_slice * scaleup).
	scaleup := paperDPUs / float64(r.Scale.NumDPUs)
	midNlist := r.Scale.NLists[len(r.Scale.NLists)/2]
	midNprobe := r.Scale.NProbes[len(r.Scale.NProbes)/2]

	addRow := func(sweep string, value, nlist, nprobe int) error {
		drim, err := r.runDRIM("SIFT", nlist, nprobe, nil)
		if err != nil {
			return err
		}
		cq, err := r.cpuQPS("SIFT", nlist, nprobe)
		if err != nil {
			return err
		}
		q := float64(r.Scale.Queries)
		cpuJ := cpuPower.Watts(1) * q / (cq * scaleup)
		pimJ := pimPower.Watts(1) * q / (drim.QPS * scaleup)
		t.AddRow(sweep, fmt.Sprintf("%d", value), f2(cpuJ), f2(pimJ), f2(cpuJ/pimJ))
		return nil
	}
	for _, nprobe := range r.Scale.NProbes {
		if err := addRow("nprobe", nprobe, midNlist, nprobe); err != nil {
			return nil, err
		}
	}
	for _, nlist := range r.Scale.NLists {
		if err := addRow("nlist", nlist, nlist, midNprobe); err != nil {
			return nil, err
		}
	}
	t.Notes = append(t.Notes, "paper: 1.10x-1.58x better energy efficiency than the CPU baseline (geomean 1.27x)")
	return t, nil
}

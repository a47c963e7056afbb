package bench

import (
	"fmt"

	"drimann/internal/core"
	"drimann/internal/perfmodel"
	"drimann/internal/upmem"
)

// naiveOptions disables every load-balance mechanism: whole clusters
// round-robin across DPUs, no duplication, no postponement — the paper's
// imbalanced baseline.
func naiveOptions(o *core.Options) {
	o.EnableSplit = false
	o.EnableDup = false
	o.EnableBalance = false
	o.Rebalance = false
	o.Th3 = 0
}

// Figure13 regenerates the load-balance speedups: overall (partition +
// duplication + allocation + scheduling) and allocation-only.
func Figure13(r *Runner) (*Table, error) {
	t := &Table{
		ID: "F13", Title: "Speedup of load-balance optimization on skewed queries",
		Columns: []string{"dataset", "nlist", "overall speedup", "allocation-only speedup"},
	}
	for _, name := range []string{"SIFT", "DEEP"} {
		for _, nlist := range r.Scale.NLists {
			// Like the paper (nprobe=96 on 2543 DPUs), each query must touch
			// far fewer clusters than there are DPUs for imbalance to show.
			nprobe := r.Scale.NProbes[0]
			full, err := r.runDRIM(name, nlist, nprobe, nil)
			if err != nil {
				return nil, err
			}
			allocOnly, err := r.runDRIM(name, nlist, nprobe, func(o *core.Options) {
				o.EnableSplit = false
				o.EnableDup = false
				o.Rebalance = false
				o.Th3 = 0
			})
			if err != nil {
				return nil, err
			}
			naive, err := r.runDRIM(name, nlist, nprobe, naiveOptions)
			if err != nil {
				return nil, err
			}
			t.AddRow(name, fmt.Sprintf("%d", nlist),
				f2(naive.Metrics.PIMSeconds/full.Metrics.PIMSeconds),
				f2(naive.Metrics.PIMSeconds/allocOnly.Metrics.PIMSeconds))
		}
	}
	t.Notes = append(t.Notes, "paper: overall 4.84x-6.19x rising with nlist; allocation alone 1.76x-4.07x")
	return t, nil
}

// Figure14a regenerates the split-granularity sweep.
func Figure14a(r *Runner) (*Table, error) {
	t := &Table{
		ID: "F14a", Title: "Cluster partition: speedup vs split granularity",
		Columns: []string{"split granularity (points)", "speedup vs imbalanced"},
	}
	// DC-heavy configuration (few large clusters, small codebook), the
	// regime where the paper studies partitioning: splitting spreads the
	// dominant scan work, and the LUT-rebuild overhead of extra slices is
	// secondary.
	nlist := 16
	cb := 16
	nprobe := r.Scale.NProbes[0]
	naive, err := r.runDRIMCB("SIFT", nlist, nprobe, cb, naiveOptions)
	if err != nil {
		return nil, err
	}
	avgC := r.Scale.N / nlist
	// The last row leaves the threshold to the layout (0: by evaluation).
	for _, th := range []int{max(avgC/8, 1), max(avgC/4, 1), max(avgC/2, 1), avgC, 0} {
		run, err := r.runDRIMCB("SIFT", nlist, nprobe, cb, func(o *core.Options) {
			// Isolate partition + allocation: no duplication, no runtime
			// rebalancing or postponement on either side of the comparison.
			o.EnableDup = false
			o.SplitThreshold = th
			o.Rebalance = false
			o.Th3 = 0
		})
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%d", th)
		if th == 0 {
			label = fmt.Sprintf("auto: %d (%d slices of %d lists)", run.Th1, run.Slices, nlist)
		}
		t.AddRow(label, f2(naive.Metrics.PIMSeconds/run.Metrics.PIMSeconds))
	}
	t.Notes = append(t.Notes, "paper: partition + allocation reaches up to 3.35x; finer slices balance better until metadata overhead bites")
	return t, nil
}

// Figure14b regenerates the duplication-footprint sweep.
func Figure14b(r *Runner) (*Table, error) {
	t := &Table{
		ID: "F14b", Title: "Cluster duplication: speedup vs extra footprint per DPU",
		Columns: []string{"copy footprint (KiB/DPU)", "speedup vs imbalanced"},
	}
	nlist := r.Scale.NLists[len(r.Scale.NLists)/2]
	nprobe := r.Scale.NProbes[0]
	naive, err := r.runDRIM("SIFT", nlist, nprobe, naiveOptions)
	if err != nil {
		return nil, err
	}
	for _, kib := range []int{0, 8, 16, 32, 64, 128} {
		foot := kib << 10
		run, err := r.runDRIM("SIFT", nlist, nprobe, func(o *core.Options) {
			// Isolate allocation + duplication (the figure's subject): no
			// partitioning, no runtime rebalancing or postponement.
			o.EnableSplit = false
			o.Rebalance = false
			o.Th3 = 0
			o.CopyFootprint = foot
			if foot == 0 {
				o.EnableDup = false
			}
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", kib), f2(naive.Metrics.PIMSeconds/run.Metrics.PIMSeconds))
	}
	t.Notes = append(t.Notes, "paper: gains saturate once extra footprint reaches ~0.129 MB per DPU (<20% of the dataset)")
	return t, nil
}

// platformEff derates the Equation-12 ideal to what each platform achieves
// in practice: the paper's model uses per-phase profiled bandwidths and
// frequencies (BW_x, F_x); lacking those hardware profiles, a single
// per-platform factor is calibrated so that the paper's measured
// cross-platform ratios are reproduced (UPMEM ~1.9x CPU, Faiss-GPU ~12.3x
// Faiss-CPU, HBM-PIM ~0.86x GPU, AiM ~2.35x GPU on SIFT100M).
type platformEff struct {
	platform upmem.Platform
	comp, bw float64
	sqt      bool // multiplier-less PIM kernels
}

// Figure15 regenerates the cross-platform scalability study at paper scale
// (SIFT100M, Q=10000), which the paper also evaluates by scaling its model
// to HBM-PIM and AiM simulators.
func Figure15(*Runner) (*Table, error) {
	t := &Table{
		ID: "F15", Title: "DRIM-ANN on UPMEM / HBM-PIM / AiM vs Faiss-CPU and Faiss-GPU (SIFT100M)",
		Columns: []string{"nlist", "UPMEM/CPU", "HBM-PIM/CPU", "AiM/CPU", "UPMEM/GPU", "HBM-PIM/GPU", "AiM/GPU"},
	}
	systems := map[string]platformEff{
		"CPU":    {upmem.PlatformCPU(), 0.35, 1.0, false},
		"GPU":    {upmem.PlatformGPU(), 0.40, 0.65, false},
		"UPMEM":  {upmem.PlatformUPMEM(32), 0.10, 0.10, true},
		"HBMPIM": {upmem.PlatformHBMPIM(), 0.28, 0.28, true},
		"AiM":    {upmem.PlatformAiM(), 0.35, 0.35, true},
	}
	qpsOf := func(sys platformEff, nlist int) (float64, error) {
		const n = 100_000_000
		p := perfmodel.Params{
			N: n, Q: 10000, D: 128, K: 10, P: 96, C: n / nlist, M: 16, CB: 256,
		}
		mul := 1.0
		if sys.sqt {
			mul = 2.0
		}
		costs, err := perfmodel.Costs(p, mul)
		if err != nil {
			return 0, err
		}
		hw := perfmodel.FromPlatform(sys.platform)
		hw.PE *= sys.comp
		hw.BWBytes *= sys.bw
		var total float64
		for ph := upmem.Phase(0); ph < upmem.NumPhases; ph++ {
			pc := costs[ph]
			if pc.Compute == 0 && pc.IO == 0 {
				continue
			}
			phw := hw
			if !sys.sqt && (ph == upmem.PhaseDC || ph == upmem.PhaseTS) {
				phw.Lanes = 1
			}
			total += perfmodel.PhaseTime(pc, phw)
		}
		return perfmodel.QPS(p, total), nil
	}
	for _, nlist := range []int{1 << 13, 1 << 14, 1 << 15} {
		qps := map[string]float64{}
		for name, sys := range systems {
			v, err := qpsOf(sys, nlist)
			if err != nil {
				return nil, err
			}
			qps[name] = v
		}
		t.AddRow(fmt.Sprintf("2^%d", log2int(nlist)),
			f2(qps["UPMEM"]/qps["CPU"]), f2(qps["HBMPIM"]/qps["CPU"]), f2(qps["AiM"]/qps["CPU"]),
			f2(qps["UPMEM"]/qps["GPU"]), f2(qps["HBMPIM"]/qps["GPU"]), f2(qps["AiM"]/qps["GPU"]))
	}
	t.Notes = append(t.Notes,
		"paper: UPMEM ~1.9x CPU but only ~0.16x GPU; HBM-PIM 11.3x-12.3x CPU (0.76x-1.00x GPU); AiM 30.1x-33.9x CPU (2.09x-2.67x GPU)",
		"one efficiency factor a platform, calibrated to the paper's cross-platform ratios, stands in for its per-phase profiled BW_x/F_x")
	return t, nil
}

func log2int(x int) int {
	n := 0
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}

// Table3 regenerates the MemANNS comparison on SIFT1B. MemANNS is closed
// source; its row cites the numbers reported in its paper, as the DRIM-ANN
// paper itself does. The DRIM-ANN rows are priced by the performance model
// at 1018 DPUs, without DSE (the paper's empirical default configuration)
// and with the DSE-selected configuration (higher nlist, lower nprobe).
func Table3(*Runner) (*Table, error) {
	t := &Table{
		ID: "T3", Title: "Comparison with MemANNS on SIFT1B",
		Columns: []string{"system", "#DPUs", "QPS (SIFT1B)"},
	}
	upmemAt := func(dpus int) perfmodel.Hardware {
		return perfmodel.Hardware{
			PE:     float64(dpus) * 0.10, // same calibration as Figure 15
			FreqHz: upmem.ClockHz, Lanes: 1,
			BWBytes: float64(dpus) * upmem.StreamBytesPerSec * 0.10,
		}
	}
	host := perfmodel.FromPlatform(upmem.PlatformCPU())
	qpsFor := func(dpus, nlist, nprobe int) (float64, error) {
		const n = 1_000_000_000
		p := perfmodel.Params{
			N: n, Q: 10000, D: 128, K: 10, P: nprobe, C: n / nlist, M: 16, CB: 256,
		}
		return perfmodel.PredictQPS(p, host, upmemAt(dpus), true)
	}
	noDSE, err := qpsFor(1018, 1<<16, 96)
	if err != nil {
		return nil, err
	}
	// The DSE explores (P, nlist) under the paper's recall proxy (P >= 32
	// with M=16, CB=256 holds recall@10 >= 0.8 on SIFT1B) and keeps the
	// model-optimal configuration: finer clustering, fewer probes (paper
	// Table 3: 419 -> 3867 QPS).
	withDSE := 0.0
	for _, nlist := range []int{1 << 14, 1 << 15, 1 << 16, 3 << 15, 1 << 17, 3 << 16, 1 << 18} {
		for _, p := range []int{32, 48, 64, 96} {
			q, err := qpsFor(1018, nlist, p)
			if err != nil {
				return nil, err
			}
			if q > withDSE {
				withDSE = q
			}
		}
	}
	t.AddRow("MemANNS (reported)", "896", "405")
	t.AddRow("DRIM-ANN (without DSE)", "1018", f0(noDSE))
	t.AddRow("DRIM-ANN (with DSE)", "1018", f0(withDSE))
	t.Notes = append(t.Notes, "paper: MemANNS 405 QPS @896 DPUs; DRIM-ANN 419 (no DSE) and 3867 (DSE) @1018 DPUs")
	return t, nil
}

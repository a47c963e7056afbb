package engine_test

import (
	"testing"

	"drimann/internal/engine"
	"drimann/internal/upmem"
)

// TestMetricsAddLaunch charges a two-DPU system by hand and checks every
// field the shared launch accountant fills, and what it returns. The default
// cost model applies: 350 MHz, 16 tasklets (compute cycles count one to
// one), a DMA costs 77 cycles plus half a cycle per byte, a launch 20 us.
func TestMetricsAddLaunch(t *testing.T) {
	const hz = 350e6
	const lc, dc = upmem.PhaseLC, upmem.PhaseDC
	cases := []struct {
		name   string
		charge func(sys *upmem.System)
		// pimCycles is the slowest DPU's total; phaseCycles the slowest DPU
		// per phase; compute/dmas/bytes the roll-up over both DPUs.
		pimCycles   uint64
		phaseCycles map[upmem.Phase]uint64
		compute     map[upmem.Phase]uint64
		dmas, bytes map[upmem.Phase]uint64
		imbalance   float64
	}{
		{
			name: "compute-bound, uneven",
			charge: func(sys *upmem.System) {
				sys.DPUs[0].ChargeCycles(lc, 700)
				sys.DPUs[1].ChargeCycles(lc, 350)
			},
			pimCycles:   700,
			phaseCycles: map[upmem.Phase]uint64{lc: 700},
			compute:     map[upmem.Phase]uint64{lc: 1050},
			imbalance:   700.0 / 525.0,
		},
		{
			name: "DMA outlasts compute",
			charge: func(sys *upmem.System) {
				sys.DPUs[0].ChargeCycles(dc, 100)
				sys.DPUs[0].DMA(dc, 1000) // 77 + 500 cycles
				sys.DPUs[1].ChargeCycles(dc, 577)
			},
			pimCycles:   577,
			phaseCycles: map[upmem.Phase]uint64{dc: 577},
			compute:     map[upmem.Phase]uint64{dc: 677},
			dmas:        map[upmem.Phase]uint64{dc: 1},
			bytes:       map[upmem.Phase]uint64{dc: 1000},
			imbalance:   1,
		},
		{
			// PIM time is one DPU's sum over phases; a phase's critical path
			// is the slowest DPU of that phase, whichever DPU that is.
			name: "phases peak on different DPUs",
			charge: func(sys *upmem.System) {
				sys.DPUs[0].ChargeCycles(lc, 400)
				sys.DPUs[0].ChargeCycles(dc, 100)
				sys.DPUs[1].ChargeCycles(lc, 100)
				sys.DPUs[1].ChargeCycles(dc, 300)
			},
			pimCycles:   500,
			phaseCycles: map[upmem.Phase]uint64{lc: 400, dc: 300},
			compute:     map[upmem.Phase]uint64{lc: 500, dc: 400},
			imbalance:   500.0 / 450.0,
		},
		{
			name:      "idle launch",
			charge:    func(sys *upmem.System) {},
			imbalance: 1,
		},
	}
	var total engine.Metrics // every launch folded into one Metrics
	var wantPIM, wantXfer, wantImb float64
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := upmem.NewSystem(upmem.DefaultConfig(2))
			if err != nil {
				t.Fatal(err)
			}
			sys.Launch()
			sys.TransferToDPUs(1 << 20)
			sys.TransferFromDPUs(1 << 10)
			tc.charge(sys)
			wantX := float64(1<<20+1<<10)/sys.Cfg.HostBWBytesPerSec() + 20e-6

			var m engine.Metrics
			pim, xfer := m.AddLaunch(sys)
			if want := float64(tc.pimCycles) / hz; pim != want || m.PIMSeconds != want {
				t.Fatalf("PIM seconds: returned %v, recorded %v, want %v", pim, m.PIMSeconds, want)
			}
			if xfer != wantX || m.XferSeconds != wantX {
				t.Fatalf("transfer seconds: returned %v, recorded %v, want %v", xfer, m.XferSeconds, wantX)
			}
			for p := upmem.Phase(0); p < upmem.NumPhases; p++ {
				if want := float64(tc.phaseCycles[p]) / hz; m.PhaseSeconds[p] != want {
					t.Fatalf("phase %v critical path %v, want %v", p, m.PhaseSeconds[p], want)
				}
				if m.PhaseComputeCycles[p] != tc.compute[p] || m.PhaseDMACount[p] != tc.dmas[p] || m.PhaseDMABytes[p] != tc.bytes[p] {
					t.Fatalf("phase %v roll-up: compute %d dmas %d bytes %d, want %d %d %d", p,
						m.PhaseComputeCycles[p], m.PhaseDMACount[p], m.PhaseDMABytes[p],
						tc.compute[p], tc.dmas[p], tc.bytes[p])
				}
			}
			if m.Launches != 1 || m.ImbalanceSum != tc.imbalance {
				t.Fatalf("launches %d imbalance %v, want 1 and %v", m.Launches, m.ImbalanceSum, tc.imbalance)
			}
			// The accountant touches nothing else: the host side and the
			// overlap are the caller's.
			if m.SimSeconds != 0 || m.HostSeconds != 0 || m.Batches != 0 || m.Queries != 0 {
				t.Fatalf("accountant wrote host-side fields: %+v", m)
			}

			total.AddLaunch(sys)
			wantPIM += float64(tc.pimCycles) / hz
			wantXfer += wantX
			wantImb += tc.imbalance
			if total.Launches != i+1 || total.PIMSeconds != wantPIM || total.XferSeconds != wantXfer || total.ImbalanceSum != wantImb {
				t.Fatalf("after %d launches: %d launches, PIM %v xfer %v imbalance %v; want PIM %v xfer %v imbalance %v",
					i+1, total.Launches, total.PIMSeconds, total.XferSeconds, total.ImbalanceSum, wantPIM, wantXfer, wantImb)
			}
		})
	}
	host := upmem.PlatformHost()
	if got, want := engine.HostMergeSeconds(1000, 10), 1000*5/(float64(host.Threads)*host.FreqGHz*1e9); got != want {
		t.Fatalf("HostMergeSeconds = %v, want %v (1000 items x (log2ceil(10)+1) ops on the host's threads x GHz)", got, want)
	}
}

// TestMetricsMergeSumsWorkCounters: the counters of work done — scan, LUT,
// lock and SQT16 totals, launches, postponements — add up under both merges,
// sequential (Merge) and across concurrent shards (MergeParallel), so the
// ratios read off a merged Metrics (prune rate, codes gathered per point, LUT
// occupancy) are those of the whole.
func TestMetricsMergeSumsWorkCounters(t *testing.T) {
	a := engine.Metrics{Queries: 10, SimSeconds: 1, Launches: 2, Postponed: 1,
		LockAcquired: 3, LockSkipped: 4, LUTBuilds: 5, LUTReuses: 6, LUTEntries: 70,
		PointsScanned: 800, PointsPruned: 600, CodesGathered: 5000, SQT16Hot: 9, SQT16Cold: 1}
	b := engine.Metrics{Queries: 10, SimSeconds: 3, Launches: 1, Postponed: 2,
		LockAcquired: 30, LockSkipped: 40, LUTBuilds: 50, LUTReuses: 60, LUTEntries: 700,
		PointsScanned: 200, PointsPruned: 100, CodesGathered: 3000, SQT16Hot: 90, SQT16Cold: 10}
	rows := []struct {
		name    string
		of      func(m *engine.Metrics) uint64
		a, b, w uint64
	}{
		{"Launches", func(m *engine.Metrics) uint64 { return uint64(m.Launches) }, 2, 1, 3},
		{"Postponed", func(m *engine.Metrics) uint64 { return uint64(m.Postponed) }, 1, 2, 3},
		{"LockAcquired", func(m *engine.Metrics) uint64 { return m.LockAcquired }, 3, 30, 33},
		{"LockSkipped", func(m *engine.Metrics) uint64 { return m.LockSkipped }, 4, 40, 44},
		{"LUTBuilds", func(m *engine.Metrics) uint64 { return m.LUTBuilds }, 5, 50, 55},
		{"LUTReuses", func(m *engine.Metrics) uint64 { return m.LUTReuses }, 6, 60, 66},
		{"LUTEntries", func(m *engine.Metrics) uint64 { return m.LUTEntries }, 70, 700, 770},
		{"PointsScanned", func(m *engine.Metrics) uint64 { return m.PointsScanned }, 800, 200, 1000},
		{"PointsPruned", func(m *engine.Metrics) uint64 { return m.PointsPruned }, 600, 100, 700},
		{"CodesGathered", func(m *engine.Metrics) uint64 { return m.CodesGathered }, 5000, 3000, 8000},
		{"SQT16Hot", func(m *engine.Metrics) uint64 { return m.SQT16Hot }, 9, 90, 99},
		{"SQT16Cold", func(m *engine.Metrics) uint64 { return m.SQT16Cold }, 1, 10, 11},
	}
	var seq, par engine.Metrics
	seq.Merge(&a)
	seq.Merge(&b)
	par.MergeParallel(&a)
	par.MergeParallel(&b)
	for _, r := range rows {
		if r.of(&a) != r.a || r.of(&b) != r.b {
			t.Fatalf("%s: row does not read the field it names", r.name)
		}
		if got := r.of(&seq); got != r.w {
			t.Errorf("Merge: %s = %d, want %d", r.name, got, r.w)
		}
		if got := r.of(&par); got != r.w {
			t.Errorf("MergeParallel: %s = %d, want %d", r.name, got, r.w)
		}
	}
	if seq.Queries != 20 || seq.SimSeconds != 4 || par.Queries != 10 || par.SimSeconds != 3 {
		t.Fatalf("queries and seconds: sequential %d in %v s, parallel %d in %v s", seq.Queries, seq.SimSeconds, par.Queries, par.SimSeconds)
	}
}

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
	if got := engine.HostMergeSeconds(upmem.Platform{Threads: 4, FreqGHz: 2}, 1000, 10); got != 1000*5/8e9 {
		t.Fatalf("HostMergeSeconds = %v, want %v (1000 items x (log2ceil(10)+1) ops on 4 x 2 GHz)", got, 1000*5/8e9)
	}
}

package core

import (
	"fmt"
	"testing"

	"drimann/internal/dataset"
	"drimann/internal/upmem"
)

// TestBatchedTallyMatchesPerOpReference is the accounting property: across
// the full optimization matrix (UseSQT x SQT16 x UseWRAM x UseLockPruning x
// UseBitonicTS), the engine — with its LUT-free DC kernels, memoized SQT16
// replay and bulk TS charging — must produce bit-identical results and
// exactly equal metrics to the per-op reference accountant: per-phase
// instruction cycles, DMA transfer counts and bytes (including coalesced
// random accesses), lock and LUT counters, and SQT16 hot/cold statistics.
// The reference reads LUTInt's values, not the decomposition's, so the matrix
// checks those too.
func TestBatchedTallyMatchesPerOpReference(t *testing.T) {
	f := getFixture(t)

	type combo struct {
		sqt, sqt16, wram, prune, bitonic bool
	}
	var combos []combo
	for _, sqtMode := range [][2]bool{{false, false}, {true, false}, {true, true}} {
		for _, wram := range []bool{false, true} {
			for _, prune := range []bool{false, true} {
				for _, bitonic := range []bool{false, true} {
					combos = append(combos, combo{sqtMode[0], sqtMode[1], wram, prune, bitonic})
				}
			}
		}
	}

	for _, c := range combos {
		name := fmt.Sprintf("sqt=%v_sqt16=%v_wram=%v_prune=%v_bitonic=%v",
			c.sqt, c.sqt16, c.wram, c.prune, c.bitonic)
		t.Run(name, func(t *testing.T) {
			o := testOptions()
			o.UseSQT = c.sqt
			o.SQT16 = c.sqt16
			// A hot window far below the 8-bit diff domain (511) forces real
			// cold lookups; the default 8192 covers the whole domain and
			// would leave the memoized cold path trivially zero.
			o.SQT16HotEntries = 64
			o.UseWRAM = c.wram
			o.UseLockPruning = c.prune
			o.UseBitonicTS = c.bitonic

			eBat := newEngine(t, f.ix, dataset.U8Set{}, o, false)
			eRef := newEngine(t, f.ix, dataset.U8Set{}, o, true)
			if eBat.kernel != nil || eBat.lut == nil || eRef.kernel == nil || eRef.lut != nil {
				t.Fatal("accounting modes not wired through")
			}
			rBat, err := eBat.SearchBatch(f.s.Queries)
			if err != nil {
				t.Fatal(err)
			}
			rRef, err := eRef.SearchBatch(f.s.Queries)
			if err != nil {
				t.Fatal(err)
			}

			requireSameResults(t, rBat, rRef, "tally vs reference")
			// Metrics equality covers PhaseComputeCycles, PhaseDMACount,
			// PhaseDMABytes, PhaseSeconds, lock/LUT counters and the SQT16
			// hot/cold split elementwise (struct comparison).
			if rBat.Metrics != rRef.Metrics {
				t.Fatalf("metrics diverge:\ntally:     %+v\nreference: %+v", rBat.Metrics, rRef.Metrics)
			}
			if got, want := eBat.SQT16HitRate(), eRef.SQT16HitRate(); got != want {
				t.Fatalf("engine SQT16 hit rate %v != reference %v", got, want)
			}
			if c.sqt16 {
				if rBat.Metrics.SQT16Hot == 0 || rBat.Metrics.SQT16Cold == 0 {
					t.Fatalf("SQT16 run should exercise both tiers: hot %d cold %d",
						rBat.Metrics.SQT16Hot, rBat.Metrics.SQT16Cold)
				}
				// Per-DPU table statistics must match, not just the sums.
				for d := range eBat.sqt16 {
					if eBat.sqt16[d].Stats() != eRef.sqt16[d].Stats() {
						t.Fatalf("DPU %d tiered stats: tally %+v != reference %+v",
							d, eBat.sqt16[d].Stats(), eRef.sqt16[d].Stats())
					}
				}
			}
			if rBat.Metrics.PointsScanned == 0 || rBat.Metrics.PhaseComputeCycles[upmem.PhaseDC] == 0 {
				t.Fatalf("degenerate run: %+v", rBat.Metrics)
			}
		})
	}
}

// TestReferenceAccountingFallbackPath pins the third functional variant:
// with the decomposed LUT builder unavailable (budget exceeded via a huge
// virtual NList product is impractical here, so we clear it directly), the
// engine's tally on the materialized-LUT fallback must still match the
// reference accountant — with LUTIntMul (no SQT), with LUTInt over the SQT,
// and with the SQT16 replay on top.
func TestReferenceAccountingFallbackPath(t *testing.T) {
	f := getFixture(t)
	for _, c := range []struct {
		name       string
		sqt, sqt16 bool
	}{{"mul", false, false}, {"sqt", true, false}, {"sqt16", true, true}} {
		t.Run(c.name, func(t *testing.T) {
			o := testOptions()
			o.UseSQT, o.SQT16, o.SQT16HotEntries = c.sqt, c.sqt16, 64
			eBat := newEngine(t, f.ix, dataset.U8Set{}, o, false)
			eBat.lut = nil // the over-budget deployment: LUTs built per group
			eRef := newEngine(t, f.ix, dataset.U8Set{}, o, true)
			if eBat.kernel != nil || eRef.kernel == nil || eRef.lut != nil {
				t.Fatal("accounting modes not wired through")
			}
			rBat, err := eBat.SearchBatch(f.s.Queries)
			if err != nil {
				t.Fatal(err)
			}
			rRef, err := eRef.SearchBatch(f.s.Queries)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResults(t, rBat, rRef, "fallback vs reference")
			if rBat.Metrics != rRef.Metrics {
				t.Fatalf("fallback metrics diverge:\ntally:     %+v\nreference: %+v", rBat.Metrics, rRef.Metrics)
			}
			if c.sqt16 && (rBat.Metrics.SQT16Hot == 0 || rBat.Metrics.SQT16Cold == 0) {
				t.Fatalf("SQT16 run should exercise both tiers: hot %d cold %d", rBat.Metrics.SQT16Hot, rBat.Metrics.SQT16Cold)
			}
		})
	}
}

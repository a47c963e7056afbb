package core

import (
	"fmt"
	"testing"

	"drimann/internal/dataset"
	"drimann/internal/upmem"
)

// kernelConfig is one point of the kernel's option matrix.
type kernelConfig struct {
	name string
	o    Options
}

// kernelMatrix is the kernel's option matrix, UseSQT x UseWRAM, over base.
func kernelMatrix(base Options) []kernelConfig {
	var cs []kernelConfig
	for _, sqt := range []bool{false, true} {
		for _, wram := range []bool{false, true} {
			o := base
			o.UseSQT, o.UseWRAM = sqt, wram
			cs = append(cs, kernelConfig{fmt.Sprintf("sqt=%v_wram=%v", sqt, wram), o})
		}
	}
	return cs
}

// deployment is one shape a kernel configuration is checked on: it deploys
// o, as the per-op reference when ref is set, and returns the engine with the
// queries to run on it.
type deployment struct {
	suffix string
	deploy func(t *testing.T, o Options, ref bool) (*Engine, dataset.U8Set)
}

// deployments are the shapes of the matrix tests: whole lists; split and
// duplicated slices co-located on few DPUs (several slices of a cluster share
// a DPU and a scan); the tightest bound (K = 1); no bound at all (K at the
// corpus size, nothing pruned); and a live overlay of append segments and
// tombstones, whole-slice and co-located.
func deployments(f *fixture) []deployment {
	onFixture := func(set func(*Options)) func(*testing.T, Options, bool) (*Engine, dataset.U8Set) {
		return func(t *testing.T, o Options, ref bool) (*Engine, dataset.U8Set) {
			set(&o)
			return newEngine(t, f.ix, dataset.U8Set{}, o, ref), f.s.Queries
		}
	}
	colocate := func(o *Options) { o.NumDPUs, o.SplitThreshold = 3, 40 }
	return []deployment{
		{"", onFixture(func(*Options) {})},
		{"_colocated", onFixture(colocate)},
		{"_k=1", onFixture(func(o *Options) { o.K = 1 })},
		{"_unbounded", onFixture(func(o *Options) { o.K = f.s.Base.N })},
		{"_mutated", func(t *testing.T, o Options, ref bool) (*Engine, dataset.U8Set) {
			return mutatedEngine(t, o, ref)
		}},
		{"_mutated_colocated", func(t *testing.T, o Options, ref bool) (*Engine, dataset.U8Set) {
			colocate(&o)
			return mutatedEngine(t, o, ref)
		}},
	}
}

// TestBatchedTallyMatchesPerOpReference is the accounting property: across
// the optimization matrix (UseSQT x UseWRAM), on every deployment shape, the
// engine — with its LUT-free DC kernels and bulk TS charging — must produce
// bit-identical results and exactly equal metrics to the per-op reference
// accountant: per-phase instruction cycles, DMA transfer counts and bytes
// (including coalesced random accesses), and lock and LUT counters. The
// reference reads LUTInt's values, not the decomposition's, so the matrix
// checks those too.
func TestBatchedTallyMatchesPerOpReference(t *testing.T) {
	f := getFixture(t)
	for _, c := range kernelMatrix(testOptions()) {
		for _, d := range deployments(f) {
			t.Run(c.name+d.suffix, func(t *testing.T) {
				eBat, queries := d.deploy(t, c.o, false)
				eRef, _ := d.deploy(t, c.o, true)
				if eBat.kernel != nil || eBat.lut == nil || eRef.kernel == nil || eRef.lut != nil {
					t.Fatal("accounting modes not wired through")
				}
				rBat, err := eBat.SearchBatch(queries)
				if err != nil {
					t.Fatal(err)
				}
				rRef, err := eRef.SearchBatch(queries)
				if err != nil {
					t.Fatal(err)
				}

				requireSameResults(t, rBat, rRef, "tally vs reference")
				// Metrics equality covers PhaseComputeCycles, PhaseDMACount,
				// PhaseDMABytes, PhaseSeconds and the lock/LUT counters
				// elementwise (struct comparison).
				if rBat.Metrics != rRef.Metrics {
					t.Fatalf("metrics diverge:\ntally:     %+v\nreference: %+v", rBat.Metrics, rRef.Metrics)
				}
				if rBat.Metrics.PointsScanned == 0 || rBat.Metrics.PhaseComputeCycles[upmem.PhaseDC] == 0 {
					t.Fatalf("degenerate run: %+v", rBat.Metrics)
				}
			})
		}
	}
}

// TestReferenceAccountingFallbackPath pins the third functional variant:
// with the decomposed LUT builder unavailable (budget exceeded via a huge
// virtual NList product is impractical here, so we clear it directly), the
// engine's tally on the materialized-LUT fallback must still match the
// reference accountant — with LUTIntMul (no SQT) and with LUTInt over the
// SQT, with and without the WRAM buffers.
func TestReferenceAccountingFallbackPath(t *testing.T) {
	f := getFixture(t)
	for name, set := range lcModes() {
		t.Run(name, func(t *testing.T) {
			o := testOptions()
			set(&o)
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
		})
	}
}

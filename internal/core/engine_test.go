package core

import (
	"testing"

	"drimann/internal/dataset"
	"drimann/internal/ivf"
	"drimann/internal/pq"
	"drimann/internal/testutil"
	"drimann/internal/upmem"
)

// fixtures shared across tests (index building dominates test time).
type fixture struct {
	s  *dataset.Synth
	ix *ivf.Index
}

var sharedFixture *fixture

func getFixture(t *testing.T) *fixture {
	t.Helper()
	if sharedFixture != nil {
		return sharedFixture
	}
	ix, s := testutil.Fixture(t, testutil.FixtureSpec{
		N: 6000, D: 16, Queries: 64, NumClusters: 32, Seed: 21, Noise: 10,
		ZipfS: 1.8, QuerySkew: 0.95,
		NList: 48, M: 8, CB: 64, BuildSeed: 7,
	})
	sharedFixture = &fixture{s: s, ix: ix}
	return sharedFixture
}

func testOptions() Options {
	o := DefaultOptions()
	o.NumDPUs = 16
	o.K = 10
	o.NProbe = 12
	o.BatchSize = 32
	o.CopyFootprint = 32 << 10
	return o
}

func TestEngineMatchesIntReferenceExactly(t *testing.T) {
	// The headline functional guarantee: distributing clusters over DPUs,
	// splitting, duplication, scheduling and postponement must not change a
	// single result relative to the single-threaded integer reference.
	f := getFixture(t)
	e, err := New(f.ix, dataset.U8Set{}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.SearchBatch(f.s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < f.s.Queries.N; qi++ {
		want := f.ix.SearchInt(f.s.Queries.Vec(qi), e.opts.NProbe, e.opts.K)
		got := res.Items[qi]
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, want %d", qi, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("query %d result %d: %+v != reference %+v", qi, j, got[j], want[j])
			}
		}
	}
}

func TestEngineRecall(t *testing.T) {
	f := getFixture(t)
	e, err := New(f.ix, dataset.U8Set{}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.SearchBatch(f.s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	gt := dataset.GroundTruth(f.s.Base, f.s.Queries, 10, 0)
	if r := dataset.Recall(gt, res.IDs, 10); r < 0.75 {
		t.Fatalf("engine recall@10 = %v, want >= 0.75", r)
	}
}

func TestEngineMetricsSanity(t *testing.T) {
	f := getFixture(t)
	e, err := New(f.ix, dataset.U8Set{}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.SearchBatch(f.s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.QPS <= 0 || m.SimSeconds <= 0 {
		t.Fatalf("bad QPS/time: %+v", m)
	}
	if m.Launches < m.Batches {
		t.Fatalf("launches %d < batches %d", m.Launches, m.Batches)
	}
	if m.PointsScanned == 0 {
		t.Fatal("no points scanned")
	}
	var phaseTotal float64
	for _, s := range m.PhaseSeconds {
		phaseTotal += s
	}
	if phaseTotal <= 0 {
		t.Fatal("no phase time recorded")
	}
	shares := m.PhaseShare()
	var shareSum float64
	for _, s := range shares {
		shareSum += s
	}
	if shareSum < 0.999 || shareSum > 1.001 {
		t.Fatalf("phase shares sum to %v", shareSum)
	}
	if m.AvgImbalance() < 1 {
		t.Fatalf("imbalance below 1: %v", m.AvgImbalance())
	}
	// LC and DC must dominate the PIM time (Figure 9's shape).
	lcdc := shares[upmem.PhaseLC] + shares[upmem.PhaseDC]
	if lcdc < 0.5 {
		t.Fatalf("LC+DC share = %v, expected the dominant fraction", lcdc)
	}
}

func TestSQTAblation(t *testing.T) {
	f := getFixture(t)
	on := testOptions()
	off := testOptions()
	off.UseSQT = false

	eOn, err := New(f.ix, dataset.U8Set{}, on)
	if err != nil {
		t.Fatal(err)
	}
	eOff, err := New(f.ix, dataset.U8Set{}, off)
	if err != nil {
		t.Fatal(err)
	}
	rOn, err := eOn.SearchBatch(f.s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	rOff, err := eOff.SearchBatch(f.s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	// Lossless conversion: identical results.
	for qi := range rOn.IDs {
		for j := range rOn.IDs[qi] {
			if rOn.IDs[qi][j] != rOff.IDs[qi][j] {
				t.Fatalf("SQT changed results at query %d", qi)
			}
		}
	}
	// LC must get faster with SQT (multiplications removed).
	lcOn := rOn.Metrics.PhaseSeconds[upmem.PhaseLC]
	lcOff := rOff.Metrics.PhaseSeconds[upmem.PhaseLC]
	if lcOn >= lcOff {
		t.Fatalf("SQT did not speed up LC: %v vs %v", lcOn, lcOff)
	}
	speedup := lcOff / lcOn
	if speedup < 1.2 || speedup > 32 {
		t.Fatalf("LC speedup %v outside the plausible band (paper: ~1.93x)", speedup)
	}
	// End-to-end speedup is smaller than the LC speedup.
	e2e := rOff.Metrics.SimSeconds / rOn.Metrics.SimSeconds
	if e2e < 1.0 || e2e > speedup+0.01 {
		t.Fatalf("end-to-end speedup %v should be in [1, LC speedup %v]", e2e, speedup)
	}
}

func TestWRAMBufferAblation(t *testing.T) {
	f := getFixture(t)
	on := testOptions()
	off := testOptions()
	off.UseWRAM = false

	eOn, err := New(f.ix, dataset.U8Set{}, on)
	if err != nil {
		t.Fatal(err)
	}
	eOff, err := New(f.ix, dataset.U8Set{}, off)
	if err != nil {
		t.Fatal(err)
	}
	rOn, err := eOn.SearchBatch(f.s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	rOff, err := eOff.SearchBatch(f.s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range rOn.IDs {
		for j := range rOn.IDs[qi] {
			if rOn.IDs[qi][j] != rOff.IDs[qi][j] {
				t.Fatalf("buffer optimization changed results at query %d", qi)
			}
		}
	}
	speedup := rOff.Metrics.PIMSeconds / rOn.Metrics.PIMSeconds
	if speedup < 1.5 {
		t.Fatalf("WRAM buffering speedup %v too small (paper: ~4x)", speedup)
	}
	if speedup > 8 {
		t.Fatalf("WRAM buffering speedup %v implausibly large", speedup)
	}
}

func TestLoadBalanceAblation(t *testing.T) {
	f := getFixture(t)
	on := testOptions()
	off := testOptions()
	off.EnableSplit = false
	off.EnableDup = false
	off.EnableBalance = false
	off.Rebalance = false
	off.Th3 = 0

	eOn, err := New(f.ix, f.s.Queries, on) // profile with the real workload
	if err != nil {
		t.Fatal(err)
	}
	eOff, err := New(f.ix, dataset.U8Set{}, off)
	if err != nil {
		t.Fatal(err)
	}
	rOn, err := eOn.SearchBatch(f.s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	rOff, err := eOff.SearchBatch(f.s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	// Same results either way.
	for qi := range rOn.IDs {
		for j := range rOn.IDs[qi] {
			if rOn.IDs[qi][j] != rOff.IDs[qi][j] {
				t.Fatalf("load balancing changed results at query %d", qi)
			}
		}
	}
	if rOn.Metrics.AvgImbalance() >= rOff.Metrics.AvgImbalance() {
		t.Fatalf("balancing should cut imbalance: %v vs %v",
			rOn.Metrics.AvgImbalance(), rOff.Metrics.AvgImbalance())
	}
	speedup := rOff.Metrics.PIMSeconds / rOn.Metrics.PIMSeconds
	if speedup < 1.2 {
		t.Fatalf("load-balance speedup %v too small on a skewed workload", speedup)
	}
}

func TestEngineWRAMTooSmall(t *testing.T) {
	f := getFixture(t)
	o := testOptions()
	o.WRAMBytes = 1024 // cannot hold even the staging buffers
	if _, err := New(f.ix, dataset.U8Set{}, o); err == nil {
		t.Fatal("expected WRAM failure")
	}
}

func TestEngineMRAMTooSmall(t *testing.T) {
	f := getFixture(t)
	o := testOptions()
	o.MRAMBytes = 4 << 10
	if _, err := New(f.ix, dataset.U8Set{}, o); err == nil {
		t.Fatal("expected MRAM failure")
	}
}

func TestEngineQueryDimMismatch(t *testing.T) {
	f := getFixture(t)
	e, err := New(f.ix, dataset.U8Set{}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	bad := dataset.U8Set{N: 1, D: 8, Data: make([]uint8, 8)}
	if _, err := e.SearchBatch(bad); err == nil {
		t.Fatal("expected dim mismatch error")
	}
}

func TestEngineEmptyQuerySet(t *testing.T) {
	f := getFixture(t)
	e, err := New(f.ix, dataset.U8Set{}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.SearchBatch(dataset.U8Set{D: f.ix.Dim})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 0 || res.Metrics.QPS != 0 {
		t.Fatalf("empty query set should produce empty result, got %+v", res.Metrics)
	}
}

func TestEngineLUTSpillForLargeCB(t *testing.T) {
	// CB=1024 makes the LUT 8*1024*4 = 32 KB; with metadata and staging it
	// may or may not fit — build with a tiny WRAM to force the spill path
	// and verify the engine still works.
	s := dataset.Generate(dataset.SynthConfig{
		N: 2200, D: 8, NumQueries: 8, NumClusters: 8, Seed: 3, Noise: 8,
	})
	ix, err := ivf.Build(s.Base, ivf.BuildConfig{
		NList: 8, PQ: pq.Config{M: 4, CB: 1024}, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := testOptions()
	o.NumDPUs = 4
	o.NProbe = 4
	o.WRAMBytes = 12 << 10 // too small for a 16 KB LUT
	e, err := New(ix, dataset.U8Set{}, o)
	if err != nil {
		t.Fatal(err)
	}
	if e.lutInWRAM {
		t.Fatal("LUT should have spilled to MRAM")
	}
	res, err := e.SearchBatch(s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < s.Queries.N; qi++ {
		want := ix.SearchInt(s.Queries.Vec(qi), o.NProbe, o.K)
		for j := range want {
			if res.Items[qi][j] != want[j] {
				t.Fatalf("spill path changed results at query %d", qi)
			}
		}
	}
}

func TestPostponementStillCoversAllWork(t *testing.T) {
	f := getFixture(t)
	o := testOptions()
	o.Th3 = 1.05 // aggressive postponement
	e, err := New(f.ix, dataset.U8Set{}, o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.SearchBatch(f.s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Postponed == 0 {
		t.Skip("no postponement at this configuration")
	}
	for qi := 0; qi < f.s.Queries.N; qi++ {
		want := f.ix.SearchInt(f.s.Queries.Vec(qi), o.NProbe, o.K)
		for j := range want {
			if res.Items[qi][j] != want[j] {
				t.Fatalf("postponement lost work at query %d", qi)
			}
		}
	}
}

// TestCodeBytes: a packed code takes one byte per sub-code when CB <= 256 and
// two otherwise (the paper's Ba/Bp parameters).
func TestCodeBytes(t *testing.T) {
	if got := codeBytesFor(256, 16); got != 16 {
		t.Fatalf("codeBytesFor(256, 16) = %d, want 16", got)
	}
	if got := codeBytesFor(1024, 16); got != 32 {
		t.Fatalf("codeBytesFor(1024, 16) = %d, want 32", got)
	}
}

package core

import (
	"testing"

	"drimann/internal/dataset"
)

func TestEngineDeterministic(t *testing.T) {
	f := getFixture(t)
	run := func() *Result {
		e, err := New(f.ix, f.s.Queries, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.SearchBatch(f.s.Queries)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Metrics.PIMSeconds != b.Metrics.PIMSeconds {
		t.Fatalf("simulated time not deterministic: %v vs %v",
			a.Metrics.PIMSeconds, b.Metrics.PIMSeconds)
	}
	if a.Metrics.LockAcquired != b.Metrics.LockAcquired {
		t.Fatal("lock accounting not deterministic")
	}
	for qi := range a.IDs {
		for j := range a.IDs[qi] {
			if a.IDs[qi][j] != b.IDs[qi][j] {
				t.Fatalf("results not deterministic at query %d", qi)
			}
		}
	}
}

func TestEngineSingleDPU(t *testing.T) {
	// One DPU degenerates to a sequential scan; results must still match
	// and the imbalance must be exactly 1.
	f := getFixture(t)
	o := testOptions()
	o.NumDPUs = 1
	o.CopyFootprint = 0
	o.EnableDup = false
	e, err := New(f.ix, dataset.U8Set{}, o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.SearchBatch(f.s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if im := res.Metrics.AvgImbalance(); im != 1 {
		t.Fatalf("single DPU imbalance = %v, want 1", im)
	}
	for qi := 0; qi < f.s.Queries.N; qi++ {
		want := f.ix.SearchInt(f.s.Queries.Vec(qi), o.NProbe, o.K)
		for j := range want {
			if res.Items[qi][j] != want[j] {
				t.Fatalf("single-DPU result diverges at query %d", qi)
			}
		}
	}
}

func TestEngineLUTReuseWithColocation(t *testing.T) {
	f := getFixture(t)
	e, err := New(f.ix, f.s.Queries, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.SearchBatch(f.s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	builds, reuses := res.Metrics.LUTBuilds, res.Metrics.LUTReuses
	if builds == 0 {
		t.Fatal("no LUT builds recorded")
	}
	// Co-location of same-cluster slices is best-effort; just require the
	// accounting to be self-consistent with the scanned tasks.
	if reuses > builds*uint64(e.opts.NumDPUs) {
		t.Fatalf("implausible reuse accounting: %d reuses vs %d builds", reuses, builds)
	}
}

func TestEngineTransferAccounting(t *testing.T) {
	f := getFixture(t)
	e, err := New(f.ix, dataset.U8Set{}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.SearchBatch(f.s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.XferSeconds <= 0 {
		t.Fatal("host<->PIM transfers must cost time")
	}
	// Transfers must stay far below PIM compute (the paper: negligible).
	if res.Metrics.XferSeconds > res.Metrics.PIMSeconds {
		t.Fatalf("transfer time %v exceeds PIM time %v — not the paper's regime",
			res.Metrics.XferSeconds, res.Metrics.PIMSeconds)
	}
}

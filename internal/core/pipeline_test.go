package core

import (
	"testing"

	"drimann/internal/dataset"
)

// TestPipelineDeterminismMatchesSerial is the determinism guarantee: the
// pipelined, worker-parallel execution path — CL of the next batch on a
// producer goroutine — returns byte-identical results and identical metrics
// (every counter, every modeled second) to a Workers=1 engine handed the
// whole call's probe lists, whose batches run one after another on the
// calling goroutine. The pipeline may only change wall-clock behavior, never
// what is computed.
func TestPipelineDeterminismMatchesSerial(t *testing.T) {
	f := getFixture(t)

	pip := testOptions()
	pip.Workers = 4 // force real concurrency in every stage
	ser := testOptions()
	ser.Workers = 1

	ePip, err := New(f.ix, dataset.U8Set{}, pip)
	if err != nil {
		t.Fatal(err)
	}
	eSer, err := New(f.ix, dataset.U8Set{}, ser)
	if err != nil {
		t.Fatal(err)
	}
	if f.s.Queries.N <= pip.BatchSize {
		t.Fatal("one batch: the CL producer never runs")
	}
	rPip, err := ePip.SearchBatch(f.s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	rSer, err := eSer.SearchBatchProbed(f.s.Queries, eSer.Locator().Probes(f.s.Queries), true)
	if err != nil {
		t.Fatal(err)
	}

	for qi := range rPip.IDs {
		if len(rPip.IDs[qi]) != len(rSer.IDs[qi]) {
			t.Fatalf("query %d: %d ids vs %d serial", qi, len(rPip.IDs[qi]), len(rSer.IDs[qi]))
		}
		for j := range rPip.IDs[qi] {
			if rPip.IDs[qi][j] != rSer.IDs[qi][j] {
				t.Fatalf("query %d id %d: pipelined %d != serial %d",
					qi, j, rPip.IDs[qi][j], rSer.IDs[qi][j])
			}
			if rPip.Items[qi][j] != rSer.Items[qi][j] {
				t.Fatalf("query %d item %d: pipelined %+v != serial %+v",
					qi, j, rPip.Items[qi][j], rSer.Items[qi][j])
			}
		}
	}
	if rPip.Metrics != rSer.Metrics {
		t.Fatalf("metrics diverge:\npipelined: %+v\nserial:    %+v", rPip.Metrics, rSer.Metrics)
	}
	if rPip.Metrics.LUTBuilds == 0 || rPip.Metrics.LockAcquired == 0 || rPip.Metrics.PointsScanned == 0 {
		t.Fatalf("degenerate run: %+v", rPip.Metrics)
	}
}

// TestEngineReuseAcrossSearchBatches: a reused engine keeps its arenas from
// call to call, so it must answer a second, different query set exactly
// although its query ids collide with the previous call's (a gather table
// left over from an earlier launch would hand a query the table of the
// previous call's query with the same id).
func TestEngineReuseAcrossSearchBatches(t *testing.T) {
	f := getFixture(t)
	e, err := New(f.ix, dataset.U8Set{}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Single-query calls are the sharpest collision: every call uses query
	// id 0 for a different vector in the arena's first slot.
	for qi := 0; qi < 4; qi++ {
		one := dataset.U8Set{N: 1, D: f.s.Queries.D,
			Data: f.s.Queries.Vec(qi)}
		res, err := e.SearchBatch(one)
		if err != nil {
			t.Fatal(err)
		}
		want := f.ix.SearchInt(one.Vec(0), e.opts.NProbe, e.opts.K)
		for j := range want {
			if res.Items[0][j] != want[j] {
				t.Fatalf("single-query call %d leaked state: %+v != %+v", qi, res.Items[0][j], want[j])
			}
		}
	}

	if _, err := e.SearchBatch(f.s.Queries); err != nil {
		t.Fatal(err)
	}
	// Second full call: the same queries reversed, so query id i is a
	// different vector than in the first call.
	rev := dataset.U8Set{N: f.s.Queries.N, D: f.s.Queries.D,
		Data: make([]uint8, len(f.s.Queries.Data))}
	for qi := 0; qi < rev.N; qi++ {
		copy(rev.Data[qi*rev.D:(qi+1)*rev.D], f.s.Queries.Vec(rev.N-1-qi))
	}
	res, err := e.SearchBatch(rev)
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < rev.N; qi++ {
		want := f.ix.SearchInt(rev.Vec(qi), e.opts.NProbe, e.opts.K)
		got := res.Items[qi]
		if len(got) != len(want) {
			t.Fatalf("reused engine query %d: %d results, want %d", qi, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("reused engine leaked state at query %d: %+v != %+v", qi, got[j], want[j])
			}
		}
	}
}

// TestPipelinedDrainDeliversPostponedTasks pins the drain path: with an
// aggressive overheat threshold and small batches, the final batch carries
// postponed tasks into extra launches (the Th3-doubling loop), and the
// pipelined path must still deliver every query's exact top-k.
func TestPipelinedDrainDeliversPostponedTasks(t *testing.T) {
	f := getFixture(t)
	o := testOptions()
	o.Th3 = 1.01     // postpone on the slightest overheat
	o.BatchSize = 16 // several batches, so carried work crosses batches
	e, err := New(f.ix, dataset.U8Set{}, o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.SearchBatch(f.s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Postponed == 0 {
		t.Fatal("scenario produced no postponement; tighten Th3")
	}
	if res.Metrics.Launches <= res.Metrics.Batches {
		t.Fatalf("drain should add launches beyond batches: %d launches, %d batches",
			res.Metrics.Launches, res.Metrics.Batches)
	}
	for qi := 0; qi < f.s.Queries.N; qi++ {
		want := f.ix.SearchInt(f.s.Queries.Vec(qi), o.NProbe, o.K)
		got := res.Items[qi]
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, want %d", qi, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("drain lost work at query %d: %+v != %+v", qi, got[j], want[j])
			}
		}
	}
}

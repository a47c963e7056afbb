package graph

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"drimann/internal/dataset"
	"drimann/internal/testutil"
	"drimann/internal/upmem"
)

func testSpec(n, queries int) testutil.FixtureSpec {
	return testutil.FixtureSpec{
		Name: "graph", N: n, D: 24, Queries: queries,
		NumClusters: 24, Seed: 13, Noise: 10,
	}
}

func testOptions() Options {
	o := DefaultOptions()
	o.NumDPUs = 16
	o.K = 10
	o.BatchSize = 32
	return o
}

var shared *Engine
var sharedSynth *dataset.Synth

func getEngine(t *testing.T) (*Engine, *dataset.Synth) {
	t.Helper()
	if shared == nil {
		sharedSynth = testutil.Synth(testSpec(4000, 64))
		e, err := New(sharedSynth.Base, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		shared = e
	}
	return shared, sharedSynth
}

func TestGraphStructure(t *testing.T) {
	e, s := getEngine(t)
	if e.base.N != s.Base.N || e.Dim() != s.Base.D {
		t.Fatalf("size mismatch: %d/%d vs %d/%d", e.base.N, e.Dim(), s.Base.N, s.Base.D)
	}
	deg := e.Options().Degree
	for i := 0; i < e.base.N; i++ {
		nb := e.nbrs[i]
		if len(nb) > deg {
			t.Fatalf("node %d degree %d > bound %d", i, len(nb), deg)
		}
		if i > 0 && len(nb) == 0 {
			t.Fatalf("node %d has no neighbors", i)
		}
		for j, x := range nb {
			if x == int32(i) {
				t.Fatalf("node %d links to itself", i)
			}
			if j > 0 && nb[j-1] >= x {
				t.Fatalf("node %d adjacency not strictly ascending", i)
			}
		}
	}
	if m := e.medoid; m < 0 || int(m) >= e.base.N {
		t.Fatalf("medoid %d out of range", m)
	}
}

func TestBuildDeterminism(t *testing.T) {
	_, s := getEngine(t)
	a, err := New(s.Base, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(s.Base, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.medoid != b.medoid {
		t.Fatalf("medoids differ: %d vs %d", a.medoid, b.medoid)
	}
	if !reflect.DeepEqual(a.nbrs, b.nbrs) {
		t.Fatal("two builds over the same corpus produced different graphs")
	}
}

func TestSearchRecallAndMetrics(t *testing.T) {
	e, s := getEngine(t)
	res, err := e.SearchBatch(s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	gt := dataset.GroundTruth(s.Base, s.Queries, 10, 0)
	if r := dataset.Recall(gt, res.IDs, 10); r < 0.80 {
		t.Fatalf("graph recall@10 = %.3f, want >= 0.80", r)
	}
	m := res.Metrics
	if m.Queries != s.Queries.N {
		t.Fatalf("Queries = %d, want %d", m.Queries, s.Queries.N)
	}
	wantBatches := (s.Queries.N + e.MaxBatch() - 1) / e.MaxBatch()
	if m.Batches != wantBatches || m.Launches != wantBatches {
		t.Fatalf("Batches/Launches = %d/%d, want %d", m.Batches, m.Launches, wantBatches)
	}
	if m.SimSeconds <= 0 || m.PIMSeconds <= 0 || m.XferSeconds <= 0 || m.QPS <= 0 {
		t.Fatalf("degenerate timing: %+v", m)
	}
	if m.PointsScanned == 0 {
		t.Fatal("no distance evaluations recorded")
	}
	// The profile must be random-access-heavy: adjacency fetches in RC,
	// vector fetches in DC, one DMA each.
	if m.PhaseDMACount[upmem.PhaseRC] == 0 || m.PhaseDMACount[upmem.PhaseDC] == 0 {
		t.Fatalf("expected RC and DC DMA traffic, got %v", m.PhaseDMACount)
	}
	if m.PhaseDMACount[upmem.PhaseDC] != m.PointsScanned {
		t.Fatalf("DC DMAs %d != distance evals %d (want one unbuffered fetch per eval)",
			m.PhaseDMACount[upmem.PhaseDC], m.PointsScanned)
	}
	for qi := range res.IDs {
		if len(res.IDs[qi]) != e.K() {
			t.Fatalf("query %d: %d results, want %d", qi, len(res.IDs[qi]), e.K())
		}
		for j := 1; j < len(res.Items[qi]); j++ {
			a, b := res.Items[qi][j-1], res.Items[qi][j]
			if a.Dist > b.Dist || (a.Dist == b.Dist && a.ID >= b.ID) {
				t.Fatalf("query %d: results not in (dist, id) order", qi)
			}
		}
	}
}

func TestSearchDeterminismAndReplica(t *testing.T) {
	e, s := getEngine(t)
	r1, err := e.SearchBatch(s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.SearchBatch(s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("two runs over the same engine differ")
	}
	rep, err := e.withOptions(e.opts)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := rep.SearchBatch(s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r3) {
		t.Fatal("replica results differ from source engine")
	}
}

func TestEmptyAndInvalidBatches(t *testing.T) {
	e, _ := getEngine(t)
	res, err := e.SearchBatch(dataset.U8Set{D: e.Dim()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 0 || res.Metrics.Queries != 0 || res.Metrics.SimSeconds != 0 {
		t.Fatalf("empty batch not empty: %+v", res.Metrics)
	}
	bad := dataset.U8Set{N: 1, D: e.Dim() + 1, Data: make([]uint8, e.Dim()+1)}
	if _, err := e.SearchBatch(bad); err == nil {
		t.Fatal("dimension mismatch not rejected")
	}
}

func TestSmallCorpus(t *testing.T) {
	// Fewer points than K: every point must come back.
	base := dataset.U8Set{N: 5, D: 4, Data: []uint8{
		0, 0, 0, 0, 10, 0, 0, 0, 0, 10, 0, 0, 200, 200, 200, 200, 5, 5, 0, 0,
	}}
	e, err := New(base, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	q := dataset.U8Set{N: 1, D: 4, Data: []uint8{1, 0, 0, 0}}
	res, err := e.SearchBatch(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs[0]) != base.N {
		t.Fatalf("got %d results, want the whole corpus (%d)", len(res.IDs[0]), base.N)
	}
	if res.IDs[0][0] != 0 {
		t.Fatalf("nearest = %d, want 0", res.IDs[0][0])
	}
}

func TestMRAMOverflowRejected(t *testing.T) {
	_, s := getEngine(t)
	o := testOptions()
	o.MRAMBytes = 16 * 1024 // far below corpus size
	if _, err := New(s.Base, o); err == nil {
		t.Fatal("oversized corpus not rejected by MRAM accounting")
	}
}

func TestMemoryFootprintSharing(t *testing.T) {
	e, _ := getEngine(t)
	mf := e.MemoryFootprint()
	if mf.SharedBytes <= 0 || mf.PerReplicaBytes <= 0 {
		t.Fatalf("degenerate footprint: %+v", mf)
	}
	if mf.SharedBytes < int64(e.base.N*e.Dim()) {
		t.Fatalf("shared bytes %d below corpus size", mf.SharedBytes)
	}
}

// TestPruneBound: for each slack and distances from 0 to the 128-d maximum,
// including products of the slack that land on the rounding boundary,
// x <= pruneBound(alpha, d) exactly when robust pruning's predicate
// alpha*float64(x) <= float64(d) holds, on both sides of the bound. A NaN or
// infinite slack satisfies the predicate nowhere.
func TestPruneBound(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const maxD = 128 * 255 * 255
	for _, alpha := range []float64{1, 1.2, 1.5, 2} {
		ds := []uint32{0, 1, maxD}
		for i := 0; i < 200; i++ {
			ds = append(ds, uint32(rng.Intn(maxD)), uint32(math.Round(alpha*float64(rng.Intn(maxD/2)))))
		}
		for _, d := range ds {
			b := pruneBound(alpha, d)
			for x := b - 2; x <= b+2; x++ {
				if x >= 0 && (x <= b) != (alpha*float64(x) <= float64(d)) {
					t.Fatalf("alpha %v d %d: bound %d, but the predicate at %d is %v", alpha, d, b, x, alpha*float64(x) <= float64(d))
				}
			}
		}
	}
	for _, alpha := range []float64{math.NaN(), math.Inf(1)} {
		for _, d := range []uint32{0, 1, maxD} {
			if b := pruneBound(alpha, d); b != -1 {
				t.Fatalf("alpha %v d %d: bound %d, want -1", alpha, d, b)
			}
		}
	}
}

package core

import (
	"reflect"
	"testing"

	"drimann/internal/dataset"
)

// TestSearchBatchProbedEquivalence pins the refactor's core contract: an
// engine handed its own Locator's probes via SearchBatchProbed (with CL
// charged) must be bit-identical to plain SearchBatch — IDs, Items and
// exactly-equal Metrics.
func TestSearchBatchProbedEquivalence(t *testing.T) {
	f := getFixture(t)
	e, err := New(f.ix, f.s.Queries, testOptions()) // with a profile: the price reads the distances
	if err != nil {
		t.Fatal(err)
	}
	plain, err := e.SearchBatch(f.s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	ps := e.Locator().Probes(f.s.Queries)
	if err := ps.Validate(f.s.Queries.N, f.ix.NList); err != nil {
		t.Fatalf("locator probes invalid: %v", err)
	}
	probed, err := e.SearchBatchProbed(f.s.Queries, ps, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.IDs, probed.IDs) {
		t.Fatal("IDs differ")
	}
	if !reflect.DeepEqual(plain.Items, probed.Items) {
		t.Fatal("Items differ")
	}
	if !reflect.DeepEqual(plain.Metrics, probed.Metrics) {
		t.Fatalf("metrics differ:\nplain:  %+v\nprobed: %+v", plain.Metrics, probed.Metrics)
	}
	// A set without the distance column is refused: the scheduler prices
	// every task by its probe's CL distance.
	if _, err := e.SearchBatchProbed(f.s.Queries, ProbeSet{Offsets: ps.Offsets, Clusters: ps.Clusters}, true); err == nil {
		t.Fatal("a probe set without distances was searched")
	}
}

// TestSearchBatchProbedNoCLCharge checks the front-door attribution mode:
// with chargeCL=false the per-shard call carries no CL cost, results stay
// identical, and SimSeconds cannot exceed the charged run's.
func TestSearchBatchProbedNoCLCharge(t *testing.T) {
	f := getFixture(t)
	e, err := New(f.ix, dataset.U8Set{}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := e.SearchBatch(f.s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	ps := e.Locator().Probes(f.s.Queries)
	free, err := e.SearchBatchProbed(f.s.Queries, ps, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.IDs, free.IDs) || !reflect.DeepEqual(plain.Items, free.Items) {
		t.Fatal("results differ with CL charging off")
	}
	if free.Metrics.HostSeconds >= plain.Metrics.HostSeconds {
		t.Fatalf("uncharged host time %v not below charged %v",
			free.Metrics.HostSeconds, plain.Metrics.HostSeconds)
	}
	if free.Metrics.SimSeconds > plain.Metrics.SimSeconds {
		t.Fatalf("uncharged sim time %v exceeds charged %v",
			free.Metrics.SimSeconds, plain.Metrics.SimSeconds)
	}
	if free.Metrics.PIMSeconds != plain.Metrics.PIMSeconds {
		t.Fatalf("PIM time changed: %v vs %v", free.Metrics.PIMSeconds, plain.Metrics.PIMSeconds)
	}
}

func TestProbeSetValidate(t *testing.T) {
	cases := []struct {
		name string
		ps   ProbeSet
		nq   int
		ok   bool
	}{
		{"empty", ProbeSet{Offsets: []int32{0}}, 0, true},
		{"good", ProbeSet{Offsets: []int32{0, 2, 2, 3}, Clusters: []int32{1, 0, 4}, Dists: []uint32{7, 9, 3}}, 3, true},
		{"missing sentinel", ProbeSet{Offsets: []int32{0, 2}, Clusters: []int32{1, 0}}, 2, false},
		{"bad start", ProbeSet{Offsets: []int32{1, 2}, Clusters: []int32{0, 0}}, 1, false},
		{"bad end", ProbeSet{Offsets: []int32{0, 1}, Clusters: []int32{0, 0}}, 1, false},
		{"non-monotone", ProbeSet{Offsets: []int32{0, 2, 1, 3}, Clusters: []int32{0, 0, 0}}, 3, false},
		{"cluster out of range", ProbeSet{Offsets: []int32{0, 1}, Clusters: []int32{5}, Dists: []uint32{1}}, 1, false},
		{"cluster negative", ProbeSet{Offsets: []int32{0, 1}, Clusters: []int32{-1}, Dists: []uint32{1}}, 1, false},
		{"no distances", ProbeSet{Offsets: []int32{0, 2, 2, 3}, Clusters: []int32{1, 0, 4}}, 3, false},
		{"a distance short", ProbeSet{Offsets: []int32{0, 2, 2, 3}, Clusters: []int32{1, 0, 4}, Dists: []uint32{7, 9}}, 3, false},
	}
	for _, c := range cases {
		err := c.ps.Validate(c.nq, 5)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: validation passed, want error", c.name)
		}
	}
}

// TestNewReplicaShares verifies the replica memory contract: read-only
// deployment state is pointer-shared with the source, mutable state is
// private, and results plus metrics stay bit-identical.
func TestNewReplicaShares(t *testing.T) {
	f := getFixture(t)
	src, err := New(f.ix, dataset.U8Set{}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplica(src)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ix != src.ix || rep.pl != src.pl || rep.loc != src.loc || rep.lut != src.lut || rep.lc != src.lc {
		t.Fatal("read-only state not shared")
	}
	if rep.sys == src.sys {
		t.Fatal("simulated system must be private")
	}
	a, err := src.SearchBatch(f.s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rep.SearchBatch(f.s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.IDs, b.IDs) || !reflect.DeepEqual(a.Items, b.Items) {
		t.Fatal("replica results differ from source")
	}
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Fatalf("replica metrics differ:\nsrc: %+v\nrep: %+v", a.Metrics, b.Metrics)
	}

	mf := src.MemoryFootprint()
	if mf.SharedBytes <= 0 || mf.PerReplicaBytes <= 0 {
		t.Fatalf("degenerate footprint %+v", mf)
	}
	// The LUT builder's per-cluster table (NList*M*CB*4 B, usually the
	// largest shared array) and the cached LC demand are part of it.
	lutBytes := int64(f.ix.NList*f.ix.M*f.ix.CB) * 4
	if src.lut.Bytes() != lutBytes || mf.SharedBytes < lutBytes+int64(len(src.pl.Slices))*8 {
		t.Fatalf("shared footprint %d omits the %d-byte LUT builder table", mf.SharedBytes, lutBytes)
	}
}

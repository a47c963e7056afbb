package core

import (
	"slices"
	"testing"

	"drimann/internal/dataset"
	"drimann/internal/durable"
)

// TestPreparedDeployMatchesReference: the profile is located once (Prepare),
// and what was measured on a fresh locate before is measured on those probes.
// The share table New measures on the prefix of the profile's probes — the
// only part of the profile the engine keeps — equals the one a replica
// measures by locating the profile's first batch itself (refShares), at
// deployment and again after Compact re-measures it; ListCycles on the
// prepared probes returns, float for float, the per-list cycles of the
// pipelined search that locates the profile batch by batch (refListCycles).
// Both profiles are longer than a scheduling batch, so the prefix is a proper
// one and the pipelined reference runs its CL producer.
func TestPreparedDeployMatchesReference(t *testing.T) {
	ix, s, base := mutFixture(t)
	opts := testOptions()
	e, err := New(ix, s.Queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Queries.N <= opts.BatchSize || e.lc.cal.N != opts.BatchSize || len(e.lc.calProbes.Offsets) != opts.BatchSize+1 {
		t.Fatalf("profile of %d, batch of %d: the engine keeps %d queries and %d probe lists", s.Queries.N, opts.BatchSize, e.lc.cal.N, len(e.lc.calProbes.Offsets)-1)
	}
	if want := refShares(t, e, s.Queries); e.lc.share != want {
		t.Fatalf("share table %v, measured on a fresh locate %v", e.lc.share, want)
	}
	for id := base; id < base+40; id++ {
		if err := e.Insert(dataset.U8Set{N: 1, D: s.Base.D, Data: s.Base.Vec(id)}, []int32{int32(id)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Delete([]int32{3, 17, int32(base + 7)}); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if want := refShares(t, e, s.Queries); e.lc.share != want {
		t.Fatalf("compacted: share table %v, measured on a fresh locate %v", e.lc.share, want)
	}

	f := getFixture(t)
	if f.s.Queries.N <= opts.BatchSize {
		t.Fatalf("profile of %d queries runs no pipeline at batch %d", f.s.Queries.N, opts.BatchSize)
	}
	for _, shards := range []int{1, 3} {
		ps, lut, err := Prepare(f.ix, f.s.Queries, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ListCycles(f.ix, f.s.Queries, ps, lut, opts, shards)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Max(got) == 0 {
			t.Fatalf("%d shards: no list cost anything", shards)
		}
		if want := refListCycles(t, f.ix, f.s.Queries, opts, shards); !slices.Equal(got, want) {
			t.Fatalf("%d shards: ListCycles on prepared probes %v, pipelined %v", shards, got, want)
		}
	}
}

// TestMalformedProfileIsAnError: a profile whose dimension is not the index's,
// or whose Data is not exactly N x D bytes, is refused where it would be
// located — by New and by a recovery that redeploys with it — instead of
// deploying from vectors read out of shape or past the end of the slice.
func TestMalformedProfileIsAnError(t *testing.T) {
	ix, s, _ := mutFixture(t)
	opts := testOptions()
	e, err := New(ix, s.Queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	fs := durable.NewMemFS(durable.FaultPlan{})
	if _, err := e.CreateStore(durable.Options{Dir: "eng", FS: fs}); err != nil {
		t.Fatal(err)
	}
	q := s.Queries
	for _, tc := range []struct {
		name    string
		profile dataset.U8Set
	}{
		{"wrong D", dataset.U8Set{N: 2 * q.N, D: q.D / 2, Data: q.Data}},
		{"short data", dataset.U8Set{N: q.N, D: q.D, Data: q.Data[:len(q.Data)-5]}},
		{"long data", dataset.U8Set{N: q.N - 1, D: q.D, Data: q.Data}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(ix, tc.profile, opts); err == nil {
				t.Error("New accepted the profile")
			}
			if _, _, err := Prepare(ix, tc.profile, opts); err == nil {
				t.Error("Prepare accepted the profile")
			}
			if _, _, err := Recover(durable.Options{Dir: "eng", FS: fs}, tc.profile, opts); err == nil {
				t.Error("Recover accepted the profile")
			}
		})
	}
}

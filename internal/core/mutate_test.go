package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"drimann/internal/dataset"
	"drimann/internal/ivf"
	"drimann/internal/perfmodel"
	"drimann/internal/pq"
)

// mutFixture builds an index over the head of a corpus and keeps the tail
// as an insert pool (ids are corpus positions, so s.Base.Vec(id) is any
// id's vector).
func mutFixture(t testing.TB) (*ivf.Index, *dataset.Synth, int) {
	t.Helper()
	s := dataset.Generate(dataset.SynthConfig{
		N: 5000, D: 16, NumQueries: 48, NumClusters: 32, Seed: 21, Noise: 10,
	})
	base := 4200
	ix, err := ivf.Build(dataset.U8Set{N: base, D: s.Base.D, Data: s.Base.Data[:base*s.Base.D]},
		ivf.BuildConfig{NList: 48, PQ: pq.Config{M: 8, CB: 64}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return ix, s, base
}

// requireSameResults fails unless two engine results are bit-identical in
// both IDs and scored Items for every query.
func requireSameResults(t *testing.T, got, want *Result, label string) {
	t.Helper()
	if len(got.IDs) != len(want.IDs) {
		t.Fatalf("%s: %d queries vs %d", label, len(got.IDs), len(want.IDs))
	}
	for qi := range want.IDs {
		if !slices.Equal(got.IDs[qi], want.IDs[qi]) {
			t.Fatalf("%s: query %d IDs diverge:\n got %v\nwant %v", label, qi, got.IDs[qi], want.IDs[qi])
		}
		if !slices.Equal(got.Items[qi], want.Items[qi]) {
			t.Fatalf("%s: query %d Items diverge", label, qi)
		}
	}
}

// TestEngineMutateMatchesReference interleaves inserts, deletes and
// compactions on a live engine, and after every burst checks both live
// promises: between compactions the DPU path matches the (mutation-aware)
// single-threaded integer reference for every query, and after the final
// Compact the engine is bit-identical to a freshly deployed engine over the
// rebuilt logical corpus. Runs on the engine and on the per-op reference
// accountant: both replay the same operation sequence, so every burst's
// Metrics must be exactly equal between them — the engine charges LC from
// the cached per-slice demand Insert/Delete/Compact maintain, the reference
// from bitmaps of the live codes — and so must the share table every Compact
// measures again, on a replica that runs its engine's kernel. At every check
// the cached demand must equal a fresh recount.
func TestEngineMutateMatchesReference(t *testing.T) {
	var burstMetrics [2][]Metrics
	var burstShares [2][][ShareBins]float64
	for mode, ref := range []bool{false, true} {
		name := "tally"
		if ref {
			name = "perop"
		}
		t.Run(name, func(t *testing.T) {
			ix, s, base := mutFixture(t)
			opts := testOptions()
			e := newEngine(t, ix, s.Queries, opts, ref)
			rng := rand.New(rand.NewSource(42))
			live := make([]int32, base)
			for i := range live {
				live[i] = int32(i)
			}
			pool := make([]int32, s.Base.N-base)
			for i := range pool {
				pool[i] = int32(base + i)
			}
			checkReference := func() {
				requireFreshDemand(t, e, "live engine")
				res, err := e.SearchBatch(s.Queries)
				if err != nil {
					t.Fatal(err)
				}
				burstMetrics[mode] = append(burstMetrics[mode], res.Metrics)
				burstShares[mode] = append(burstShares[mode], e.lc.share)
				for qi := 0; qi < s.Queries.N; qi++ {
					want := ix.SearchInt(s.Queries.Vec(qi), opts.NProbe, opts.K)
					if !slices.Equal(res.Items[qi], want) {
						t.Fatalf("query %d diverges from int reference under mutation", qi)
					}
				}
			}
			for burst := 0; burst < 6; burst++ {
				for op := 0; op < 60; op++ {
					switch r := rng.Intn(10); {
					case r < 5 && len(pool) > 0:
						i := rng.Intn(len(pool))
						id := pool[i]
						pool = append(pool[:i], pool[i+1:]...)
						one := dataset.U8Set{N: 1, D: s.Base.D, Data: s.Base.Vec(int(id))}
						if err := e.Insert(one, []int32{id}); err != nil {
							t.Fatal(err)
						}
						live = append(live, id)
					case r < 9 && len(live) > 0:
						i := rng.Intn(len(live))
						id := live[i]
						live = append(live[:i], live[i+1:]...)
						if err := e.Delete([]int32{id}); err != nil {
							t.Fatal(err)
						}
						pool = append(pool, id)
					case r == 9:
						if err := e.Compact(); err != nil {
							t.Fatal(err)
						}
					}
				}
				checkReference()
			}
			if err := e.Compact(); err != nil {
				t.Fatal(err)
			}
			burstShares[mode] = append(burstShares[mode], e.lc.share)
			if e.lc.share[ShareBins-1] == perfmodel.BoundedShare(ix.M) {
				t.Fatal("the last Compact measured no share table")
			}
			// Fresh deployment over the same logical corpus: rebuild the index
			// with frozen quantizers and deploy it with the same profile and
			// options. Results must match bit for bit.
			ids := ix.LiveIDs()
			vecs := dataset.U8Set{N: len(ids), D: s.Base.D}
			for _, id := range ids {
				vecs.Data = append(vecs.Data, s.Base.Vec(int(id))...)
			}
			fresh, err := ivf.RebuildFrozen(ix, vecs, ids)
			if err != nil {
				t.Fatal(err)
			}
			fe := newEngine(t, fresh, s.Queries, opts, ref)
			got, err := e.SearchBatch(s.Queries)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fe.SearchBatch(s.Queries)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResults(t, got, want, "post-compact vs fresh engine")
			requireFreshDemand(t, e, "compacted engine")
			if got.Metrics != want.Metrics {
				t.Fatalf("post-compact metrics differ from a fresh engine's:\n got %+v\nwant %+v", got.Metrics, want.Metrics)
			}
		})
	}
	if len(burstMetrics[0]) == 0 || !slices.Equal(burstMetrics[0], burstMetrics[1]) {
		t.Fatalf("tally and per-op metrics diverge under mutation:\ntally: %+v\nperop: %+v", burstMetrics[0], burstMetrics[1])
	}
	if !slices.Equal(burstShares[0], burstShares[1]) {
		t.Fatalf("share tables measured under mutation diverge:\ntally: %v\nperop: %v", burstShares[0], burstShares[1])
	}
}

// emptyCluster deletes the smallest non-empty cluster's points and compacts,
// which leaves it with no placement slices, and returns the cluster and its
// centroid as a vector, which assigns to it (the test is skipped where u8
// rounding moves it elsewhere).
func emptyCluster(t *testing.T, e *Engine) (int, []uint8) {
	t.Helper()
	ix := e.ix
	victim := -1
	for c, list := range ix.Lists {
		if len(list) == 0 {
			continue
		}
		if victim < 0 || len(list) < len(ix.Lists[victim]) {
			victim = c
		}
	}
	if err := e.Delete(slices.Clone(ix.Lists[victim])); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if ix.ListLen(victim) != 0 {
		t.Fatalf("cluster %d still has %d points", victim, ix.ListLen(victim))
	}
	if len(e.pl.ByCluster[victim]) != 0 {
		t.Fatalf("empty cluster %d still has placement slices", victim)
	}
	cu8 := ix.CentroidsU8[victim*ix.Dim : (victim+1)*ix.Dim]
	if got := ix.AssignVec(cu8, ix.NewEncodeScratch()); got != int32(victim) {
		t.Skipf("centroid u8 rounding assigns to %d, not %d", got, victim)
	}
	return victim, cu8
}

// TestEngineEmptyClusterRoundTrip empties a whole cluster, then inserts a
// point that assigns to it: ensureReachable must inject a virtual slice so
// the append segment is scannable, and the point must be findable by
// querying its own vector. Deleting the point takes the slice away again at
// once, before any Compact.
func TestEngineEmptyClusterRoundTrip(t *testing.T) {
	ix, s, _ := mutFixture(t)
	e, err := New(ix, s.Queries, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	victim, cu8 := emptyCluster(t, e)
	slicesBefore := slices.Clone(e.pl.Slices)
	newID := int32(s.Base.N)
	if err := e.Insert(dataset.U8Set{N: 1, D: ix.Dim, Data: cu8}, []int32{newID}); err != nil {
		t.Fatal(err)
	}
	if len(e.pl.ByCluster[victim]) == 0 {
		t.Fatal("insert into empty cluster left it unreachable")
	}
	// The injected zero-count slice carries the append segment's LC demand:
	// one point references exactly M entries.
	requireFreshDemand(t, e, "after insert into emptied cluster")
	for _, r := range e.lc.bySlice[e.pl.ByCluster[victim][0]*ix.M:][:ix.M] {
		if r != (sliceRef{need: 1, runs: 1}) {
			t.Fatalf("virtual slice demand %+v in one subspace, want one entry", r)
		}
	}
	res, err := e.SearchBatch(dataset.U8Set{N: 1, D: ix.Dim, Data: cu8})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(res.IDs[0], newID) {
		t.Fatalf("point inserted into emptied cluster not findable: %v", res.IDs[0])
	}
	// Deleted again, the injected slice goes with its last point: the
	// placement, demand and heat are the ones before the insert, which is
	// what a snapshot of the index deploys.
	if err := e.Delete([]int32{newID}); err != nil {
		t.Fatal(err)
	}
	if len(e.pl.ByCluster[victim]) != 0 {
		t.Fatalf("deleting the only point of cluster %d kept its injected slice", victim)
	}
	if !reflect.DeepEqual(e.pl.Slices, slicesBefore) || len(e.lc.heat) != len(slicesBefore) || len(e.lc.bySlice) != len(slicesBefore)*ix.M {
		t.Fatal("the placement after the delete is not the one before the insert")
	}
	requireFreshDemand(t, e, "after deleting the emptied cluster's only point")
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if len(e.pl.ByCluster[victim]) != 0 {
		t.Fatalf("compaction gave empty cluster %d a slice", victim)
	}
}

// TestNewRejectsMutatedIndex pins the deployment guard: an index carrying
// an uncompacted overlay cannot be deployed (its engine-side derived tables
// would not cover the overlay).
func TestNewRejectsMutatedIndex(t *testing.T) {
	ix, s, base := mutFixture(t)
	if _, err := ix.Insert(int32(base), s.Base.Vec(base)); err != nil {
		t.Fatal(err)
	}
	if _, err := New(ix, s.Queries, testOptions()); err == nil {
		t.Fatal("New must reject a mutated index")
	}
	ix.Compact()
	if _, err := New(ix, s.Queries, testOptions()); err != nil {
		t.Fatalf("New must accept the index once compacted: %v", err)
	}
}

// TestMemoryFootprintTracksOverlay pins live memory accounting: the shared
// footprint grows with the overlay and returns to its original value at
// Compact (same logical corpus, so identical packed bytes).
func TestMemoryFootprintTracksOverlay(t *testing.T) {
	ix, s, base := mutFixture(t)
	e, err := New(ix, s.Queries, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	before := e.MemoryFootprint().SharedBytes
	n := 20
	vecs := dataset.U8Set{N: n, D: s.Base.D, Data: s.Base.Data[base*s.Base.D : (base+n)*s.Base.D]}
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(base + i)
	}
	if err := e.Insert(vecs, ids); err != nil {
		t.Fatal(err)
	}
	requireFreshDemand(t, e, "after inserts")
	if err := e.Delete([]int32{0, 1}); err != nil {
		t.Fatal(err)
	}
	during := e.MemoryFootprint().SharedBytes
	wantDelta := ix.MutationBytes()
	if algDelta := during - before; wantDelta == 0 || algDelta < wantDelta {
		t.Fatalf("footprint delta %d does not cover overlay bytes %d", algDelta, wantDelta)
	}
	// Restore the original logical corpus (drop the inserts, reinstate the
	// deleted base points) — only then must the compacted footprint return
	// exactly to its pre-mutation value.
	// Deleting append-segment points shrinks their slices' demand again.
	for i, id := range ids {
		if err := e.Delete([]int32{id}); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			requireFreshDemand(t, e, "after deleting an appended point")
		}
	}
	requireFreshDemand(t, e, "after deleting every appended point")
	restore := dataset.U8Set{N: 2, D: s.Base.D, Data: s.Base.Data[:2*s.Base.D]}
	if err := e.Insert(restore, []int32{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	after := e.MemoryFootprint().SharedBytes
	if after != before {
		t.Fatalf("footprint after compact %d != before mutation %d", after, before)
	}
}

// TestReplicaSeesMutations pins the shared-state contract: a mutation
// through the source engine is visible to a replica built before it, and
// both answer identically after inserts, deletes and a compaction.
func TestReplicaSeesMutations(t *testing.T) {
	ix, s, base := mutFixture(t)
	e, err := New(ix, s.Queries, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplica(e)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string) {
		a, err := e.SearchBatch(s.Queries)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rep.SearchBatch(s.Queries)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, b, a, label)
		if a.Metrics != b.Metrics {
			t.Fatalf("%s: replica metrics differ:\nsrc: %+v\nrep: %+v", label, a.Metrics, b.Metrics)
		}
		requireFreshDemand(t, rep, label)
	}
	one := dataset.U8Set{N: 1, D: s.Base.D, Data: s.Base.Vec(base)}
	if err := e.Insert(one, []int32{int32(base)}); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete([]int32{3}); err != nil {
		t.Fatal(err)
	}
	check("replica after insert+delete")
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	check("replica after compact")
}

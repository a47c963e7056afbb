package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drimann/internal/cluster"
	"drimann/internal/core"
	"drimann/internal/dataset"
	"drimann/internal/ivf"
	"drimann/internal/pq"
	"drimann/internal/serve"
)

// mutClusterFixture builds the index over the head of the corpus, keeping
// the tail as an insert pool (ids are corpus positions everywhere, so
// s.Base.Vec(id) is any id's vector).
func mutClusterFixture(t testing.TB, n, base, queries int) (*ivf.Index, *dataset.Synth) {
	t.Helper()
	s := dataset.Generate(dataset.SynthConfig{
		Name: "cluster-mut", N: n, D: 64, NumQueries: queries,
		NumClusters: 40, Seed: 7, Noise: 9,
	})
	ix, err := ivf.Build(dataset.U8Set{N: base, D: s.Base.D, Data: s.Base.Data[:base*s.Base.D]},
		ivf.BuildConfig{
			NList: 64, PQ: pq.Config{M: 16, CB: 256},
			KMeansIters: 6, TrainSample: 3000, Seed: 7,
		})
	if err != nil {
		t.Fatal(err)
	}
	return ix, s
}

// freshSingle deploys a frozen-quantizer rebuild over the live logical
// corpus as a single unsharded engine — the bit-identity reference for a
// compacted fleet.
func freshSingle(t *testing.T, ix *ivf.Index, s *dataset.Synth, live []int32, opts core.Options) *core.Result {
	t.Helper()
	ids := slices.Clone(live)
	slices.Sort(ids)
	vecs := dataset.U8Set{N: len(ids), D: s.Base.D}
	for _, id := range ids {
		vecs.Data = append(vecs.Data, s.Base.Vec(int(id))...)
	}
	fresh, err := ivf.RebuildFrozen(ix, vecs, ids)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(fresh, s.Queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.SearchBatch(s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestNewRejectsMutatedIndex: New partitions only the packed lists, so an
// index with a live overlay must be refused (as core.New refuses it) instead
// of deploying with the inserts dropped and the tombstoned points back; once
// compacted, the same index deploys and serves the mutated corpus.
func TestNewRejectsMutatedIndex(t *testing.T) {
	ix, s := mutClusterFixture(t, 5000, 4200, 4)
	if _, err := ix.Insert(4500, s.Base.Vec(4500)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Delete(0); err != nil {
		t.Fatal(err)
	}
	for _, assign := range []cluster.Assignment{cluster.AssignHash, cluster.AssignKMeans} {
		opt := cluster.Options{Shards: 2, Assignment: assign, Engine: engineOpts()}
		if _, err := cluster.New(ix, s.Queries, opt); err == nil {
			t.Fatalf("%s: New deployed an index with uncompacted mutations", assign)
		}
	}
	ix.Compact()
	cl, err := cluster.New(ix, s.Queries, cluster.Options{Shards: 2, Assignment: cluster.AssignKMeans, Engine: engineOpts()})
	if err != nil {
		t.Fatal(err)
	}
	top1 := func(id int) int32 {
		res, err := cl.SearchBatch(dataset.U8Set{N: 1, D: s.Base.D, Data: s.Base.Vec(id)})
		if err != nil {
			t.Fatal(err)
		}
		return res.IDs[0][0]
	}
	if got := top1(4500); got != 4500 {
		t.Fatalf("inserted point 4500 not served after compact+deploy: top-1 %d", got)
	}
	if got := top1(0); got == 0 {
		t.Fatal("deleted point 0 served after compact+deploy")
	}
}

// TestClusterMutateCompactEquivalence is the tentpole acceptance property:
// for S ∈ {1, 2, 7} under both assignment policies, a fleet that lived
// through randomized insert/delete interleavings (including delete-then-
// reinsert of the same id and mid-stream compactions) and then compacted
// answers SearchBatch bit-identically (IDs and Items) to a freshly built
// single engine over the same logical corpus. Between compactions, every
// live inserted point is findable by its own vector and every deleted point
// is absent.
func TestClusterMutateCompactEquivalence(t *testing.T) {
	const n, base = 5000, 4200
	ix, s := mutClusterFixture(t, n, base, 48)
	opts := engineOpts()
	for _, shards := range []int{1, 2, 7} {
		for _, assign := range []cluster.Assignment{cluster.AssignHash, cluster.AssignKMeans} {
			t.Run(fmt.Sprintf("S=%d/%s", shards, assign), func(t *testing.T) {
				cl, err := cluster.New(ix, s.Queries, cluster.Options{
					Shards: shards, Assignment: assign, Engine: opts,
				})
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(shards)*31 + 7))
				live := make([]int32, base)
				for i := range live {
					live[i] = int32(i)
				}
				pool := make([]int32, n-base)
				for i := range pool {
					pool[i] = int32(base + i)
				}
				var inserted, deleted []int32
				for op := 0; op < 220; op++ {
					switch r := rng.Intn(12); {
					case r < 6 && len(pool) > 0:
						i := rng.Intn(len(pool))
						id := pool[i]
						pool = append(pool[:i], pool[i+1:]...)
						one := dataset.U8Set{N: 1, D: s.Base.D, Data: s.Base.Vec(int(id))}
						if err := cl.Insert(one, []int32{id}); err != nil {
							t.Fatal(err)
						}
						live = append(live, id)
						inserted = append(inserted, id)
					case r < 11 && len(live) > 0:
						i := rng.Intn(len(live))
						id := live[i]
						live = append(live[:i], live[i+1:]...)
						if err := cl.Delete([]int32{id}); err != nil {
							t.Fatal(err)
						}
						pool = append(pool, id)
						deleted = append(deleted, id)
					case r == 11:
						if err := cl.Compact(); err != nil {
							t.Fatal(err)
						}
					}
				}
				// Between compactions: membership promises on the live overlay.
				liveSet := make(map[int32]bool, len(live))
				for _, id := range live {
					liveSet[id] = true
				}
				probe := func(id int32) []int32 {
					one := dataset.U8Set{N: 1, D: s.Base.D, Data: s.Base.Vec(int(id))}
					res, err := cl.SearchBatch(one)
					if err != nil {
						t.Fatal(err)
					}
					return res.IDs[0]
				}
				checked := 0
				for _, id := range inserted {
					if !liveSet[id] {
						continue
					}
					if !slices.Contains(probe(id), id) {
						t.Fatalf("live inserted point %d not findable before compact", id)
					}
					if checked++; checked >= 8 {
						break
					}
				}
				checked = 0
				for _, id := range deleted {
					if liveSet[id] {
						continue // reinserted since
					}
					if slices.Contains(probe(id), id) {
						t.Fatalf("deleted point %d still findable", id)
					}
					if checked++; checked >= 8 {
						break
					}
				}
				if err := cl.Compact(); err != nil {
					t.Fatal(err)
				}
				got, err := cl.SearchBatch(s.Queries)
				if err != nil {
					t.Fatal(err)
				}
				want := freshSingle(t, ix, s, live, opts)
				for qi := 0; qi < s.Queries.N; qi++ {
					if !slices.Equal(got.IDs[qi], want.IDs[qi]) {
						t.Fatalf("query %d IDs diverge post-compact:\n fleet  %v\n single %v",
							qi, got.IDs[qi], want.IDs[qi])
					}
					if !slices.Equal(got.Items[qi], want.Items[qi]) {
						t.Fatalf("query %d Items diverge post-compact", qi)
					}
				}
			})
		}
	}
}

// emptyProbedClusters deletes every point of query 0's probed clusters from
// the fleet and compacts, returning the deleted ids. Afterward query 0's
// whole probe set is empty fleet-wide — the zero-fanout case.
func emptyProbedClusters(t *testing.T, cl *cluster.Cluster, ix *ivf.Index, q []uint8) []int32 {
	t.Helper()
	probes := cl.Locator().Probes(dataset.U8Set{N: 1, D: cl.Dim(), Data: q}).Clusters
	var victims []int32
	for _, c := range probes {
		victims = append(victims, ix.Lists[c]...)
	}
	if len(victims) == 0 {
		t.Fatal("fixture: probed clusters already empty")
	}
	if err := cl.Delete(victims); err != nil {
		t.Fatal(err)
	}
	if err := cl.Compact(); err != nil {
		t.Fatal(err)
	}
	return victims
}

// TestZeroFanoutQuery pins the zero-fanout bugfix on both paths: when every
// probed cluster of a query is empty fleet-wide, the offline scatter-gather
// and the routed front door (which contacts zero shards under selective
// routing) both return a result bit-identical to the single engine's empty
// convention — non-nil empty IDs, nil Items.
func TestZeroFanoutQuery(t *testing.T) {
	const n, base = 4000, 4000
	for _, assign := range []cluster.Assignment{cluster.AssignHash, cluster.AssignKMeans} {
		t.Run(string(assign), func(t *testing.T) {
			ix, s := mutClusterFixture(t, n, base, 8)
			opts := engineOpts()
			cl, err := cluster.New(ix, s.Queries, cluster.Options{
				Shards: 3, Assignment: assign, Engine: opts,
			})
			if err != nil {
				t.Fatal(err)
			}
			q := s.Queries.Vec(0)
			victims := emptyProbedClusters(t, cl, ix, q)

			// The single-engine reference over the same (shrunk) corpus.
			live := make([]int32, 0, base-len(victims))
			gone := make(map[int32]bool, len(victims))
			for _, id := range victims {
				gone[id] = true
			}
			for id := int32(0); id < int32(base); id++ {
				if !gone[id] {
					live = append(live, id)
				}
			}
			want := freshSingle(t, ix, s, live, opts)
			if want.IDs[0] == nil || len(want.IDs[0]) != 0 || want.Items[0] != nil {
				t.Fatalf("single engine empty convention changed: IDs=%v Items=%v",
					want.IDs[0], want.Items[0])
			}

			// Offline scatter-gather path.
			one := dataset.U8Set{N: 1, D: cl.Dim(), Data: q}
			got, err := cl.SearchBatch(one)
			if err != nil {
				t.Fatal(err)
			}
			if got.IDs[0] == nil || len(got.IDs[0]) != 0 || got.Items[0] != nil {
				t.Fatalf("offline zero-fanout result not bit-identical to single engine: IDs=%v Items=%v",
					got.IDs[0], got.Items[0])
			}

			// Routed front door: under kmeans the query contacts zero shards.
			srv, err := cluster.NewServer(cl, serve.Options{MaxBatch: 4, MaxWait: 50 * time.Microsecond})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			resp, err := srv.Search(context.Background(), q, 0)
			if err != nil {
				t.Fatal(err)
			}
			if resp.IDs == nil || len(resp.IDs) != 0 || resp.Items != nil {
				t.Fatalf("routed zero-fanout result not bit-identical: IDs=%v Items=%v",
					resp.IDs, resp.Items)
			}
			if assign == cluster.AssignKMeans && resp.ShardsContacted != 0 {
				t.Fatalf("selective zero-fanout query contacted %d shards, want 0", resp.ShardsContacted)
			}
		})
	}
}

// TestOwnerMapFollowsInsert pins the stale-owner-map bugfix: emptying a
// cluster drops it from the owner map, and inserting a point that assigns
// to it must restore the owner entry before the next batch routes — the new
// point is findable through the routed selective-scatter path.
func TestOwnerMapFollowsInsert(t *testing.T) {
	const n, base = 4000, 4000
	ix, s := mutClusterFixture(t, n, base, 8)
	cl, err := cluster.New(ix, s.Queries, cluster.Options{
		Shards: 3, Assignment: cluster.AssignKMeans, Engine: engineOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cluster.NewServer(cl, serve.Options{MaxBatch: 4, MaxWait: 50 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Empty query 0's probed clusters through the live server, so its probe
	// set routes nowhere...
	q := s.Queries.Vec(0)
	probes := cl.Locator().Probes(dataset.U8Set{N: 1, D: cl.Dim(), Data: q}).Clusters
	var victims []int32
	for _, c := range probes {
		if len(cl.OwnerShards(c)) == 0 {
			t.Fatalf("probed cluster %d has no owner before deletion", c)
		}
		victims = append(victims, ix.Lists[c]...)
	}
	if err := srv.Delete(victims); err != nil {
		t.Fatal(err)
	}
	if err := srv.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, c := range probes {
		if len(cl.OwnerShards(c)) != 0 {
			t.Fatalf("emptied cluster %d still has owners", c)
		}
	}
	resp, err := srv.Search(context.Background(), q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ShardsContacted != 0 || len(resp.IDs) != 0 {
		t.Fatalf("query over emptied clusters: contacted=%d IDs=%v", resp.ShardsContacted, resp.IDs)
	}

	// ...then insert the query vector itself as a new point: it assigns to
	// one of the emptied clusters (its nearest centroid), the owner map must
	// pick the shard back up, and the very next selective search finds it.
	newID := int32(n)
	if err := srv.Insert(dataset.U8Set{N: 1, D: cl.Dim(), Data: q}, []int32{newID}); err != nil {
		t.Fatal(err)
	}
	sc := ix.NewEncodeScratch()
	c := ix.AssignVec(q, sc)
	if len(cl.OwnerShards(c)) != 1 {
		t.Fatalf("cluster %d has %d owners after insert, want 1", c, len(cl.OwnerShards(c)))
	}
	resp, err = srv.Search(context.Background(), q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ShardsContacted != 1 {
		t.Fatalf("post-insert query contacted %d shards, want 1", resp.ShardsContacted)
	}
	if !slices.Contains(resp.IDs, newID) {
		t.Fatalf("inserted point %d not findable through selective scatter: %v", newID, resp.IDs)
	}
}

// TestClusterStatsDuringMutations runs a Stats poller against offline
// cluster mutations under -race: the snapshot must never tear (memory
// totals are internally consistent — never mixing pre- and post-compaction
// shard views into a negative or impossible number).
func TestClusterStatsDuringMutations(t *testing.T) {
	const n, base = 4000, 3500
	ix, s := mutClusterFixture(t, n, base, 8)
	cl, err := cluster.New(ix, s.Queries, cluster.Options{
		Shards: 3, Assignment: cluster.AssignKMeans, Engine: engineOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := cl.Stats()
			for si, sh := range st.Shards {
				if sh.SharedBytes <= 0 || sh.PerReplicaBytes < 0 ||
					sh.TotalBytes != sh.SharedBytes+int64(sh.Replicas)*sh.PerReplicaBytes {
					t.Errorf("shard %d memory snapshot torn: %+v", si, sh)
					return
				}
			}
		}
	}()
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 30; round++ {
		ids := make([]int32, 10)
		vecs := dataset.U8Set{N: len(ids), D: s.Base.D}
		for i := range ids {
			ids[i] = int32(base + round*len(ids) + i)
			vecs.Data = append(vecs.Data, s.Base.Vec(int(ids[i]))...)
		}
		if err := cl.Insert(vecs, ids); err != nil {
			t.Fatal(err)
		}
		if err := cl.Delete(ids[:rng.Intn(len(ids))]); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(3) == 0 {
			if err := cl.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestMutateUnderRoutedTraffic races live mutations through the routed
// front door against concurrent search traffic under -race: the fleet-wide
// quiescing must keep every response internally consistent, mutations must
// be visible to batches after their call returns (inserted points findable,
// deleted points absent), and the ledgers must balance after the drain.
func TestMutateUnderRoutedTraffic(t *testing.T) {
	const n, base = 4000, 3600
	ix, s := mutClusterFixture(t, n, base, 16)
	cl, err := cluster.New(ix, s.Queries, cluster.Options{
		Shards: 2, Replicas: 2, Assignment: cluster.AssignKMeans, Engine: engineOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cluster.NewServer(cl, serve.Options{MaxBatch: 8, MaxWait: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var searchers sync.WaitGroup
	var served atomic.Uint64
	for g := 0; g < 4; g++ {
		searchers.Add(1)
		go func(g int) {
			defer searchers.Done()
			rng := rand.New(rand.NewSource(int64(g) * 7919))
			for {
				select {
				case <-stop:
					return
				default:
				}
				qi := rng.Intn(s.Queries.N)
				k := 1 + rng.Intn(cl.K())
				resp, err := srv.Search(context.Background(), s.Queries.Vec(qi), k)
				if err != nil {
					t.Errorf("search: %v", err)
					return
				}
				if len(resp.IDs) > k || len(resp.IDs) != len(resp.Items) {
					t.Errorf("torn response: %d ids, %d items, k=%d", len(resp.IDs), len(resp.Items), k)
					return
				}
				served.Add(1)
			}
		}(g)
	}

	// The mutator: insert a wave, verify findability through the live front
	// door, delete half, verify absence, occasionally compact.
	rng := rand.New(rand.NewSource(3))
	next := int32(base)
	for round := 0; round < 12; round++ {
		ids := make([]int32, 8)
		vecs := dataset.U8Set{N: len(ids), D: s.Base.D}
		for i := range ids {
			ids[i] = next
			next++
			vecs.Data = append(vecs.Data, s.Base.Vec(int(ids[i]))...)
		}
		if err := srv.Insert(vecs, ids); err != nil {
			t.Fatal(err)
		}
		probe := func(id int32) []int32 {
			resp, err := srv.Search(context.Background(), s.Base.Vec(int(id)), 0)
			if err != nil {
				t.Fatalf("probe search: %v", err)
			}
			return resp.IDs
		}
		if id := ids[rng.Intn(len(ids))]; !slices.Contains(probe(id), id) {
			t.Fatalf("round %d: inserted point %d not findable under traffic", round, id)
		}
		dead := ids[:len(ids)/2]
		if err := srv.Delete(dead); err != nil {
			t.Fatal(err)
		}
		if id := dead[rng.Intn(len(dead))]; slices.Contains(probe(id), id) {
			t.Fatalf("round %d: deleted point %d still findable under traffic", round, id)
		}
		if round%4 == 3 {
			if err := srv.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	searchers.Wait()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if served.Load() == 0 {
		t.Fatal("no background traffic was served")
	}
	st := srv.Stats()
	for si, ss := range st.Shards {
		tot := ss.Total()
		if tot.Enqueued != tot.Completed+tot.Canceled+tot.Failed {
			t.Fatalf("shard %d ledger unbalanced after drain: %+v", si, tot)
		}
	}
	// Post-close mutations must refuse, not wedge.
	if err := srv.Compact(); err == nil {
		t.Fatal("Compact after Close must fail")
	}
}

// TestMutatedFleetMatchesEngine: between compactions a mutated fleet answers
// exactly like one engine that lived through the same mutations — offline
// SearchBatch and the routed Server.Search alike, IDs and Items, ties
// included. Two scripts run on both: ids 10…0 deleted and re-inserted one by
// one with point 100's vector (twelve tied points, the re-inserted ids
// arriving in descending order), then random inserts, deletes and
// re-inserts, each re-insert carrying another point's vector so ties recur.
func TestMutatedFleetMatchesEngine(t *testing.T) {
	const n, base = 4600, 4200
	ix, s := mutClusterFixture(t, n, base, 24)
	var img bytes.Buffer
	if err := ix.Save(&img); err != nil {
		t.Fatal(err)
	}
	d := s.Base.D
	queries := dataset.U8Set{N: 1 + s.Queries.N, D: d, Data: append(slices.Clone(s.Base.Vec(100)), s.Queries.Data...)}
	opts := engineOpts()
	for _, shards := range []int{2, 7} {
		for _, assign := range []cluster.Assignment{cluster.AssignHash, cluster.AssignKMeans} {
			t.Run(fmt.Sprintf("S=%d/%s", shards, assign), func(t *testing.T) {
				cl, err := cluster.New(ix, s.Queries, cluster.Options{Shards: shards, Assignment: assign, Engine: opts})
				if err != nil {
					t.Fatal(err)
				}
				own, err := ivf.Load(bytes.NewReader(img.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				eng, err := core.New(own, s.Queries, opts)
				if err != nil {
					t.Fatal(err)
				}
				insert := func(id int32, vec []uint8) {
					t.Helper()
					one := dataset.U8Set{N: 1, D: d, Data: vec}
					if err := cl.Insert(one, []int32{id}); err != nil {
						t.Fatal(err)
					}
					if err := eng.Insert(one, []int32{id}); err != nil {
						t.Fatal(err)
					}
				}
				del := func(id int32) {
					t.Helper()
					if err := cl.Delete([]int32{id}); err != nil {
						t.Fatal(err)
					}
					if err := eng.Delete([]int32{id}); err != nil {
						t.Fatal(err)
					}
				}
				compare := func(what string) {
					t.Helper()
					want, err := eng.SearchBatch(queries)
					if err != nil {
						t.Fatal(err)
					}
					got, err := cl.SearchBatch(queries)
					if err != nil {
						t.Fatal(err)
					}
					for qi := 0; qi < queries.N; qi++ {
						if !slices.Equal(got.IDs[qi], want.IDs[qi]) || !slices.Equal(got.Items[qi], want.Items[qi]) {
							t.Fatalf("%s: offline query %d:\n fleet  %v\n engine %v", what, qi, got.IDs[qi], want.IDs[qi])
						}
					}
					srv, err := cluster.NewServer(cl, serve.Options{MaxBatch: 8, MaxWait: 50 * time.Microsecond})
					if err != nil {
						t.Fatal(err)
					}
					defer srv.Close()
					for qi := 0; qi < queries.N; qi++ {
						resp, err := srv.Search(context.Background(), queries.Vec(qi), 0)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(resp.IDs, want.IDs[qi]) || !slices.Equal(resp.Items, want.Items[qi]) {
							t.Fatalf("%s: online query %d:\n fleet  %v\n engine %v", what, qi, resp.IDs, want.IDs[qi])
						}
					}
				}

				for id := int32(10); id >= 0; id-- {
					del(id)
					insert(id, s.Base.Vec(100))
				}
				compare("ties")

				rng := rand.New(rand.NewSource(int64(shards)*13 + int64(len(assign))))
				live := make([]int32, base)
				for i := range live {
					live[i] = int32(i)
				}
				var gone []int32
				next := int32(base)
				for op := 0; op < 160; op++ {
					switch r := rng.Intn(3); {
					case r == 0 && next < n:
						insert(next, s.Base.Vec(int(next)))
						live, next = append(live, next), next+1
					case r == 1 && len(gone) > 0:
						i := rng.Intn(len(gone))
						id := gone[i]
						gone = append(gone[:i], gone[i+1:]...)
						insert(id, s.Base.Vec(rng.Intn(n)))
						live = append(live, id)
					default:
						i := rng.Intn(len(live))
						id := live[i]
						live = append(live[:i], live[i+1:]...)
						del(id)
						gone = append(gone, id)
					}
				}
				compare("random script")
			})
		}
	}
}

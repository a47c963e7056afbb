package cluster_test

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"drimann/internal/cluster"
	"drimann/internal/core"
	"drimann/internal/dataset"
	"drimann/internal/durable"
	"drimann/internal/ivf"
	"drimann/internal/pq"
)

// durableFixture builds a corpus whose tail `reserve` points are left out
// of the index as a live-insert pool, mirroring the serve-layer fixture.
func durableFixture(t testing.TB, n, queries, reserve int) (*ivf.Index, *dataset.Synth, int) {
	t.Helper()
	s := dataset.Generate(dataset.SynthConfig{
		Name: "cluster-durable", N: n, D: 64, NumQueries: queries,
		NumClusters: 40, Seed: 7, Noise: 9,
	})
	base := n - reserve
	ix, err := ivf.Build(dataset.U8Set{N: base, D: s.Base.D, Data: s.Base.Data[:base*s.Base.D]},
		ivf.BuildConfig{
			NList:       64,
			PQ:          pq.Config{M: 16, CB: 256},
			KMeansIters: 6,
			TrainSample: 3000,
			Seed:        7,
		})
	if err != nil {
		t.Fatal(err)
	}
	return ix, s, base
}

// requireFleetEqual asserts two fleets are bit-identical: search results and
// their simulated metrics, per-shard live ids, points, memory stats, and
// owner maps.
func requireFleetEqual(t *testing.T, got, want *cluster.Cluster, queries dataset.U8Set, what string) {
	t.Helper()
	wr, err := want.SearchBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := got.SearchBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < queries.N; qi++ {
		if !reflect.DeepEqual(gr.IDs[qi], wr.IDs[qi]) || !reflect.DeepEqual(gr.Items[qi], wr.Items[qi]) {
			t.Fatalf("%s: query %d diverges:\n got %v\nwant %v", what, qi, gr.IDs[qi], wr.IDs[qi])
		}
	}
	if gr.Metrics != wr.Metrics {
		t.Fatalf("%s: simulated metrics diverge:\n got %+v\nwant %+v", what, gr.Metrics, wr.Metrics)
	}
	gs, ws := got.Shards(), want.Shards()
	if len(gs) != len(ws) {
		t.Fatalf("%s: %d shards, want %d", what, len(gs), len(ws))
	}
	for s := range gs {
		if !reflect.DeepEqual(gs[s].IVF().Index().LiveIDs(), ws[s].IVF().Index().LiveIDs()) {
			t.Fatalf("%s: shard %d live ids diverge", what, s)
		}
		if gs[s].Points != ws[s].Points {
			t.Fatalf("%s: shard %d points %d, want %d", what, s, gs[s].Points, ws[s].Points)
		}
		if gm, wm := gs[s].IVF().MemoryFootprint(), ws[s].IVF().MemoryFootprint(); gm != wm {
			t.Fatalf("%s: shard %d memory stats diverge: %+v vs %+v", what, s, gm, wm)
		}
	}
	for c := int32(0); int(c) < want.Index().NList; c++ {
		if !reflect.DeepEqual(got.OwnerShards(c), want.OwnerShards(c)) {
			t.Fatalf("%s: owner map diverges at cluster %d: %v vs %v",
				what, c, got.OwnerShards(c), want.OwnerShards(c))
		}
	}
}

// TestClusterRecoverBitIdentical pins the fleet-level recovery contract
// for S ∈ {1, 2, 7} under both assignment policies: a fleet recovered
// from its FleetStore serves bit-identical results, tables, owner maps,
// and memory stats to the live (never-crashed) fleet over the same
// acknowledged mutations — across two crash/recover generations, the
// second from snapshots that carry live overlays.
func TestClusterRecoverBitIdentical(t *testing.T) {
	ix, s, base := durableFixture(t, 4000, 48, 300)
	for _, shards := range []int{1, 2, 7} {
		for _, assign := range []cluster.Assignment{cluster.AssignHash, cluster.AssignKMeans} {
			t.Run(fmt.Sprintf("S=%d/%s", shards, assign), func(t *testing.T) {
				copt := cluster.Options{Shards: shards, Assignment: assign, Engine: engineOpts()}
				cl, err := cluster.New(ix, s.Queries, copt)
				if err != nil {
					t.Fatal(err)
				}
				fs := durable.NewMemFS(durable.FaultPlan{})
				fst, err := cluster.CreateFleetStore(cl, durable.Options{Dir: "fleet", FS: fs})
				if err != nil {
					t.Fatal(err)
				}

				// Mutations: multi-point batches (per-shard sub-batch
				// logging), deletes of base and fresh points, an
				// insert-then-delete pair (owner rows outlive the point),
				// and a mid-stream Compact (checkpoint rotation).
				insert := func(cl *cluster.Cluster, lo, n int) {
					t.Helper()
					ids := make([]int32, n)
					for i := range ids {
						ids[i] = int32(lo + i)
					}
					vecs := dataset.U8Set{N: n, D: s.Base.D, Data: s.Base.Data[lo*s.Base.D : (lo+n)*s.Base.D]}
					if err := cl.Insert(vecs, ids); err != nil {
						t.Fatal(err)
					}
				}
				for lo := base; lo < base+40; lo += 5 {
					insert(cl, lo, 5)
				}
				if err := cl.Delete([]int32{7, 501, int32(base + 3)}); err != nil {
					t.Fatal(err)
				}
				if err := cl.Compact(); err != nil {
					t.Fatal(err)
				}
				insert(cl, base+60, 5)
				if err := cl.Delete([]int32{int32(base + 62), 9}); err != nil {
					t.Fatal(err)
				}

				// Kill: close the live store, recover a second fleet.
				if err := fst.Close(); err != nil {
					t.Fatal(err)
				}
				rcl, rfst, err := cluster.RecoverCluster(durable.Options{Dir: "fleet", FS: fs}, s.Queries, copt)
				if err != nil {
					t.Fatal(err)
				}
				requireFleetEqual(t, rcl, cl, s.Queries, "gen 1")

				// Generation 2: mutate the recovered fleet (its rotated
				// snapshot carries the replayed overlay), kill, recover.
				insert(rcl, base+100, 5)
				if err := rcl.Delete([]int32{int32(base + 101), 23}); err != nil {
					t.Fatal(err)
				}
				if err := rfst.Close(); err != nil {
					t.Fatal(err)
				}
				rcl2, _, err := cluster.RecoverCluster(durable.Options{Dir: "fleet", FS: fs}, s.Queries, copt)
				if err != nil {
					t.Fatal(err)
				}
				requireFleetEqual(t, rcl2, rcl, s.Queries, "gen 2")
			})
		}
	}
}

// TestClusterRecoverEmptiedCluster: a fleet that empties a cluster and
// compacts, inserts one point at the cluster's centroid, deletes it and
// checkpoints recovers to the fleet that never crashed — answers, simulated
// metrics, memory stats and owner rows — under both assignment policies. The
// shard that took the point routes no query to the cluster once it is gone,
// as the recovered shard, which never saw the point, does not.
func TestClusterRecoverEmptiedCluster(t *testing.T) {
	ix, s, _ := durableFixture(t, 4000, 48, 300)
	victim := -1
	for c, list := range ix.Lists {
		if len(list) > 0 && (victim < 0 || len(list) < len(ix.Lists[victim])) {
			victim = c
		}
	}
	cu8 := ix.CentroidsU8[victim*ix.Dim : (victim+1)*ix.Dim]
	if got := ix.AssignVec(cu8, ix.NewEncodeScratch()); got != int32(victim) {
		t.Skipf("centroid u8 rounding assigns to %d, not %d", got, victim)
	}
	queries := dataset.U8Set{N: s.Queries.N + 1, D: ix.Dim, Data: append(slices.Clone(s.Queries.Data), cu8...)}
	for _, assign := range []cluster.Assignment{cluster.AssignHash, cluster.AssignKMeans} {
		t.Run(string(assign), func(t *testing.T) {
			copt := cluster.Options{Shards: 2, Assignment: assign, Engine: engineOpts()}
			cl, err := cluster.New(ix, s.Queries, copt)
			if err != nil {
				t.Fatal(err)
			}
			fs := durable.NewMemFS(durable.FaultPlan{})
			fst, err := cluster.CreateFleetStore(cl, durable.Options{Dir: "fleet", FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.Delete(slices.Clone(ix.Lists[victim])); err != nil {
				t.Fatal(err)
			}
			if err := cl.Compact(); err != nil {
				t.Fatal(err)
			}
			id := int32(s.Base.N)
			if err := cl.Insert(dataset.U8Set{N: 1, D: ix.Dim, Data: cu8}, []int32{id}); err != nil {
				t.Fatal(err)
			}
			if len(cl.OwnerShards(int32(victim))) != 1 {
				t.Fatalf("cluster %d owned by shards %v after one insert", victim, cl.OwnerShards(int32(victim)))
			}
			if err := cl.Delete([]int32{id}); err != nil {
				t.Fatal(err)
			}
			if err := cl.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := fst.Close(); err != nil {
				t.Fatal(err)
			}
			rcl, rfst, err := cluster.RecoverCluster(durable.Options{Dir: "fleet", FS: fs}, s.Queries, copt)
			if err != nil {
				t.Fatal(err)
			}
			defer rfst.Close()
			requireFleetEqual(t, rcl, cl, queries, "recovered fleet")
		})
	}
}

// TestClusterRecoverRejectsMismatchedOptions pins the sidecar guard:
// recovering with a different shard count or assignment policy than the
// store was partitioned with must fail loudly, never silently re-route.
func TestClusterRecoverRejectsMismatchedOptions(t *testing.T) {
	ix, s, _ := durableFixture(t, 2000, 8, 100)
	copt := cluster.Options{Shards: 2, Assignment: cluster.AssignKMeans, Engine: engineOpts()}
	cl, err := cluster.New(ix, s.Queries, copt)
	if err != nil {
		t.Fatal(err)
	}
	fs := durable.NewMemFS(durable.FaultPlan{})
	if _, err := cluster.CreateFleetStore(cl, durable.Options{Dir: "fleet", FS: fs}); err != nil {
		t.Fatal(err)
	}
	bad := copt
	bad.Shards = 3
	if _, _, err := cluster.RecoverCluster(durable.Options{Dir: "fleet", FS: fs}, s.Queries, bad); err == nil {
		t.Fatal("shard-count mismatch must fail recovery")
	}
	bad = copt
	bad.Assignment = cluster.AssignHash
	if _, _, err := cluster.RecoverCluster(durable.Options{Dir: "fleet", FS: fs}, s.Queries, bad); err == nil {
		t.Fatal("assignment mismatch must fail recovery")
	}
}

// countingFS is a MemFS that counts the files it opens for writing and the
// closes of those files, and refuses to open any file under failDir.
type countingFS struct {
	*durable.MemFS
	failDir        string
	opened, closed int
}

type countedFile struct {
	durable.File
	fs *countingFS
}

func (f countedFile) Close() error {
	f.fs.closed++
	return f.File.Close()
}

func (fs *countingFS) open(name string, open func(string) (durable.File, error)) (durable.File, error) {
	if fs.failDir != "" && strings.Contains(name, fs.failDir) {
		return nil, fmt.Errorf("open %s: injected failure", name)
	}
	f, err := open(name)
	if err != nil {
		return nil, err
	}
	fs.opened++
	return countedFile{File: f, fs: fs}, nil
}

func (fs *countingFS) Create(name string) (durable.File, error) {
	return fs.open(name, fs.MemFS.Create)
}

func (fs *countingFS) OpenAppend(name string) (durable.File, error) {
	return fs.open(name, fs.MemFS.OpenAppend)
}

// TestFleetStoreFailureClosesShardStores: when a later shard's store cannot
// be created (CreateFleetStore) or rotated (RecoverCluster), the stores of
// the shards before it are closed, not left holding an open WAL.
func TestFleetStoreFailureClosesShardStores(t *testing.T) {
	ix, s, _ := durableFixture(t, 2000, 8, 100)
	copt := cluster.Options{Shards: 3, Assignment: cluster.AssignKMeans, Engine: engineOpts()}
	cl, err := cluster.New(ix, s.Queries, copt)
	if err != nil {
		t.Fatal(err)
	}
	fs := &countingFS{MemFS: durable.NewMemFS(durable.FaultPlan{}), failDir: "shard-001"}
	if _, err := cluster.CreateFleetStore(cl, durable.Options{Dir: "bad", FS: fs}); err == nil {
		t.Fatal("CreateFleetStore succeeded with shard 1's directory refusing files")
	}
	if fs.opened == 0 || fs.opened != fs.closed {
		t.Fatalf("failed CreateFleetStore opened %d files and closed %d", fs.opened, fs.closed)
	}

	fs.failDir = ""
	fst, err := cluster.CreateFleetStore(cl, durable.Options{Dir: "fleet", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}
	fs.failDir, fs.opened, fs.closed = "shard-001", 0, 0
	if _, _, err := cluster.RecoverCluster(durable.Options{Dir: "fleet", FS: fs}, s.Queries, copt); err == nil {
		t.Fatal("RecoverCluster succeeded with shard 1's directory refusing files")
	}
	if fs.opened == 0 || fs.opened != fs.closed {
		t.Fatalf("failed RecoverCluster opened %d files and closed %d", fs.opened, fs.closed)
	}
}

// matrixOp is one single-point step of the crash-matrix workload.
// Single-point mutations touch exactly one shard, so "acknowledged"
// has no cross-shard partial case: the op is durable or it is not.
type matrixOp struct {
	kind string // "ins", "del", "compact"
	id   int32
}

func applyMatrixOp(cl *cluster.Cluster, s *dataset.Synth, op matrixOp) error {
	switch op.kind {
	case "ins":
		one := dataset.U8Set{N: 1, D: s.Base.D, Data: s.Base.Vec(int(op.id))}
		return cl.Insert(one, []int32{op.id})
	case "del":
		return cl.Delete([]int32{op.id})
	default:
		return cl.Compact()
	}
}

// corpusSet returns the fleet's live global-id set, shard by shard.
func corpusSet(cl *cluster.Cluster) map[int32]bool {
	out := make(map[int32]bool)
	for _, sh := range cl.Shards() {
		for _, id := range sh.IVF().Index().LiveIDs() {
			out[id] = true
		}
	}
	return out
}

// TestClusterRecoverCrashMatrix kills the fleet at every mutating
// filesystem operation of a fixed workload (torn final write included)
// and recovers: the recovered corpus must be exactly the acknowledged
// state or the acknowledged state plus the one in-flight mutation —
// never a torn hybrid — and the recovered fleet must serve bit-identical
// results to a never-crashed reference over that same op prefix — even
// when a crash inside the Compact rotation leaves some shards recovered
// from the compacted snapshot and others replaying their pre-compact
// overlay.
func TestClusterRecoverCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix is slow")
	}
	s := dataset.Generate(dataset.SynthConfig{
		Name: "cluster-crash", N: 1600, D: 32, NumQueries: 16,
		NumClusters: 16, Seed: 5, Noise: 9,
	})
	base := 1500
	ix, err := ivf.Build(dataset.U8Set{N: base, D: s.Base.D, Data: s.Base.Data[:base*s.Base.D]},
		ivf.BuildConfig{
			NList:       24,
			PQ:          pq.Config{M: 8, CB: 64},
			KMeansIters: 4,
			TrainSample: 1000,
			Seed:        3,
		})
	if err != nil {
		t.Fatal(err)
	}
	eopt := core.DefaultOptions()
	eopt.NumDPUs = 8
	eopt.NProbe = 6
	eopt.K = 10
	copt := cluster.Options{Shards: 2, Assignment: cluster.AssignKMeans, Engine: eopt}

	workload := []matrixOp{
		{kind: "ins", id: int32(base)},
		{kind: "ins", id: int32(base + 1)},
		{kind: "del", id: 12},
		{kind: "ins", id: int32(base + 2)},
		{kind: "del", id: int32(base + 1)},
		{kind: "compact"},
		{kind: "ins", id: int32(base + 3)},
		{kind: "del", id: 40},
	}

	// run builds a fresh durable fleet on fs, applies the workload until
	// a crash interrupts it, and reports how many ops were acknowledged
	// plus which op (if any) was in flight.
	run := func(fs *durable.MemFS) (acked int, inflight bool, err error) {
		cl, err := cluster.New(ix, s.Queries, copt)
		if err != nil {
			return 0, false, err
		}
		if _, err := cluster.CreateFleetStore(cl, durable.Options{
			Dir: "fleet", Policy: durable.SyncEveryBatch, FS: fs,
		}); err != nil {
			return 0, false, err
		}
		for _, op := range workload {
			if err := applyMatrixOp(cl, s, op); err != nil {
				if errors.Is(err, durable.ErrCrashed) || errors.Is(err, durable.ErrInjectedSync) {
					return acked, true, nil
				}
				return 0, false, err
			}
			acked++
		}
		return acked, false, nil
	}

	// Dry run: count the setup ops (crashing inside creation just means
	// no store exists — covered by the store-level matrix) and the total.
	dry := durable.NewMemFS(durable.FaultPlan{})
	probe, err := cluster.New(ix, s.Queries, copt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.CreateFleetStore(probe, durable.Options{
		Dir: "fleet", Policy: durable.SyncEveryBatch, FS: dry,
	}); err != nil {
		t.Fatal(err)
	}
	setupOps := dry.Ops()
	for _, op := range workload {
		if err := applyMatrixOp(probe, s, op); err != nil {
			t.Fatal(err)
		}
	}
	totalOps := dry.Ops()

	// Reference states: refSets[k] is the corpus after k acknowledged
	// ops; refAt(k) a never-crashed fleet with the first k ops applied.
	refSets := make([]map[int32]bool, len(workload)+1)
	{
		rcl, err := cluster.New(ix, s.Queries, copt)
		if err != nil {
			t.Fatal(err)
		}
		refSets[0] = corpusSet(rcl)
		for k, op := range workload {
			if err := applyMatrixOp(rcl, s, op); err != nil {
				t.Fatal(err)
			}
			refSets[k+1] = corpusSet(rcl)
		}
	}
	refAt := func(k int) *cluster.Cluster {
		rcl, err := cluster.New(ix, s.Queries, copt)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range workload[:k] {
			if err := applyMatrixOp(rcl, s, op); err != nil {
				t.Fatal(err)
			}
		}
		return rcl
	}

	for crashAt := setupOps + 1; crashAt <= totalOps; crashAt++ {
		fs := durable.NewMemFS(durable.FaultPlan{CrashAtOp: crashAt, TornWrite: true})
		acked, inflight, err := run(fs)
		if err != nil {
			t.Fatalf("crash@%d: workload: %v", crashAt, err)
		}
		fs.Reboot()
		rcl, _, err := cluster.RecoverCluster(durable.Options{
			Dir: "fleet", Policy: durable.SyncEveryBatch, FS: fs,
		}, s.Queries, copt)
		if err != nil {
			t.Fatalf("crash@%d: recover: %v", crashAt, err)
		}
		got := corpusSet(rcl)
		matched := -1
		for _, k := range []int{acked, acked + 1} {
			if inflight || k == acked {
				if k <= len(workload) && reflect.DeepEqual(got, refSets[k]) {
					matched = k
					break
				}
			}
		}
		if matched < 0 {
			t.Fatalf("crash@%d: recovered corpus (%d ids) is neither state %d nor %d — torn hybrid",
				crashAt, len(got), acked, acked+1)
		}
		ref := refAt(matched)
		want, err := ref.SearchBatch(s.Queries)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rcl.SearchBatch(s.Queries)
		if err != nil {
			t.Fatalf("crash@%d: recovered search: %v", crashAt, err)
		}
		for qi := 0; qi < s.Queries.N; qi++ {
			if !reflect.DeepEqual(res.IDs[qi], want.IDs[qi]) || !reflect.DeepEqual(res.Items[qi], want.Items[qi]) {
				t.Fatalf("crash@%d: query %d diverges from reference over op prefix %d",
					crashAt, qi, matched)
			}
		}
	}
}

// TestRecoveredFleetHoldsOneDeployState: a recovered fleet, like one New
// deploys, locates its profile once and builds one LUT term table, which
// every replica of every shard reads — and still serves exactly what the
// live fleet serves, for S ∈ {1, 2, 7} under both assignment policies.
func TestRecoveredFleetHoldsOneDeployState(t *testing.T) {
	ix, s, base := durableFixture(t, 4000, 48, 300)
	for _, shards := range []int{1, 2, 7} {
		for _, assign := range []cluster.Assignment{cluster.AssignHash, cluster.AssignKMeans} {
			t.Run(fmt.Sprintf("S=%d/%s", shards, assign), func(t *testing.T) {
				copt := cluster.Options{Shards: shards, Replicas: 2, Assignment: assign, Engine: engineOpts()}
				cl, err := cluster.New(ix, s.Queries, copt)
				if err != nil {
					t.Fatal(err)
				}
				fs := durable.NewMemFS(durable.FaultPlan{})
				fst, err := cluster.CreateFleetStore(cl, durable.Options{Dir: "fleet", FS: fs})
				if err != nil {
					t.Fatal(err)
				}
				ids := []int32{int32(base), int32(base + 1), int32(base + 2)}
				if err := cl.Insert(dataset.U8Set{N: 3, D: s.Base.D, Data: s.Base.Data[base*s.Base.D : (base+3)*s.Base.D]}, ids); err != nil {
					t.Fatal(err)
				}
				if err := cl.Delete([]int32{5, int32(base + 1)}); err != nil {
					t.Fatal(err)
				}
				if err := fst.Close(); err != nil {
					t.Fatal(err)
				}
				rcl, rfst, err := cluster.RecoverCluster(durable.Options{Dir: "fleet", FS: fs}, s.Queries, copt)
				if err != nil {
					t.Fatal(err)
				}
				defer rfst.Close()
				lut := cluster.LUTOf(rcl.Shards()[0].Engine)
				if lut == nil {
					t.Fatal("recovered shard 0 reads no LUT term table")
				}
				for si, sh := range rcl.Shards() {
					if len(sh.Engines) != 2 {
						t.Fatalf("shard %d: %d replicas, want 2", si, len(sh.Engines))
					}
					for r, eng := range sh.Engines {
						if cluster.LUTOf(eng) != lut {
							t.Fatalf("shard %d replica %d reads a LUT term table of its own", si, r)
						}
					}
				}
				requireFleetEqual(t, rcl, cl, s.Queries, "recovered fleet")
			})
		}
	}
}

// TestRecoverRefusesMixedQuantizers: a fleet directory whose shards were cut
// from indexes with different quantizers — here two builds of one corpus,
// equal in every shape, with different seeds, one shard's store swapped in
// from the other fleet — is refused with ErrMixedQuantizers, and the failed
// recovery leaves no file open. Sharing one located profile and one LUT term
// table is only sound for shards that share the quantizer.
func TestRecoverRefusesMixedQuantizers(t *testing.T) {
	ix7, s, base := durableFixture(t, 2000, 8, 100)
	ix8, err := ivf.Build(dataset.U8Set{N: base, D: s.Base.D, Data: s.Base.Data[:base*s.Base.D]},
		ivf.BuildConfig{NList: 64, PQ: pq.Config{M: 16, CB: 256}, KMeansIters: 6, TrainSample: 3000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	copt := cluster.Options{Shards: 2, Assignment: cluster.AssignHash, Engine: engineOpts()}
	fs := &countingFS{MemFS: durable.NewMemFS(durable.FaultPlan{})}
	var swapped durable.Manifest
	for _, f := range []struct {
		ix  *ivf.Index
		dir string
	}{{ix7, "fleet"}, {ix8, "other"}} {
		cl, err := cluster.New(f.ix, s.Queries, copt)
		if err != nil {
			t.Fatal(err)
		}
		fst, err := cluster.CreateFleetStore(cl, durable.Options{Dir: f.dir, FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		swapped = fst.Shard(1).Manifest()
		if err := fst.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{durable.ManifestName, swapped.Snapshot, swapped.WAL} {
		data, err := fs.ReadFile("other/shard-001/" + name)
		if err != nil {
			t.Fatal(err)
		}
		w, err := fs.Create("fleet/shard-001/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	fs.opened, fs.closed = 0, 0
	_, _, err = cluster.RecoverCluster(durable.Options{Dir: "fleet", FS: fs}, s.Queries, copt)
	if !errors.Is(err, cluster.ErrMixedQuantizers) {
		t.Fatalf("recovering a fleet with shard 1 swapped in from another build: %v, want ErrMixedQuantizers", err)
	}
	if fs.opened != fs.closed {
		t.Fatalf("failed RecoverCluster opened %d files and closed %d", fs.opened, fs.closed)
	}
}

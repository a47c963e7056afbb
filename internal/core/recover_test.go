package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"drimann/internal/dataset"
	"drimann/internal/durable"
	"drimann/internal/ivf"
)

// TestEngineRecoverBitIdentical pins the engine-level recovery
// contract across two crash/recover generations: a restart from
// {snapshot, WAL} serves bit-identical results and reports identical
// memory stats to the never-crashed engine over the same acknowledged
// mutations. The second generation recovers from a snapshot that
// itself carries a live overlay (written by the post-replay
// checkpoint), exercising AdoptOverlay. Every mutation goes through the
// engine's own Insert and Delete, which log to the attached store.
func TestEngineRecoverBitIdentical(t *testing.T) {
	for _, ref := range []bool{false, true} {
		name := "tally"
		if ref {
			name = "perop"
		}
		t.Run(name, func(t *testing.T) {
			ix, s, base := mutFixture(t)
			opts := testOptions()
			live := newEngine(t, ix, s.Queries, opts, ref)
			fs := durable.NewMemFS(durable.FaultPlan{})
			if _, err := live.CreateStore(durable.Options{Dir: "eng", FS: fs}); err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(99))
			mutate := func(e *Engine, lo, hi int) {
				t.Helper()
				// Insert pool ids [lo, hi), then delete a few of each kind.
				for id := lo; id < hi; id++ {
					if err := e.Insert(dataset.U8Set{N: 1, D: s.Base.D, Data: s.Base.Vec(id)}, []int32{int32(id)}); err != nil {
						t.Fatal(err)
					}
				}
				for _, id := range []int{rng.Intn(base), lo + rng.Intn(hi-lo)} { // base tombstone, append removal
					if err := e.Delete([]int32{int32(id)}); err != nil {
						t.Fatal(err)
					}
				}
			}
			mutate(live, base, base+40)

			for gen := 0; gen < 2; gen++ {
				// Crash: drop the live engine, recover from the store.
				recovered, _, err := Recover(durable.Options{Dir: "eng", FS: fs}, s.Queries, opts)
				if err != nil {
					t.Fatalf("gen %d: %v", gen, err)
				}
				if ref {
					reference(recovered)
				}
				want, err := live.SearchBatch(s.Queries)
				if err != nil {
					t.Fatal(err)
				}
				got, err := recovered.SearchBatch(s.Queries)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResults(t, got, want, "recovered engine")
				// The simulated cost too: a recovered overlay must reach the
				// cached LC demand and scheduler heat (AdoptOverlay recounts).
				requireFreshDemand(t, recovered, "recovered engine")
				if got.Metrics != want.Metrics {
					t.Fatalf("gen %d: recovered metrics diverge:\n got %+v\nwant %+v", gen, got.Metrics, want.Metrics)
				}
				if gm, wm := recovered.MemoryFootprint(), live.MemoryFootprint(); gm != wm {
					t.Fatalf("gen %d: memory stats diverge: %+v vs %+v", gen, gm, wm)
				}
				live = recovered
				// Next generation's mutations land on a store whose
				// snapshot already carries the replayed overlay.
				mutate(live, base+100+gen*50, base+130+gen*50)
			}
		})
	}
}

// TestEngineRecoverEmptiedCluster: a point inserted into a cluster whose base
// list is empty and deleted again leaves nothing a snapshot could miss. The
// engine empties a cluster and compacts, inserts one point at the cluster's
// centroid, deletes it and checkpoints; the engine recovered from that
// checkpoint serves the same answers, the same simulated metrics and the same
// memory stats as the one that never crashed.
func TestEngineRecoverEmptiedCluster(t *testing.T) {
	ix, s, _ := mutFixture(t)
	opts := testOptions()
	live, err := New(ix, s.Queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	fs := durable.NewMemFS(durable.FaultPlan{})
	if _, err := live.CreateStore(durable.Options{Dir: "eng", FS: fs}); err != nil {
		t.Fatal(err)
	}
	_, cu8 := emptyCluster(t, live)
	id := int32(s.Base.N)
	if err := live.Insert(dataset.U8Set{N: 1, D: ix.Dim, Data: cu8}, []int32{id}); err != nil {
		t.Fatal(err)
	}
	if err := live.Delete([]int32{id}); err != nil {
		t.Fatal(err)
	}
	if err := live.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	recovered, _, err := Recover(durable.Options{Dir: "eng", FS: fs}, s.Queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	queries := dataset.U8Set{N: s.Queries.N + 1, D: ix.Dim, Data: append(slices.Clone(s.Queries.Data), cu8...)}
	want, err := live.SearchBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := recovered.SearchBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, got, want, "recovered engine")
	if got.Metrics != want.Metrics {
		t.Fatalf("recovered metrics diverge:\n got %+v\nwant %+v", got.Metrics, want.Metrics)
	}
	if gm, wm := recovered.MemoryFootprint(), live.MemoryFootprint(); gm != wm {
		t.Fatalf("memory stats diverge: %+v vs %+v", gm, wm)
	}
}

// engOp is one single-record step of the engine crash-matrix workload:
// an insert or delete (applied then logged, one WAL record each), a
// compact (engine fold + checkpoint rotation), or a bare checkpoint
// rotation.
type engOp struct {
	kind string // "ins", "del", "compact", "checkpoint"
	id   int32
}

// TestEngineRecoverCrashMatrix kills the filesystem at every mutating
// operation of a fixed durable workload — torn final write included —
// then recovers. The recovered corpus must be exactly the acknowledged
// state or the acknowledged state plus the one in-flight mutation,
// never a torn hybrid, and the recovered engine must serve bit-identical
// results (and memory stats) to a never-crashed reference engine that
// applied the same op prefix.
func TestEngineRecoverCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix is slow")
	}
	ix, s, base := mutFixture(t)
	opts := testOptions()
	// Engine mutations write through to the index, so every run needs a
	// fresh copy; reload from serialized bytes instead of re-building.
	var img bytes.Buffer
	if err := ix.Save(&img); err != nil {
		t.Fatal(err)
	}
	freshIx := func() *ivf.Index {
		fx, err := ivf.Load(bytes.NewReader(img.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return fx
	}

	workload := []engOp{
		{kind: "ins", id: int32(base)},
		{kind: "ins", id: int32(base + 1)},
		{kind: "del", id: 12},
		{kind: "checkpoint"},
		{kind: "ins", id: int32(base + 2)},
		{kind: "del", id: int32(base + 1)},
		{kind: "compact"},
		{kind: "ins", id: int32(base + 3)},
		{kind: "del", id: 40},
	}
	// step runs op through the engine's own mutation path: logged when a
	// store is attached, and a checkpoint is state-neutral without one.
	step := func(e *Engine, op engOp) error {
		switch op.kind {
		case "ins":
			return e.Insert(dataset.U8Set{N: 1, D: s.Base.D, Data: s.Base.Vec(int(op.id))}, []int32{op.id})
		case "del":
			return e.Delete([]int32{op.id})
		case "compact":
			return e.Compact()
		default:
			return e.Checkpoint()
		}
	}
	// refAt builds the never-crashed reference with the first k ops
	// applied.
	refAt := func(k int) *Engine {
		e, err := New(freshIx(), s.Queries, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range workload[:k] {
			if err := step(e, op); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}

	// liveSets[k] is the corpus after the first k ops — one reference
	// walk instead of an engine build per candidate state.
	liveSets := make([][]int32, len(workload)+1)
	{
		walk := refAt(0)
		liveSets[0] = walk.Index().LiveIDs()
		for k, op := range workload {
			if err := step(walk, op); err != nil {
				t.Fatal(err)
			}
			liveSets[k+1] = walk.Index().LiveIDs()
		}
	}

	// Dry run to count setup ops and the total.
	dry := durable.NewMemFS(durable.FaultPlan{})
	{
		e, err := New(freshIx(), s.Queries, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.CreateStore(durable.Options{Dir: "eng", Policy: durable.SyncEveryBatch, FS: dry}); err != nil {
			t.Fatal(err)
		}
		setup := dry.Ops()
		for _, op := range workload {
			if err := step(e, op); err != nil {
				t.Fatal(err)
			}
		}
		total := dry.Ops()

		for crashAt := setup + 1; crashAt <= total; crashAt++ {
			fs := durable.NewMemFS(durable.FaultPlan{CrashAtOp: crashAt, TornWrite: true})
			run, err := New(freshIx(), s.Queries, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := run.CreateStore(durable.Options{Dir: "eng", Policy: durable.SyncEveryBatch, FS: fs}); err != nil {
				t.Fatal(err)
			}
			acked := 0
			for _, op := range workload {
				if err := step(run, op); err != nil {
					if !errors.Is(err, durable.ErrCrashed) {
						t.Fatalf("crash@%d: op %d: %v", crashAt, acked, err)
					}
					break
				}
				acked++
			}
			fs.Reboot()
			recovered, _, err := Recover(durable.Options{Dir: "eng", Policy: durable.SyncEveryBatch, FS: fs}, s.Queries, opts)
			if err != nil {
				t.Fatalf("crash@%d: recover: %v", crashAt, err)
			}
			got := recovered.Index().LiveIDs()
			matched := -1
			for _, k := range []int{acked, acked + 1} {
				if k > len(workload) {
					continue
				}
				if slices.Equal(got, liveSets[k]) {
					matched = k
					break
				}
			}
			if matched < 0 {
				t.Fatalf("crash@%d: recovered corpus is neither state %d nor %d — torn hybrid", crashAt, acked, acked+1)
			}
			ref := refAt(matched)
			want, err := ref.SearchBatch(s.Queries)
			if err != nil {
				t.Fatal(err)
			}
			res, err := recovered.SearchBatch(s.Queries)
			if err != nil {
				t.Fatalf("crash@%d: recovered search: %v", crashAt, err)
			}
			requireSameResults(t, res, want, fmt.Sprintf("crash@%d (prefix %d)", crashAt, matched))
			if gm, wm := recovered.MemoryFootprint(), ref.MemoryFootprint(); gm != wm {
				t.Fatalf("crash@%d: memory stats diverge: %+v vs %+v", crashAt, gm, wm)
			}
		}
	}
}

// TestEngineRecoverEmptyWAL recovers straight from a checkpoint with no
// logged mutations.
func TestEngineRecoverEmptyWAL(t *testing.T) {
	ix, s, _ := mutFixture(t)
	opts := testOptions()
	eng, err := New(ix, s.Queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	fs := durable.NewMemFS(durable.FaultPlan{})
	if _, err := eng.CreateStore(durable.Options{Dir: "eng", FS: fs}); err != nil {
		t.Fatal(err)
	}
	recovered, _, err := Recover(durable.Options{Dir: "eng", FS: fs}, s.Queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.SearchBatch(s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := recovered.SearchBatch(s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, got, want, "clean recovery")
}

// TestEngineDurablePartialBatchLogsPrefix pins the applied-prefix
// contract on the engine's own mutation path: an insert batch that fails
// mid-way (duplicate id) and a delete batch that does (absent id) log
// exactly the points they applied, so a recovered engine matches the live
// engine's post-error state.
func TestEngineDurablePartialBatchLogsPrefix(t *testing.T) {
	ix, s, base := mutFixture(t)
	opts := testOptions()
	e, err := New(ix, s.Queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	fs := durable.NewMemFS(durable.FaultPlan{})
	if _, err := e.CreateStore(durable.Options{Dir: "eng", Policy: durable.SyncEveryBatch, FS: fs}); err != nil {
		t.Fatal(err)
	}
	// ids[2] duplicates a base id: points 0 and 1 apply, the batch errors.
	ids := []int32{int32(base), int32(base + 1), 7, int32(base + 3)}
	vecs := dataset.U8Set{N: 4, D: s.Base.D, Data: s.Base.Data[base*s.Base.D : (base+4)*s.Base.D]}
	if err := e.Insert(vecs, ids); err == nil {
		t.Fatal("duplicate id must fail the insert batch")
	}
	// base+3 was never inserted: 11 is deleted, the batch errors.
	if err := e.Delete([]int32{11, int32(base + 3), int32(base)}); err == nil {
		t.Fatal("absent id must fail the delete batch")
	}
	recovered, _, err := Recover(durable.Options{Dir: "eng", FS: fs}, s.Queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	for id, live := range map[int32]bool{int32(base): true, int32(base + 1): true, int32(base + 3): false, 11: false, 7: true} {
		if _, ok := recovered.Index().WhereIs(id); ok != live {
			t.Fatalf("id %d live after recovery: %v, want %v", id, ok, live)
		}
	}
	want, err := e.SearchBatch(s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := recovered.SearchBatch(s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, got, want, "recovered after partial batches")
}

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

// durableHarness pairs an engine with a store the way serve.Server
// does: every mutation is applied, then logged, then synced before it
// counts as acknowledged.
type durableHarness struct {
	t   *testing.T
	e   *Engine
	st  *durable.Store
	dim int
}

func (h *durableHarness) insert(vecs dataset.U8Set, ids []int32) {
	h.t.Helper()
	if err := h.e.Insert(vecs, ids); err != nil {
		h.t.Fatal(err)
	}
	rec, err := durable.EncodeInsert(ids, h.dim, vecs.Data[:vecs.N*vecs.D])
	if err != nil {
		h.t.Fatal(err)
	}
	if err := h.st.Append(rec); err != nil {
		h.t.Fatal(err)
	}
	if err := h.st.BatchEnd(); err != nil {
		h.t.Fatal(err)
	}
}

func (h *durableHarness) delete(ids []int32) {
	h.t.Helper()
	if err := h.e.Delete(ids); err != nil {
		h.t.Fatal(err)
	}
	if err := h.st.Append(durable.EncodeDelete(ids)); err != nil {
		h.t.Fatal(err)
	}
	if err := h.st.BatchEnd(); err != nil {
		h.t.Fatal(err)
	}
}

// TestEngineRecoverBitIdentical pins the engine-level recovery
// contract across two crash/recover generations: a restart from
// {snapshot, WAL} serves bit-identical results and reports identical
// memory stats to the never-crashed engine over the same acknowledged
// mutations. The second generation recovers from a snapshot that
// itself carries a live overlay (written by the post-replay
// checkpoint), exercising AdoptOverlay.
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
			st, err := live.CreateStore(durable.Options{Dir: "eng", FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			h := &durableHarness{t: t, e: live, st: st, dim: s.Base.D}

			rng := rand.New(rand.NewSource(99))
			mutate := func(h *durableHarness, lo, hi int) {
				// Insert pool ids [lo, hi), then delete a few of each kind.
				for id := lo; id < hi; id++ {
					h.insert(dataset.U8Set{N: 1, D: s.Base.D, Data: s.Base.Vec(id)}, []int32{int32(id)})
				}
				h.delete([]int32{int32(rng.Intn(base))})       // base tombstone
				h.delete([]int32{int32(lo + rng.Intn(hi-lo))}) // append removal
			}
			mutate(h, base, base+40)

			for gen := 0; gen < 2; gen++ {
				// Crash: drop the live engine, recover from the store.
				recovered, rst, err := Recover(durable.Options{Dir: "eng", FS: fs}, s.Queries, opts)
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
				live, st = recovered, rst
				h = &durableHarness{t: t, e: live, st: st, dim: s.Base.D}
				// Next generation's mutations land on a store whose
				// snapshot already carries the replayed overlay.
				mutate(h, base+100+gen*50, base+130+gen*50)
			}
		})
	}
}

// engOp is one single-record step of the engine crash-matrix workload:
// an insert or delete (applied then logged, one WAL record each), a
// compact (engine fold + checkpoint rotation, as serve.Compact does),
// or a bare checkpoint rotation (serve.Checkpoint).
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
	apply := func(e *Engine, st *durable.Store, op engOp) error {
		switch op.kind {
		case "ins":
			one := dataset.U8Set{N: 1, D: s.Base.D, Data: s.Base.Vec(int(op.id))}
			if err := e.Insert(one, []int32{op.id}); err != nil {
				return err
			}
			rec, err := durable.EncodeInsert([]int32{op.id}, s.Base.D, one.Data)
			if err != nil {
				return err
			}
			if err := st.Append(rec); err != nil {
				return err
			}
			return st.BatchEnd()
		case "del":
			if err := e.Delete([]int32{op.id}); err != nil {
				return err
			}
			if err := st.Append(durable.EncodeDelete([]int32{op.id})); err != nil {
				return err
			}
			return st.BatchEnd()
		case "compact":
			if err := e.Compact(); err != nil {
				return err
			}
			return st.Checkpoint(e.Snapshot)
		default:
			return st.Checkpoint(e.Snapshot)
		}
	}
	// refAt builds the never-crashed reference with the first k ops
	// applied (checkpoints are state-neutral).
	refAt := func(k int) *Engine {
		e, err := New(freshIx(), s.Queries, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range workload[:k] {
			switch op.kind {
			case "ins":
				one := dataset.U8Set{N: 1, D: s.Base.D, Data: s.Base.Vec(int(op.id))}
				if err := e.Insert(one, []int32{op.id}); err != nil {
					t.Fatal(err)
				}
			case "del":
				if err := e.Delete([]int32{op.id}); err != nil {
					t.Fatal(err)
				}
			case "compact":
				if err := e.Compact(); err != nil {
					t.Fatal(err)
				}
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
			switch op.kind {
			case "ins":
				one := dataset.U8Set{N: 1, D: s.Base.D, Data: s.Base.Vec(int(op.id))}
				if err := walk.Insert(one, []int32{op.id}); err != nil {
					t.Fatal(err)
				}
			case "del":
				if err := walk.Delete([]int32{op.id}); err != nil {
					t.Fatal(err)
				}
			case "compact":
				if err := walk.Compact(); err != nil {
					t.Fatal(err)
				}
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
		st, err := e.CreateStore(durable.Options{Dir: "eng", Policy: durable.SyncEveryRecord, FS: dry})
		if err != nil {
			t.Fatal(err)
		}
		setup := dry.Ops()
		for _, op := range workload {
			if err := apply(e, st, op); err != nil {
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
			rst, err := run.CreateStore(durable.Options{Dir: "eng", Policy: durable.SyncEveryRecord, FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			acked := 0
			for _, op := range workload {
				if err := apply(run, rst, op); err != nil {
					if !errors.Is(err, durable.ErrCrashed) {
						t.Fatalf("crash@%d: op %d: %v", crashAt, acked, err)
					}
					break
				}
				acked++
			}
			fs.Reboot()
			recovered, _, err := Recover(durable.Options{Dir: "eng", Policy: durable.SyncEveryRecord, FS: fs}, s.Queries, opts)
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

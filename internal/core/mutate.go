// Live mutability on the engine: Insert/Delete maintain the index's
// append-segment/tombstone overlay (ivf/mutable.go) together with the
// engine-side state derived from cluster contents — the cached LC demand and
// scheduler heat of the slice carrying the append segment (lcdemand.go) and
// the placement's reachability of previously-empty clusters — and Compact
// folds everything back into the
// packed layout, re-running the layout optimizer with the inputs New
// resolved so the result is bit-identical to a freshly deployed engine over
// the same logical corpus.
//
// Mutations are NOT safe concurrently with SearchBatch or with each other;
// the serving layers serialize them at launch boundaries (serve.Server
// executes them on the batcher goroutine between launches). Replica engines
// share ix/pl/lc with their source, so a mutation through any one
// engine is visible to all — which is also why every replica's batcher must
// be quiesced first.

package core

import (
	"fmt"
	"slices"

	"drimann/internal/dataset"
	"drimann/internal/durable"
	"drimann/internal/layout"
)

// Insert adds vecs[i] under ids[i]: each point is assigned to its nearest
// centroid (bit-identically to index build), PQ-encoded with the frozen
// codebooks, and appended to that cluster's segment, immediately visible to
// the next launch. Ids must be non-negative and not currently live (delete
// first to replace). Insert stops at the first point that fails; with a
// store attached, the points applied before it are logged before Insert
// returns, so a nil return means every point is durable.
func (e *Engine) Insert(vecs dataset.U8Set, ids []int32) error {
	if vecs.N != len(ids) {
		return fmt.Errorf("core: %d vectors for %d ids", vecs.N, len(ids))
	}
	if err := vecs.Check(e.ix.Dim); err != nil {
		return fmt.Errorf("core: insert: %w", err)
	}
	n := 0
	var err error
	for ; n < vecs.N; n++ {
		var c int32
		if c, err = e.ix.Insert(ids[n], vecs.Vec(n)); err != nil {
			break
		}
		e.ensureReachable(c)
		e.recountCluster(c)
	}
	return e.log(durable.Mutation{Op: durable.OpInsert, IDs: ids[:n], Dim: vecs.D, Vecs: vecs.Data[:n*vecs.D]}, err)
}

// Delete removes ids from the logical corpus: base-list points are
// tombstoned (filtered by the TS accept pass until Compact), append-segment
// points are removed outright. It stops and logs like Insert.
func (e *Engine) Delete(ids []int32) error {
	n := 0
	var err error
	for ; n < len(ids); n++ {
		var c int32
		var pos int
		if c, pos, err = e.ix.Delete(ids[n]); err != nil {
			break
		}
		if pos < 0 {
			continue // tombstoned base points are still scanned, and marked
		}
		e.dropReachable(c)
		e.recountCluster(c)
	}
	return e.log(durable.Mutation{Op: durable.OpDelete, IDs: ids[:n]}, err)
}

// ensureReachable gives cluster c a placement slice when the build-time
// layout skipped it (empty base list produces no slices): the scheduler
// expands probe requests through Placement.ByCluster, so without one a
// probed cluster generates no task and its append segment would be silently
// unscannable. The injected slice covers zero base points (the append
// segment rides on any Start==0 slice) and is placed on the least-loaded
// DPU. It leaves with its append segment's last point (dropReachable), so
// the placement is always the one a snapshot of the index redeploys.
func (e *Engine) ensureReachable(c int32) {
	pl := e.pl
	if len(pl.ByCluster[c]) > 0 {
		return
	}
	d := 0
	for i := 1; i < pl.NumDPUs; i++ {
		if pl.DPUBytes[i] < pl.DPUBytes[d] {
			d = i
		}
	}
	id := len(pl.Slices)
	pl.Slices = append(pl.Slices, layout.Slice{ID: id, Cluster: c, Start: 0, Count: 0, DPUs: []int{d}})
	pl.ByCluster[c] = append(pl.ByCluster[c], id)
	// Room for the new slice's demand and heat; every caller recounts the
	// cluster next.
	e.lc.bySlice = append(e.lc.bySlice, make([]sliceRef, e.ix.M)...)
	e.lc.heat = append(e.lc.heat, 0)
}

// dropReachable removes the slice ensureReachable gave cluster c, with its
// demand and heat, once c holds no point. Injected slices are the placement's
// tail, each its cluster's only one, so those after it move down one place.
func (e *Engine) dropReachable(c int32) {
	pl := e.pl
	if len(e.ix.Lists[c]) > 0 || e.ix.AppendLen(int(c)) > 0 {
		return
	}
	id, m := pl.ByCluster[c][0], e.ix.M
	pl.ByCluster[c] = nil
	pl.Slices = slices.Delete(pl.Slices, id, id+1)
	for i := id; i < len(pl.Slices); i++ {
		pl.Slices[i].ID = i
		pl.ByCluster[pl.Slices[i].Cluster][0] = i
	}
	e.lc.bySlice = slices.Delete(e.lc.bySlice, id*m, (id+1)*m)
	e.lc.heat = slices.Delete(e.lc.heat, id, id+1)
}

// Compact folds append segments and tombstones back into the packed
// inverted lists and re-optimizes the data layout over the post-fold
// cluster sizes with the exact heat profile and configuration New resolved.
// From the next launch on, results are bit-identical to a freshly built
// engine over the same logical corpus. (The simulated MRAM image still
// reflects the deployment-time allocation — compaction is modeled as a
// host-side reorganization, and per-launch costs derive from the placement
// and scans, not from the allocation bookkeeping.) With a store attached,
// the compacted engine becomes its new checkpoint and the WAL restarts
// empty.
func (e *Engine) Compact() error {
	if err := e.Fold(); err != nil {
		return err
	}
	return e.Checkpoint()
}

// Fold is Compact without the checkpoint: a fleet folds its shards side by
// side, then checkpoints them in shard order (one filesystem op order).
func (e *Engine) Fold() error {
	ix := e.ix
	if len(ix.Compact()) == 0 {
		return nil
	}
	sizes := make([]int, ix.NList)
	for c := range sizes {
		sizes[c] = ix.ListLen(c)
	}
	pl, err := e.optimize(sizes)
	if err != nil {
		return fmt.Errorf("core: post-compaction layout: %w", err)
	}
	if err := pl.Validate(sizes); err != nil {
		return fmt.Errorf("core: post-compaction layout invariants: %w", err)
	}
	// In-place assignment: replicas share the Placement pointer, so the new
	// layout (like the rebuilt lists) is visible to every engine at once.
	*e.pl = *pl
	// The share table is measured again here, not after the caller lets
	// searches back in: lanes read it without a lock, and a launch priced
	// with the old table would schedule differently from a fresh engine's.
	e.rebuildDemand()
	return nil
}

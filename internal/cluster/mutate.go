// Live mutability across the fleet: Insert places each new point on a shard
// through the same assignment the build used (the retained cluster→shard map
// under AssignKMeans, the point-ID hash under AssignHash), Delete routes by
// the fleet's id→shard map, and Compact folds every shard's overlay back into
// its packed lists. Every shard indexes its points under their global ids, so
// a mutated fleet answers exactly like one engine that lived through the same
// mutations — between compactions as well as after them — and a compacted
// fleet like a freshly built one over the same logical corpus.
//
// The owner map is copy-on-write (see Cluster), which is what lets the routed
// server keep serving concurrently — provided every shard engine is quiesced
// around the actual engine mutation, which cluster.Server does at batch
// boundaries.

package cluster

import (
	"fmt"
	"slices"
	"sync"

	"drimann/internal/dataset"
	"drimann/internal/durable"
)

// ensureShardOf lazily builds the fleet's id→shard map (O(N) once) and the
// front-door encode scratch. Callers hold cl.mu.
func (cl *Cluster) ensureShardOf() {
	if cl.shardOf != nil {
		return
	}
	n := 0
	for _, sh := range cl.shards {
		n += sh.Points
	}
	cl.shardOf = make(map[int32]int32, n)
	for s, sh := range cl.shards {
		for _, id := range sh.Engine.Index().LiveIDs() {
			cl.shardOf[id] = int32(s)
		}
	}
	cl.esc = cl.ix.NewEncodeScratch()
}

// applyInsert adds one point to shard s under global id g — the single
// per-point insert step, shared by the live path and WAL replay so the two
// cannot drift: the shard becomes an owner of the cluster the engine placed
// the point in. Callers hold cl.mu (or are the only goroutine) and have run
// ensureShardOf.
func (cl *Cluster) applyInsert(s int, g int32, vec []uint8) error {
	sh := cl.shards[s]
	if err := sh.Engine.Insert(dataset.U8Set{N: 1, D: len(vec), Data: vec}, []int32{g}); err != nil {
		return err
	}
	sh.Points++
	cl.shardOf[g] = int32(s)
	c, ok := sh.Engine.Index().WhereIs(g)
	if !ok {
		return fmt.Errorf("lost inserted id %d", g)
	}
	if i, found := slices.BinarySearch(sh.owned, c); !found {
		sh.owned = slices.Insert(sh.owned, i, c)
		cl.deriveOwners()
	}
	return nil
}

// applyDelete removes global id g from shard s — the single per-point
// delete step of the live path and WAL replay. The shard stays an owner of
// the point's cluster until Compact (routing to a shard whose list became
// all-tombstones is harmless, just not minimal).
func (cl *Cluster) applyDelete(s int, g int32) error {
	if err := cl.shards[s].Engine.Delete([]int32{g}); err != nil {
		return err
	}
	delete(cl.shardOf, g)
	cl.shards[s].Points--
	return nil
}

// Insert adds vecs[i] under global ids[i]. Under AssignKMeans each point
// lands on the shard owning its nearest centroid's cluster (even a cluster
// that owned no points at build time); under AssignHash on the shard its ID
// hashes to — both exactly where a fresh build over the grown corpus would
// place it. The owner map is updated before returning, so the very next
// batch routes to the new point. With a fleet store attached, each shard's
// applied sub-batch is WAL-logged before the call returns; a logging failure
// is reported even when every point applied ("applied but not durable" — the
// mutation is live in memory but not acknowledged). Not safe concurrently
// with searches on the shard engines; the routed cluster.Server serializes
// this at batch boundaries.
func (cl *Cluster) Insert(vecs dataset.U8Set, ids []int32) error {
	if vecs.N != len(ids) {
		return fmt.Errorf("cluster: %d vectors for %d ids", vecs.N, len(ids))
	}
	if vecs.N > 0 && vecs.D != cl.ix.Dim {
		return fmt.Errorf("cluster: insert dim %d, index dim %d", vecs.D, cl.ix.Dim)
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.ensureShardOf()
	// pend[s] accumulates shard s's applied sub-batch — the WAL record a
	// durable fleet writes once the batch finishes (or fails part-way: the
	// applied prefix is still logged, so the WAL always reproduces
	// acknowledged engine state).
	pend := make([]durable.Mutation, len(cl.shards))
	var applyErr error
	for i := 0; i < vecs.N; i++ {
		id := ids[i]
		if id < 0 {
			applyErr = fmt.Errorf("cluster: insert id %d negative", id)
			break
		}
		if s, ok := cl.shardOf[id]; ok {
			applyErr = fmt.Errorf("cluster: id %d already present on shard %d (delete it first)", id, s)
			break
		}
		var s int
		if cl.shardOfCluster != nil {
			s = int(cl.shardOfCluster[cl.ix.AssignVec(vecs.Vec(i), cl.esc)])
		} else {
			s = int(splitmix64(uint64(id)) % uint64(len(cl.shards)))
		}
		if err := cl.applyInsert(s, id, vecs.Vec(i)); err != nil {
			applyErr = fmt.Errorf("cluster: shard %d: %w", s, err)
			break
		}
		m := &pend[s]
		m.Op, m.Dim = durable.OpInsert, vecs.D
		m.IDs = append(m.IDs, id)
		m.Vecs = append(m.Vecs, vecs.Vec(i)...)
	}
	if err := cl.logBatch(pend); err != nil {
		return fmt.Errorf("cluster: insert applied but not durable: %w", err)
	}
	return applyErr
}

// Delete removes global ids from the fleet, routing each to the shard that
// holds it. With a fleet store attached the applied sub-batches are
// WAL-logged under the same applied-prefix contract as Insert.
func (cl *Cluster) Delete(ids []int32) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.ensureShardOf()
	pend := make([]durable.Mutation, len(cl.shards))
	var applyErr error
	for _, id := range ids {
		s, ok := cl.shardOf[id]
		if !ok {
			applyErr = fmt.Errorf("cluster: id %d not present", id)
			break
		}
		if err := cl.applyDelete(int(s), id); err != nil {
			applyErr = fmt.Errorf("cluster: shard %d: %w", s, err)
			break
		}
		pend[s].Op = durable.OpDelete
		pend[s].IDs = append(pend[s].IDs, id)
	}
	if err := cl.logBatch(pend); err != nil {
		return fmt.Errorf("cluster: delete applied but not durable: %w", err)
	}
	return applyErr
}

// Compact folds every shard's append segments and tombstones into its
// packed layout — from the next batch on, the fleet is bit-identical to a
// freshly built one over the same logical corpus — and rebuilds the owner map
// exactly. Shards share nothing a compaction writes, so they compact — and
// re-measure their share tables — side by side; the lowest failing shard's
// error is returned.
func (cl *Cluster) Compact() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	errs := make([]error, len(cl.shards))
	var wg sync.WaitGroup
	for s, sh := range cl.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[s] = sh.Engine.Compact()
		}()
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return fmt.Errorf("cluster: shard %d compact: %w", s, err)
		}
	}
	cl.ownPackedLists()
	if cl.fstore != nil {
		// Compact is the durable rotation point: every shard's packed
		// state becomes the new checkpoint and its WAL restarts empty.
		return cl.checkpointShards()
	}
	return nil
}

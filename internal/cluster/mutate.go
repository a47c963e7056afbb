// Live mutability across the fleet: Insert places each new point on a shard
// through the same assignment the build used (the retained cluster→shard map
// under AssignKMeans, the point-ID hash under AssignHash), Delete routes by
// the global→local table, and Compact renumbers every shard's local ID space
// back to the dense monotone layout a fresh partitioning would produce, so
// post-compaction results are bit-identical to a freshly built fleet over
// the same logical corpus.
//
// Between compactions the layer promises findability, not bit-identity: an
// inserted point's shard-local id is appended to the end of the ID table, so
// the table can lose monotonicity until Compact restores it. The owner map
// and the per-shard tables are copy-on-write (see Cluster/Shard), which is
// what lets the routed server keep serving concurrently — provided every
// shard engine is quiesced around the actual engine mutation, which
// cluster.Server does at batch boundaries.

package cluster

import (
	"fmt"
	"slices"
	"sync"

	"drimann/internal/dataset"
	"drimann/internal/durable"
)

// ensureG2L lazily builds the per-shard global→local maps (O(N) once) and
// the front-door encode scratch. Callers hold cl.mu.
func (cl *Cluster) ensureG2L() {
	if cl.g2l != nil {
		return
	}
	cl.g2l = make([]map[int32]int32, len(cl.shards))
	for s, sh := range cl.shards {
		tbl := sh.GlobalIDs()
		m := make(map[int32]int32, len(tbl))
		for local, g := range tbl {
			m[g] = int32(local)
		}
		cl.g2l[s] = m
	}
	cl.esc = cl.ix.NewEncodeScratch()
}

// findShard returns the shard owning live global id, or -1. Callers hold
// cl.mu and have run ensureG2L.
func (cl *Cluster) findShard(id int32) int {
	for s := range cl.g2l {
		if _, ok := cl.g2l[s][id]; ok {
			return s
		}
	}
	return -1
}

// applyInsert adds one point to shard s under global id g — the single
// per-point insert step, shared by the live path and WAL replay so the two
// cannot drift: the point takes the next shard-local id (the table's
// length), the table grows copy-on-write, and the shard becomes an owner of
// the cluster the engine placed the point in. Callers hold cl.mu (or are the
// only goroutine) and have g2l built.
func (cl *Cluster) applyInsert(s int, g int32, vec []uint8) error {
	sh := cl.shards[s]
	tbl := sh.GlobalIDs()
	local := int32(len(tbl))
	if err := sh.Engine.Insert(dataset.U8Set{N: 1, D: len(vec), Data: vec}, []int32{local}); err != nil {
		return err
	}
	sh.setTable(append(slices.Clip(tbl), g)) // Clip: readers keep the old table
	sh.Points++
	cl.g2l[s][g] = local
	c, ok := sh.Engine.Index().WhereIs(local)
	if !ok {
		return fmt.Errorf("lost inserted local id %d", local)
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
	local, ok := cl.g2l[s][g]
	if !ok {
		return fmt.Errorf("id %d not present", g)
	}
	if err := cl.shards[s].Engine.Delete([]int32{local}); err != nil {
		return err
	}
	delete(cl.g2l[s], g)
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
	cl.ensureG2L()
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
		if s := cl.findShard(id); s >= 0 {
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
	cl.ensureG2L()
	pend := make([]durable.Mutation, len(cl.shards))
	var applyErr error
	for _, id := range ids {
		s := cl.findShard(id)
		if s < 0 {
			applyErr = fmt.Errorf("cluster: id %d not present", id)
			break
		}
		if err := cl.applyDelete(s, id); err != nil {
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
// packed layout and renumbers shard-local IDs into the dense ascending
// order of the surviving global IDs — restoring the strictly-increasing
// remap tables that make merged results bit-identical to a freshly built
// fleet (and to a single engine) over the same logical corpus. The owner
// map is rebuilt exactly. Shards share nothing a compaction writes, so they
// compact — and re-measure their share tables — side by side; the tables of
// those that succeeded are installed after the last has finished, and the
// lowest failing shard's error is returned.
func (cl *Cluster) Compact() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.ensureG2L()
	globals, errs := make([][]int32, len(cl.shards)), make([]error, len(cl.shards))
	var wg sync.WaitGroup
	for s, sh := range cl.shards {
		m, oldTbl := cl.g2l[s], sh.GlobalIDs()
		if !sh.Engine.Index().HasMutations() && len(m) == len(oldTbl) {
			continue // untouched shard: table already dense and monotone
		}
		wg.Add(1)
		go func(s int, sh *Shard) {
			defer wg.Done()
			ids := make([]int32, 0, len(m))
			for g := range m {
				ids = append(ids, g)
			}
			slices.Sort(ids)
			remap := make([]int32, len(oldTbl))
			for newLocal, g := range ids {
				remap[m[g]] = int32(newLocal)
			}
			globals[s], errs[s] = ids, sh.Engine.CompactRemap(remap)
		}(s, sh)
	}
	wg.Wait()
	var firstErr error
	for s, sh := range cl.shards {
		if errs[s] != nil && firstErr == nil {
			firstErr = fmt.Errorf("cluster: shard %d compact: %w", s, errs[s])
		}
		if errs[s] != nil || globals[s] == nil {
			continue
		}
		sh.setTable(globals[s])
		sh.Points = len(globals[s])
		for newLocal, g := range globals[s] {
			cl.g2l[s][g] = int32(newLocal)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	cl.ownPackedLists()
	if cl.fstore != nil {
		// Compact is the durable rotation point: every shard's packed
		// state becomes the new checkpoint and its WAL restarts empty.
		return cl.checkpointShards()
	}
	return nil
}

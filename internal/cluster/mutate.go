// Live mutability across the fleet: Insert places each new point on a shard
// through the same assignment the build used (the retained cluster→shard map
// under AssignKMeans, the point-ID hash under AssignHash), Delete routes by
// the fleet's id→shard map, and Compact folds every shard's overlay back into
// its packed lists. A batch is validated whole before any of it applies: the
// prefix before its first bad point is what applies, and each shard takes its
// part of that prefix, in client order, in one call of its engine's Insert or
// Delete, which applies it and, with a store attached, logs it. Every shard
// indexes its points under their global ids, so a mutated fleet answers
// exactly like one engine that lived through the same mutations — between
// compactions as well as after them — and a compacted fleet like a freshly
// built one over the same logical corpus.
//
// The owner map is derived from the shard engines' placements after every
// mutation and swapped in copy-on-write (see Cluster), which is what lets the
// routed server keep serving concurrently — provided every shard engine is
// quiesced around the actual engine mutation, which cluster.Server does at
// batch boundaries.

package cluster

import (
	"cmp"
	"fmt"
	"sync"

	"drimann/internal/dataset"
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

// validPrefix returns how many ids, from the front, a batch applies: each
// non-negative, not repeated in the batch, and live for a delete or not live
// for an insert. err says why the id past that prefix cannot apply (nil: all
// can). Callers hold cl.mu and have run ensureShardOf.
func (cl *Cluster) validPrefix(ids []int32, insert bool) (int, error) {
	seen := make(map[int32]bool, len(ids))
	for i, id := range ids {
		s, live := cl.shardOf[id]
		switch {
		case id < 0:
			return i, fmt.Errorf("cluster: id %d negative", id)
		case seen[id]:
			return i, fmt.Errorf("cluster: id %d twice in one batch", id)
		case insert && live:
			return i, fmt.Errorf("cluster: id %d already present on shard %d (delete it first)", id, s)
		case !insert && !live:
			return i, fmt.Errorf("cluster: id %d not present", id)
		}
		seen[id] = true
	}
	return len(ids), nil
}

// apply hands every shard its part of a validated prefix — parts[s] holds
// the batch positions shard s takes, in client order — through do, which
// makes the one engine call, then re-derives the owner map. Shards share
// nothing an engine mutation writes, so the calls run side by side and their
// WAL syncs overlap; each shard still logs its part as one record, and shards
// replay independently. The prefix was validated, so every engine applies all
// of its part, and an error is a store's: that part is live but not durable.
// The lowest failing shard's error is returned. do may write only shard s's
// state. Callers hold cl.mu.
func (cl *Cluster) apply(parts [][]int, do func(s int, part []int) error) error {
	defer cl.deriveOwners()
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for s, part := range parts {
		if len(part) > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[s] = do(s, part)
			}()
		}
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return fmt.Errorf("cluster: shard %d: %w", s, err)
		}
	}
	return nil
}

// Insert adds vecs[i] under global ids[i]. Under AssignKMeans each point
// lands on the shard owning its nearest centroid's cluster (even a cluster
// that owned no points at build time); under AssignHash on the shard its ID
// hashes to — both exactly where a fresh build over the grown corpus would
// place it. The owner map is updated before returning, so the very next
// batch routes to the new point. With a fleet store attached, every point
// applied is WAL-logged by its shard engine before the call returns; a
// logging failure is reported even when every point applied ("applied but
// not durable" — the mutation is live in memory but not acknowledged). Not
// safe concurrently with searches on the shard engines; the routed
// cluster.Server serializes this at batch boundaries.
func (cl *Cluster) Insert(vecs dataset.U8Set, ids []int32) error {
	if vecs.N != len(ids) {
		return fmt.Errorf("cluster: %d vectors for %d ids", vecs.N, len(ids))
	}
	if err := vecs.Check(cl.ix.Dim); err != nil {
		return fmt.Errorf("cluster: insert: %w", err)
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.ensureShardOf()
	n, invalid := cl.validPrefix(ids, true)
	parts := make([][]int, len(cl.shards))
	for i := range n {
		var s int
		if cl.shardOfCluster != nil {
			s = int(cl.shardOfCluster[cl.ix.AssignVec(vecs.Vec(i), cl.esc)])
		} else {
			s = int(splitmix64(uint64(ids[i])) % uint64(len(cl.shards)))
		}
		parts[s] = append(parts[s], i)
		cl.shardOf[ids[i]] = int32(s)
	}
	err := cl.apply(parts, func(s int, part []int) error {
		sub := dataset.U8Set{N: len(part), D: vecs.D, Data: make([]uint8, 0, len(part)*vecs.D)}
		subIDs := make([]int32, len(part))
		for j, i := range part {
			sub.Data = append(sub.Data, vecs.Vec(i)...)
			subIDs[j] = ids[i]
		}
		cl.shards[s].Points += len(part)
		return cl.shards[s].Engine.Insert(sub, subIDs)
	})
	return cmp.Or(err, invalid)
}

// Delete removes global ids from the fleet, routing each to the shard that
// holds it, under the same validate-first, applied-prefix contract as Insert.
func (cl *Cluster) Delete(ids []int32) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.ensureShardOf()
	n, invalid := cl.validPrefix(ids, false)
	parts := make([][]int, len(cl.shards))
	for i := range n {
		s := cl.shardOf[ids[i]]
		parts[s] = append(parts[s], i)
		delete(cl.shardOf, ids[i])
	}
	err := cl.apply(parts, func(s int, part []int) error {
		subIDs := make([]int32, len(part))
		for j, i := range part {
			subIDs[j] = ids[i]
		}
		cl.shards[s].Points -= len(part)
		return cl.shards[s].Engine.Delete(subIDs)
	})
	return cmp.Or(err, invalid)
}

// Compact folds every shard's append segments and tombstones into its
// packed layout — from the next batch on, the fleet is bit-identical to a
// freshly built one over the same logical corpus — and re-derives the owner
// map. Shards share nothing a fold writes, so they fold — and re-measure
// their share tables — side by side; the lowest failing shard's error is
// returned. Then every shard's packed state becomes its new checkpoint, in
// shard order, and its WAL restarts empty.
func (cl *Cluster) Compact() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	errs := make([]error, len(cl.shards))
	var wg sync.WaitGroup
	for s, sh := range cl.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[s] = sh.Engine.Fold()
		}()
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return fmt.Errorf("cluster: shard %d compact: %w", s, err)
		}
	}
	cl.deriveOwners()
	return cl.checkpoint()
}

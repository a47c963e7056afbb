// Sharding support: the gather half of the scatter-gather cluster layer
// (internal/cluster). Every shard engine indexes its points under their
// corpus-global ids, as each DPU slice of the paper keeps its points' vector
// ids beside their codes, so a shard's results are already in the
// deterministic (dist, id) order of the whole corpus and the front door
// merges the per-shard partial top-k lists by those ids alone.

package core

import "drimann/internal/topk"

// MergeShardTopK merges per-shard sorted partial top-k lists (already in
// global ID space) into the global top-k under the deterministic (dist, id)
// order, truncated to k. Each part must itself be sorted ascending; the
// shards partition the corpus, so no ID appears twice. The returned slices
// are freshly allocated. This is the gather half of the cluster layer's
// scatter-gather: because every global top-k element is necessarily within
// its own shard's top-k, merging the S partial lists and keeping the best k
// reproduces a single engine's answer over the union exactly.
func MergeShardTopK(k int, parts [][]topk.Item[uint32]) ([]int32, []topk.Item[uint32]) {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total > k {
		total = k
	}
	items := make([]topk.Item[uint32], 0, total)
	// S is small (shard count), so a linear scan for the minimum head beats
	// heap bookkeeping; ties on (dist, id) cannot occur across shards.
	cursors := make([]int, len(parts))
	for len(items) < total {
		best := -1
		for s, p := range parts {
			if cursors[s] >= len(p) {
				continue
			}
			if best < 0 || topk.Less(p[cursors[s]], parts[best][cursors[best]]) {
				best = s
			}
		}
		if best < 0 {
			break
		}
		items = append(items, parts[best][cursors[best]])
		cursors[best]++
	}
	ids := make([]int32, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	if len(items) == 0 {
		// Zero-fanout convention: match the single engine exactly, which
		// returns non-nil empty IDs and nil Items for a query with no
		// candidates (e.g. every probed cluster empty).
		items = nil
	}
	return ids, items
}

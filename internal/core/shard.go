// Sharding support: the helpers the scatter-gather cluster layer
// (internal/cluster) uses to stitch per-shard engine results back into one
// global view. A shard engine runs in a compact local ID space (0..n_s-1
// over the points the shard owns); the cluster layer remaps local IDs to
// corpus-global IDs through a monotone table and merges per-shard partial
// top-k lists. Monotonicity is what makes the remap order-preserving: the
// deterministic (dist, id) total order of a shard's results is unchanged by
// a strictly increasing ID substitution, so the merged global top-k is
// bit-identical to a single unsharded engine's answer.

package core

import (
	"fmt"

	"drimann/internal/topk"
)

// RemapItems rewrites the IDs of scored items in place through globalID
// (globalID[local] = global), leaving distances untouched. The table must be
// strictly increasing for the deterministic (dist, id) order to survive the
// remap.
func RemapItems(items []topk.Item[uint32], globalID []int32) {
	for i := range items {
		items[i].ID = globalID[items[i].ID]
	}
}

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

// ValidateRemapTable checks that a local→global ID table is strictly
// increasing — the property RemapItems relies on to preserve the
// deterministic order. The cluster layer asserts this at build time.
func ValidateRemapTable(globalID []int32) error {
	for i := 1; i < len(globalID); i++ {
		if globalID[i] <= globalID[i-1] {
			return fmt.Errorf("core: remap table not strictly increasing at %d: %d <= %d",
				i, globalID[i], globalID[i-1])
		}
	}
	return nil
}

// Package topk provides the bounded top-k selection structures used by both
// the host-side cluster locating phase (float32 distances) and the DPU-side
// top-k sorting phase (uint32 integer distances): a bounded max-heap that
// keeps the k smallest items, and the sort and merge helpers around it.
//
// Ordering is deterministic everywhere: ties on distance are broken by the
// smaller ID, so independent engines (CPU reference vs PIM simulation)
// produce identical result lists and can be compared exactly in tests.
package topk

import (
	"cmp"
	"slices"
)

// Item is a candidate neighbor: an ID and its distance to the query.
type Item[D cmp.Ordered] struct {
	ID   int32
	Dist D
}

// compare is the canonical deterministic total order used across the
// repository — ascending distance, ties broken by ascending ID — as a
// three-way comparison. Less, SortItems and Bound.Accepts all derive from
// it.
func compare[D cmp.Ordered](a, b Item[D]) int {
	if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// Less reports whether a precedes b in the deterministic total order.
func Less[D cmp.Ordered](a, b Item[D]) bool {
	return compare(a, b) < 0
}

// Heap is a bounded max-heap holding the k smallest items pushed so far.
// The zero value is not usable; call NewHeap.
type Heap[D cmp.Ordered] struct {
	k     int
	items []Item[D] // max-heap ordered by Less (root = current worst kept item)
}

// NewHeap returns a heap retaining the k smallest items. k must be >= 1.
// Storage for a large k grows as items arrive, so a k chosen to exceed
// anything that will be pushed (keep everything) costs what is pushed.
func NewHeap[D cmp.Ordered](k int) *Heap[D] {
	if k < 1 {
		panic("topk: k must be >= 1")
	}
	return &Heap[D]{k: k, items: make([]Item[D], 0, min(k, 1024))}
}

// Len reports how many items are currently held (<= k).
func (h *Heap[D]) Len() int { return len(h.items) }

// Full reports whether k items are held, i.e. Threshold is meaningful.
func (h *Heap[D]) Full() bool { return len(h.items) == h.k }

// Threshold returns the current worst retained item's distance. The boolean
// is false until the heap is full; until then every push is accepted.
func (h *Heap[D]) Threshold() (D, bool) {
	var zero D
	if !h.Full() {
		return zero, false
	}
	return h.items[0].Dist, true
}

// WouldAccept reports whether a push with this distance would change the
// heap. This is the "lock pruning" predicate from the paper's §6: DPU
// tasklets consult a (possibly stale) threshold before taking the shared
// top-k lock.
func (h *Heap[D]) WouldAccept(id int32, dist D) bool {
	if !h.Full() {
		return true
	}
	return Less(Item[D]{ID: id, Dist: dist}, h.items[0])
}

// Bound is a register-resident copy of a heap's acceptance threshold — the
// cached fast path of WouldAccept for kernels that test millions of
// candidates against a rarely-changing top-k bound. Capture it with
// Heap.Bound, test candidates with Accepts, and re-capture after every Push
// (the only operation that moves the threshold). The zero Bound accepts
// everything, matching a non-full heap.
type Bound[D cmp.Ordered] struct {
	full  bool
	worst Item[D]
}

// Bound returns the heap's current acceptance bound.
func (h *Heap[D]) Bound() Bound[D] {
	if len(h.items) < h.k {
		return Bound[D]{}
	}
	return Bound[D]{full: true, worst: h.items[0]}
}

// Accepts reports whether a Push of (id, dist) would change the heap the
// bound was captured from — exactly WouldAccept at capture time. The body
// open-codes Less((id, dist), worst) because this is a per-candidate call
// in simulation kernels and the delegated form falls out of the compiler's
// inlining budget; TestBoundMatchesWouldAccept pins the equivalence.
func (b *Bound[D]) Accepts(id int32, dist D) bool {
	if !b.full {
		return true
	}
	if dist != b.worst.Dist {
		return dist < b.worst.Dist
	}
	return id < b.worst.ID
}

// Push offers an item; it returns true if the item was retained.
func (h *Heap[D]) Push(id int32, dist D) bool {
	it := Item[D]{ID: id, Dist: dist}
	if len(h.items) < h.k {
		h.items = append(h.items, it)
		h.siftUp(len(h.items) - 1)
		return true
	}
	if !Less(it, h.items[0]) {
		return false
	}
	h.items[0] = it
	h.siftDown(0)
	return true
}

// Reset empties the heap for reuse, keeping capacity.
func (h *Heap[D]) Reset() { h.items = h.items[:0] }

// Sorted returns the retained items in ascending deterministic order. The
// heap itself is left untouched.
func (h *Heap[D]) Sorted() []Item[D] {
	out := make([]Item[D], len(h.items))
	copy(out, h.items)
	SortItems(out)
	return out
}

// SortedInto writes the retained items into dst (reusing its capacity, which
// is grown only when insufficient) in ascending deterministic order and
// returns the filled slice. The heap itself is left untouched. This is the
// allocation-free twin of Sorted for hot paths that drain many heaps.
func (h *Heap[D]) SortedInto(dst []Item[D]) []Item[D] {
	dst = append(dst[:0], h.items...)
	SortItems(dst)
	return dst
}

func (h *Heap[D]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !Less(h.items[parent], h.items[i]) {
			return
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *Heap[D]) siftDown(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && Less(h.items[largest], h.items[l]) {
			largest = l
		}
		if r < n && Less(h.items[largest], h.items[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		h.items[i], h.items[largest] = h.items[largest], h.items[i]
		i = largest
	}
}

// SortItems sorts items in place into the deterministic ascending order.
func SortItems[D cmp.Ordered](items []Item[D]) {
	slices.SortFunc(items, compare[D])
}

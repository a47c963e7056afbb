package topk

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// oracle computes the expected top-k by full sort.
func oracle(items []Item[uint32], k int) []Item[uint32] {
	cp := make([]Item[uint32], len(items))
	copy(cp, items)
	SortItems(cp)
	if len(cp) > k {
		cp = cp[:k]
	}
	return cp
}

func equalItems(a, b []Item[uint32]) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestHeapMatchesSortOracleProperty(t *testing.T) {
	f := func(dists []uint32, kRaw uint8) bool {
		k := int(kRaw)%16 + 1
		items := make([]Item[uint32], len(dists))
		h := NewHeap[uint32](k)
		for i, d := range dists {
			items[i] = Item[uint32]{ID: int32(i), Dist: d}
			h.Push(int32(i), d)
		}
		return equalItems(h.Sorted(), oracle(items, k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapTieBreakDeterministic(t *testing.T) {
	h := NewHeap[uint32](2)
	h.Push(5, 10)
	h.Push(3, 10)
	h.Push(9, 10)
	got := h.Sorted()
	if got[0].ID != 3 || got[1].ID != 5 {
		t.Fatalf("tie-break by ID violated: %v", got)
	}
}

func TestHeapThresholdAndWouldAccept(t *testing.T) {
	h := NewHeap[uint32](2)
	if _, ok := h.Threshold(); ok {
		t.Fatal("threshold defined on non-full heap")
	}
	if !h.WouldAccept(1, 1<<31) {
		t.Fatal("non-full heap must accept anything")
	}
	h.Push(1, 100)
	h.Push(2, 200)
	th, ok := h.Threshold()
	if !ok || th != 200 {
		t.Fatalf("threshold = %d,%v want 200,true", th, ok)
	}
	if h.WouldAccept(3, 200) {
		t.Fatal("equal distance with larger ID must be rejected")
	}
	if !h.WouldAccept(1, 200) {
		t.Fatal("equal distance with smaller ID must be accepted")
	}
	if !h.WouldAccept(3, 199) {
		t.Fatal("smaller distance must be accepted")
	}
	if h.Push(3, 250) {
		t.Fatal("push above threshold must be rejected")
	}
	if !h.Push(3, 50) {
		t.Fatal("push below threshold must be accepted")
	}
	th, _ = h.Threshold()
	if th != 100 {
		t.Fatalf("threshold after eviction = %d, want 100", th)
	}
}

func TestHeapReset(t *testing.T) {
	h := NewHeap[uint32](3)
	h.Push(1, 1)
	h.Reset()
	if h.Len() != 0 {
		t.Fatal("reset did not empty heap")
	}
	h.Push(2, 2)
	if got := h.Sorted(); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("heap unusable after reset: %v", got)
	}
}

func TestNewHeapPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k=0")
		}
	}()
	NewHeap[uint32](0)
}

func TestHeapFloat32(t *testing.T) {
	h := NewHeap[float32](2)
	h.Push(1, 0.5)
	h.Push(2, 0.25)
	h.Push(3, 0.75)
	got := h.Sorted()
	if got[0].ID != 2 || got[1].ID != 1 {
		t.Fatalf("float heap wrong: %v", got)
	}
}

func BenchmarkHeapPush(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	dists := make([]uint32, 4096)
	for i := range dists {
		dists[i] = rng.Uint32()
	}
	h := NewHeap[uint32](10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset()
		for j, d := range dists {
			h.Push(int32(j), d)
		}
	}
}

func TestSortedInto(t *testing.T) {
	h := NewHeap[uint32](5)
	for _, v := range []uint32{9, 3, 7, 1, 5, 8, 2} {
		if h.WouldAccept(int32(v), v) {
			h.Push(int32(v), v)
		}
	}
	want := h.Sorted()

	// Nil destination, too-small destination, oversized destination: all
	// must return the same ascending list, reusing capacity when possible.
	for _, dst := range [][]Item[uint32]{nil, make([]Item[uint32], 0, 2), make([]Item[uint32], 9)} {
		got := h.SortedInto(dst)
		if len(got) != len(want) {
			t.Fatalf("len %d, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("item %d: %+v != %+v", i, got[i], want[i])
			}
		}
	}

	// Reuse must not allocate once capacity suffices.
	buf := make([]Item[uint32], 0, h.Len())
	out := h.SortedInto(buf)
	if &out[0] != &buf[:1][0] {
		t.Fatal("SortedInto reallocated despite sufficient capacity")
	}
	// Heap is untouched.
	if h.Len() != len(want) {
		t.Fatal("SortedInto mutated the heap")
	}
}

// TestBoundMatchesWouldAccept: the cached-threshold fast path must agree
// with WouldAccept at every step of a randomized push sequence, provided the
// bound is re-captured after each push.
func TestBoundMatchesWouldAccept(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(8)
		h := NewHeap[uint32](k)
		bound := h.Bound()
		for i := 0; i < 200; i++ {
			id := int32(rng.Intn(64))
			dist := uint32(rng.Intn(16)) // narrow range to force distance ties
			want := h.WouldAccept(id, dist)
			if got := bound.Accepts(id, dist); got != want {
				t.Fatalf("trial %d step %d: Accepts(%d, %d) = %v, WouldAccept = %v (heap %+v)",
					trial, i, id, dist, got, want, h.items)
			}
			if want {
				h.Push(id, dist)
				bound = h.Bound()
			}
		}
	}
}

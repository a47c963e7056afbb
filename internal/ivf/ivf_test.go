package ivf

import (
	"testing"

	"drimann/internal/dataset"
	"drimann/internal/pq"
)

// smallIndex builds a small but realistic index for tests.
func smallIndex(t *testing.T) (*Index, *dataset.Synth) {
	t.Helper()
	s := dataset.Generate(dataset.SynthConfig{
		N: 4000, D: 16, NumQueries: 40, NumClusters: 24, Seed: 11, Noise: 10,
	})
	ix, err := Build(s.Base, BuildConfig{
		NList: 32,
		PQ:    pq.Config{M: 16, CB: 64},
		Seed:  5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix, s
}

func TestBuildInvariants(t *testing.T) {
	ix, s := smallIndex(t)
	if ix.NList != 32 || ix.Dim != 16 {
		t.Fatalf("index shape wrong: %+v", ix)
	}
	// Every base vector appears in exactly one list.
	seen := make(map[int32]bool, s.Base.N)
	for c, list := range ix.Lists {
		if len(ix.Codes[c]) != len(list)*ix.M {
			t.Fatalf("cluster %d codes length %d, want %d", c, len(ix.Codes[c]), len(list)*ix.M)
		}
		for _, id := range list {
			if seen[id] {
				t.Fatalf("vector %d in multiple lists", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != s.Base.N {
		t.Fatalf("lists cover %d vectors, want %d", len(seen), s.Base.N)
	}
	if got := ix.AvgListLen(); got != float64(s.Base.N)/32 {
		t.Fatalf("AvgListLen = %v", got)
	}
}

func TestBuildValidation(t *testing.T) {
	s := dataset.Generate(dataset.SynthConfig{N: 100, D: 8, NumQueries: 5, Seed: 2})
	if _, err := Build(dataset.U8Set{}, BuildConfig{NList: 4, PQ: pq.Config{M: 2, CB: 8}}); err == nil {
		t.Fatal("empty corpus must fail")
	}
	if _, err := Build(s.Base, BuildConfig{NList: 0, PQ: pq.Config{M: 2, CB: 8}}); err == nil {
		t.Fatal("NList=0 must fail")
	}
	if _, err := Build(s.Base, BuildConfig{NList: 4, PQ: pq.Config{M: 3, CB: 8}}); err == nil {
		t.Fatal("M not dividing dim must fail")
	}
}

// TestBuildRejectsMismatchedData: a corpus whose bytes are not N*D vectors
// is an error, not a slice panic.
func TestBuildRejectsMismatchedData(t *testing.T) {
	cfg := BuildConfig{NList: 2, PQ: pq.Config{M: 2, CB: 8}}
	for _, bytes := range []int{12, 44} {
		if _, err := Build(dataset.U8Set{N: 10, D: 4, Data: make([]uint8, bytes)}, cfg); err == nil {
			t.Fatalf("10 x 4 corpus with %d bytes built", bytes)
		}
	}
}

func TestLocateSortedAndDistinct(t *testing.T) {
	ix, s := smallIndex(t)
	probes := ix.LocateInt(s.Queries.Vec(0), 8)
	if len(probes) != 8 {
		t.Fatalf("got %d probes", len(probes))
	}
	seen := map[int32]bool{}
	for i, p := range probes {
		if seen[p.ID] {
			t.Fatalf("duplicate probe %d", p.ID)
		}
		seen[p.ID] = true
		if i > 0 && probes[i-1].Dist > p.Dist {
			t.Fatal("probes not sorted by distance")
		}
	}
}

// The one-query path reaches the recall the deleted float path was held to,
// and answers each query as the batch path does.
func TestSearchRecall(t *testing.T) {
	ix, s := smallIndex(t)
	const k = 10
	gt := dataset.GroundTruth(s.Base, s.Queries, k, 0)
	batch := ix.SearchIntBatch(s.Queries, 16, k, 0)
	got := make([][]int32, s.Queries.N)
	for q := range got {
		for _, it := range ix.SearchInt(s.Queries.Vec(q), 16, k) {
			got[q] = append(got[q], it.ID)
		}
		if len(got[q]) != len(batch[q]) {
			t.Fatalf("query %d: %d answers one at a time, %d in a batch", q, len(got[q]), len(batch[q]))
		}
		for i := range got[q] {
			if got[q][i] != batch[q][i] {
				t.Fatalf("query %d rank %d: id %d one at a time, %d in a batch", q, i, got[q][i], batch[q][i])
			}
		}
	}
	if r := dataset.Recall(gt, got, k); r < 0.8 {
		t.Fatalf("recall@10 = %v, want >= 0.8", r)
	}
}

func TestSearchIntRecall(t *testing.T) {
	ix, s := smallIndex(t)
	const k = 10
	gt := dataset.GroundTruth(s.Base, s.Queries, k, 0)
	got := ix.SearchIntBatch(s.Queries, 16, k, 0)
	if r := dataset.Recall(gt, got, k); r < 0.75 {
		t.Fatalf("int-path recall@10 = %v, want >= 0.75", r)
	}
}

func TestRecallImprovesWithNprobe(t *testing.T) {
	ix, s := smallIndex(t)
	const k = 10
	gt := dataset.GroundTruth(s.Base, s.Queries, k, 0)
	r4 := dataset.Recall(gt, ix.SearchIntBatch(s.Queries, 2, k, 0), k)
	r32 := dataset.Recall(gt, ix.SearchIntBatch(s.Queries, 32, k, 0), k)
	if r32 < r4 {
		t.Fatalf("recall should not degrade with nprobe: %v -> %v", r4, r32)
	}
	if r32 < 0.85 {
		t.Fatalf("full-probe recall too low: %v", r32)
	}
}

func TestSearchResultsSortedUnique(t *testing.T) {
	ix, s := smallIndex(t)
	items := ix.SearchInt(s.Queries.Vec(1), 8, 10)
	if len(items) != 10 {
		t.Fatalf("got %d results", len(items))
	}
	seen := map[int32]bool{}
	for i, it := range items {
		if seen[it.ID] {
			t.Fatalf("duplicate result id %d", it.ID)
		}
		seen[it.ID] = true
		if i > 0 && items[i-1].Dist > it.Dist {
			t.Fatal("results not sorted")
		}
	}
}

func TestSearchIntDeterministic(t *testing.T) {
	ix, s := smallIndex(t)
	a := ix.SearchInt(s.Queries.Vec(3), 8, 5)
	b := ix.SearchInt(s.Queries.Vec(3), 8, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("SearchInt not deterministic")
		}
	}
}

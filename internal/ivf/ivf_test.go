package ivf

import (
	"testing"

	"drimann/internal/dataset"
	"drimann/internal/pq"
	"drimann/internal/topk"
)

// smallIndex builds a small but realistic index for tests.
func smallIndex(t *testing.T, variant string) (*Index, *dataset.Synth) {
	t.Helper()
	s := dataset.Generate(dataset.SynthConfig{
		N: 4000, D: 16, NumQueries: 40, NumClusters: 24, Seed: 11, Noise: 10,
	})
	ix, err := Build(s.Base, BuildConfig{
		NList:   32,
		PQ:      pq.Config{M: 16, CB: 64},
		Variant: variant,
		Seed:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix, s
}

func TestBuildInvariants(t *testing.T) {
	ix, s := smallIndex(t, "pq")
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
	if _, err := Build(s.Base, BuildConfig{NList: 4, PQ: pq.Config{M: 2, CB: 8}, Variant: "nope"}); err == nil {
		t.Fatal("unknown variant must fail")
	}
}

func TestLocateSortedAndDistinct(t *testing.T) {
	ix, s := smallIndex(t, "pq")
	qf := make([]float32, 16)
	for i, v := range s.Queries.Vec(0) {
		qf[i] = float32(v)
	}
	probes := ix.Locate(qf, 8)
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

func TestSearchRecall(t *testing.T) {
	ix, s := smallIndex(t, "pq")
	const k = 10
	gt := dataset.GroundTruth(s.Base, s.Queries, k, 0)
	got := ix.SearchBatch(s.Queries, 16, k, 0)
	if r := dataset.Recall(gt, got, k); r < 0.8 {
		t.Fatalf("float-path recall@10 = %v, want >= 0.8", r)
	}
}

func TestSearchIntRecall(t *testing.T) {
	ix, s := smallIndex(t, "pq")
	const k = 10
	gt := dataset.GroundTruth(s.Base, s.Queries, k, 0)
	got := ix.SearchIntBatch(s.Queries, 16, k, 0)
	if r := dataset.Recall(gt, got, k); r < 0.75 {
		t.Fatalf("int-path recall@10 = %v, want >= 0.75", r)
	}
}

func TestRecallImprovesWithNprobe(t *testing.T) {
	ix, s := smallIndex(t, "pq")
	const k = 10
	gt := dataset.GroundTruth(s.Base, s.Queries, k, 0)
	r4 := dataset.Recall(gt, ix.SearchBatch(s.Queries, 2, k, 0), k)
	r32 := dataset.Recall(gt, ix.SearchBatch(s.Queries, 32, k, 0), k)
	if r32 < r4 {
		t.Fatalf("recall should not degrade with nprobe: %v -> %v", r4, r32)
	}
	if r32 < 0.85 {
		t.Fatalf("full-probe recall too low: %v", r32)
	}
}

func TestSearchResultsSortedUnique(t *testing.T) {
	ix, s := smallIndex(t, "pq")
	items := ix.Search(s.Queries.Vec(1), 8, 10)
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

func TestOPQVariantBuildsAndSearches(t *testing.T) {
	ix, s := smallIndex(t, "opq")
	if ix.OPQ == nil {
		t.Fatal("OPQ variant should carry a rotation")
	}
	const k = 10
	gt := dataset.GroundTruth(s.Base, s.Queries, k, 0)
	got := ix.SearchBatch(s.Queries, 16, k, 0)
	if r := dataset.Recall(gt, got, k); r < 0.7 {
		t.Fatalf("OPQ recall@10 = %v too low", r)
	}
}

func TestDPQVariantBuildsAndSearches(t *testing.T) {
	ix, s := smallIndex(t, "dpq")
	const k = 10
	gt := dataset.GroundTruth(s.Base, s.Queries, k, 0)
	got := ix.SearchBatch(s.Queries, 16, k, 0)
	if r := dataset.Recall(gt, got, k); r < 0.7 {
		t.Fatalf("DPQ recall@10 = %v too low", r)
	}
}

func TestSearchIntDeterministic(t *testing.T) {
	ix, s := smallIndex(t, "pq")
	a := ix.SearchInt(s.Queries.Vec(3), 8, 5)
	b := ix.SearchInt(s.Queries.Vec(3), 8, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("SearchInt not deterministic")
		}
	}
}

// SearchBatch runs Search for a query set in parallel and returns id lists.
func (ix *Index) SearchBatch(queries dataset.U8Set, nprobe, k, workers int) [][]int32 {
	return searchIDs(queries, workers, func(q []uint8) []topk.Item[float32] { return ix.Search(q, nprobe, k) })
}

package ivf

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"drimann/internal/durable"
	"drimann/internal/topk"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	ix, s := smallIndex(t, "pq")
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Dim != ix.Dim || loaded.NList != ix.NList || loaded.M != ix.M || loaded.CB != ix.CB {
		t.Fatalf("shape mismatch after load: %+v", loaded)
	}
	// Search results must be identical on both paths.
	for qi := 0; qi < 8; qi++ {
		want := ix.SearchInt(s.Queries.Vec(qi), 8, 5)
		got := loaded.SearchInt(s.Queries.Vec(qi), 8, 5)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("query %d: loaded index diverges at %d: %v vs %v", qi, j, got[j], want[j])
			}
		}
		wantF := ix.Search(s.Queries.Vec(qi), 8, 5)
		gotF := loaded.Search(s.Queries.Vec(qi), 8, 5)
		for j := range wantF {
			if gotF[j].ID != wantF[j].ID {
				t.Fatalf("query %d: float path diverges after load", qi)
			}
		}
	}
}

func TestSaveLoadOPQ(t *testing.T) {
	ix, s := smallIndex(t, "opq")
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.OPQ == nil {
		t.Fatal("OPQ rotation lost in round trip")
	}
	want := ix.Search(s.Queries.Vec(0), 8, 5)
	got := loaded.Search(s.Queries.Vec(0), 8, 5)
	for j := range want {
		if got[j].ID != want[j].ID {
			t.Fatal("OPQ search diverges after load")
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	ix, _ := smallIndex(t, "pq")
	path := filepath.Join(t.TempDir(), "index.drim")
	if err := durable.WriteFileAtomic(durable.OS{}, path, ix.Save); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NList != ix.NList {
		t.Fatal("file round trip failed")
	}
	if _, err := loadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file must fail")
	}
}

// TestSaveLoadMutatedOverlay is the regression test for the silent
// overlay loss: insert → save → load → search must serve the inserted
// points and keep tombstoned ones dead.
func TestSaveLoadMutatedOverlay(t *testing.T) {
	ix, s := smallIndex(t, "pq")
	// Live mutations: a handful of fresh inserts and deletes of base ids.
	for qi := 0; qi < 6; qi++ {
		if _, err := ix.Insert(int32(100000+qi), s.Queries.Vec(qi)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []int32{3, 77, 1999} {
		if _, _, err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if !ix.HasMutations() {
		t.Fatal("fixture has no mutations")
	}

	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.HasMutations() {
		t.Fatal("overlay lost in save/load round trip")
	}
	if !slices.Equal(loaded.LiveIDs(), ix.LiveIDs()) {
		t.Fatal("live id set changed across save/load")
	}
	for qi := 0; qi < 16; qi++ {
		want := ix.SearchInt(s.Queries.Vec(qi), 8, 5)
		got := loaded.SearchInt(s.Queries.Vec(qi), 8, 5)
		if !slices.Equal(got, want) {
			t.Fatalf("query %d: loaded mutated index diverges: %v vs %v", qi, got, want)
		}
	}
	// The inserted points must actually be findable, and the tombstoned
	// ones must stay dead.
	if c, ok := loaded.WhereIs(100000); !ok {
		t.Fatal("inserted id 100000 lost after load")
	} else if wc, _ := ix.WhereIs(100000); wc != c {
		t.Fatalf("inserted id 100000 moved cluster: %d vs %d", c, wc)
	}
	if _, ok := loaded.WhereIs(77); ok {
		t.Fatal("tombstoned id 77 resurrected by load")
	}
}

// TestSaveV1LegacyRoundTrip pins that v1 images still load. The write
// path is gone, so the images are golden files (300 points, D=8, NList=4,
// M=4, CB=16, one per variant) written by the last build that had it, and
// want holds what the in-memory index answered, before it was saved, for
// each of its own u8 centroids as the query (nprobe 2, k 5).
func TestSaveV1LegacyRoundTrip(t *testing.T) {
	it := func(id int32, d uint32) topk.Item[uint32] { return topk.Item[uint32]{ID: id, Dist: d} }
	want := map[string][][]topk.Item[uint32]{
		"pq": {
			{it(133, 77), it(104, 81), it(93, 102), it(71, 116), it(137, 116)},
			{it(228, 156), it(224, 211), it(219, 216), it(236, 216), it(239, 240)},
			{it(286, 484), it(299, 580), it(292, 607), it(294, 618), it(295, 629)},
			{it(174, 809), it(169, 920), it(200, 937), it(202, 949), it(170, 956)},
		},
		"opq": {
			{it(61, 91), it(17, 115), it(28, 119), it(48, 122), it(93, 122)},
			{it(236, 142), it(228, 194), it(215, 245), it(219, 250), it(224, 337)},
			{it(299, 437), it(294, 478), it(286, 514), it(296, 635), it(293, 704)},
			{it(174, 1000), it(169, 1019), it(167, 1031), it(200, 1121), it(151, 1202)},
		},
	}
	for variant, answers := range want {
		img, err := os.ReadFile(filepath.Join("testdata", "legacy_v1_"+variant+".drim"))
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(bytes.NewReader(img))
		if err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		if loaded.Dim != 8 || loaded.NList != 4 || loaded.M != 4 || loaded.CB != 16 || (loaded.OPQ != nil) != (variant == "opq") {
			t.Fatalf("%s: loaded shape wrong: dim=%d nlist=%d m=%d cb=%d opq=%v",
				variant, loaded.Dim, loaded.NList, loaded.M, loaded.CB, loaded.OPQ != nil)
		}
		if n := len(loaded.LiveIDs()); n != 300 {
			t.Fatalf("%s: loaded %d points, want 300", variant, n)
		}
		for c, w := range answers {
			q := loaded.CentroidsU8[c*loaded.Dim : (c+1)*loaded.Dim]
			if got := loaded.SearchInt(q, 2, 5); !slices.Equal(got, w) {
				t.Fatalf("%s centroid %d: v1 round trip diverges: %v vs %v", variant, c, got, w)
			}
		}
	}
}

// TestV2DetectsBitFlips checks the per-section CRCs: flipping any
// single byte of a v2 image must fail Load instead of deserializing
// garbage.
func TestV2DetectsBitFlips(t *testing.T) {
	ix, s := smallIndex(t, "pq")
	if _, err := ix.Insert(100001, s.Queries.Vec(0)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	for pos := 0; pos < len(img); pos += 13 {
		bad := append([]byte{}, img...)
		bad[pos] ^= 0x04
		if _, err := Load(bytes.NewReader(bad)); err == nil {
			t.Fatalf("flipped byte %d of %d went undetected", pos, len(img))
		}
	}
}

// TestSaveFileLeavesNoTemp pins the atomic save path: repeated saves
// over the same path leave exactly the index file, no temp droppings.
func TestSaveFileLeavesNoTemp(t *testing.T) {
	ix, _ := smallIndex(t, "pq")
	dir := t.TempDir()
	path := filepath.Join(dir, "index.drim")
	for i := 0; i < 2; i++ {
		if err := durable.WriteFileAtomic(durable.OS{}, path, ix.Save); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "index.drim" {
		t.Fatalf("unexpected directory contents: %v", entries)
	}
	if _, err := loadFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("truncated header must fail")
	}
	// Wrong magic.
	bad := make([]byte, 7*4)
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic must fail")
	}
	// Valid header, truncated body.
	ix, _ := smallIndex(t, "pq")
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Load(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated body must fail")
	}
}

// loadFile reads an index from a file.
func loadFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ivf: %w", err)
	}
	defer f.Close()
	return Load(f)
}

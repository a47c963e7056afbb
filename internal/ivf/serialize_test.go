package ivf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"drimann/internal/dataset"
	"drimann/internal/durable"
	"drimann/internal/pq"
	"drimann/internal/topk"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	ix, s := smallIndex(t)
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
	for qi := 0; qi < 8; qi++ {
		want := ix.SearchInt(s.Queries.Vec(qi), 8, 5)
		got := loaded.SearchInt(s.Queries.Vec(qi), 8, 5)
		if !slices.Equal(got, want) {
			t.Fatalf("query %d: loaded index diverges: %v vs %v", qi, got, want)
		}
	}
	// The loaded quantizer, made from the image's codebooks alone, encodes
	// every point to the code Build stored.
	sc := loaded.NewEncodeScratch()
	code := make([]uint16, ix.M)
	for c, ids := range ix.Lists {
		for i, id := range ids {
			loaded.EncodeVec(s.Base.Vec(int(id)), int32(c), code, sc)
			if want := ix.Codes[c][i*ix.M : (i+1)*ix.M]; !slices.Equal(code, want) {
				t.Fatalf("point %d: loaded quantizer encodes %v, Build stored %v", id, code, want)
			}
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	ix, _ := smallIndex(t)
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
	ix, s := smallIndex(t)
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
// path is gone, so the image is a golden file (300 points, D=8, NList=4,
// M=4, CB=16) written by the last build that had it, and want holds what
// the in-memory index answered, before it was saved, for each of its own
// u8 centroids as the query (nprobe 2, k 5).
func TestSaveV1LegacyRoundTrip(t *testing.T) {
	it := func(id int32, d uint32) topk.Item[uint32] { return topk.Item[uint32]{ID: id, Dist: d} }
	want := [][]topk.Item[uint32]{
		{it(133, 77), it(104, 81), it(93, 102), it(71, 116), it(137, 116)},
		{it(228, 156), it(224, 211), it(219, 216), it(236, 216), it(239, 240)},
		{it(286, 484), it(299, 580), it(292, 607), it(294, 618), it(295, 629)},
		{it(174, 809), it(169, 920), it(200, 937), it(202, 949), it(170, 956)},
	}
	loaded, err := Load(bytes.NewReader(readTestdata(t, "legacy_v1_pq.drim")))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Dim != 8 || loaded.NList != 4 || loaded.M != 4 || loaded.CB != 16 {
		t.Fatalf("loaded shape wrong: dim=%d nlist=%d m=%d cb=%d", loaded.Dim, loaded.NList, loaded.M, loaded.CB)
	}
	if n := len(loaded.LiveIDs()); n != 300 {
		t.Fatalf("loaded %d points, want 300", n)
	}
	for c, w := range want {
		if got := loaded.SearchInt(loaded.CentroidU8(c), 2, 5); !slices.Equal(got, w) {
			t.Fatalf("centroid %d: v1 round trip diverges: %v vs %v", c, got, w)
		}
	}
}

// TestV2GoldenImage pins the v2 bytes: testdata/v2_pq.drim was saved from a
// live mutated index (goldenIndex, 30 inserts, 3 deletes) by the last build
// that could also write OPQ images. Load then Save must reproduce it byte
// for byte, and on amd64, whose float arithmetic the build digest pins, so
// must building and mutating the same index today.
func TestV2GoldenImage(t *testing.T) {
	golden := readTestdata(t, "v2_pq.drim")
	loaded, err := Load(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := loaded.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatal("load then save changed the golden image")
	}
	if runtime.GOARCH != "amd64" {
		return
	}
	buf.Reset()
	if err := goldenIndex(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatal("a fresh build saves different bytes from the golden image")
	}
}

// goldenIndex rebuilds the index testdata/v2_pq.drim holds: 300 points of
// D=8 in NList=4, M=4, CB=16, then ids 300-329 inserted and 5, 77, 310
// deleted.
func goldenIndex(t testing.TB) *Index {
	t.Helper()
	s := dataset.Generate(dataset.SynthConfig{N: 330, D: 8, NumQueries: 1, NumClusters: 4, Seed: 3, Noise: 10})
	ix, err := Build(dataset.U8Set{N: 300, D: 8, Data: s.Base.Data[:300*8]}, BuildConfig{NList: 4, PQ: pq.Config{M: 4, CB: 16}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for id := 300; id < 330; id++ {
		if _, err := ix.Insert(int32(id), s.Base.Vec(id)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []int32{5, 77, 310} {
		if _, _, err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

// TestLoadRejectsOPQ: an image with the OPQ flag set fails with an error
// naming OPQ — the v1 golden an OPQ build wrote, and a v2 image with the
// flag word set and its CRC fixed — and any other non-zero flag is corrupt.
func TestLoadRejectsOPQ(t *testing.T) {
	if _, err := Load(bytes.NewReader(readTestdata(t, "legacy_v1_opq.drim"))); err == nil || !strings.Contains(err.Error(), "OPQ index") {
		t.Fatalf("v1 OPQ image: got %v, want an error naming OPQ", err)
	}
	v1 := readTestdata(t, "legacy_v1_pq.drim")
	v2 := readTestdata(t, "v2_pq.drim")
	for flag, want := range map[uint32]string{1: "OPQ index", 2: "corrupt OPQ flag 2", 1 << 31: "corrupt OPQ flag"} {
		// v1: magic, version, dim, nlist, m, cb, then the flag word.
		bad := slices.Clone(v1)
		binary.LittleEndian.PutUint32(bad[24:], flag)
		if _, err := Load(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("v1 flag %d: got %v, want an error naming %q", flag, err, want)
		}
		// v2: magic, version, then the head section's length, five words
		// ending with the flag, and its CRC.
		bad = slices.Clone(v2)
		binary.LittleEndian.PutUint32(bad[28:], flag)
		binary.LittleEndian.PutUint32(bad[32:], crc32.ChecksumIEEE(bad[12:32]))
		if _, err := Load(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("v2 flag %d: got %v, want an error naming %q", flag, err, want)
		}
	}
}

// TestLoadAllocatesOnlyWhatArrives feeds Load short images whose headers
// claim huge blocks. Each must fail, allocating less than 64 MiB: Load
// sizes nothing from a count before the bytes behind it have arrived.
func TestLoadAllocatesOnlyWhatArrives(t *testing.T) {
	words := func(ws ...uint32) []byte {
		b := make([]byte, 4*len(ws))
		for i, w := range ws {
			binary.LittleEndian.PutUint32(b[4*i:], w)
		}
		return b
	}
	section := func(payload []byte) []byte {
		b := append(words(uint32(len(payload))), payload...)
		return append(b, words(crc32.ChecksumIEEE(payload))...)
	}
	v1 := func(dim, nlist uint32) []byte { return words(indexMagic, indexVersion1, dim, nlist, 16, 256, 0) }
	v2 := func(dim, nlist uint32) []byte {
		return append(words(indexMagic, indexVersion2), section(words(dim, nlist, 16, 256, 0))...)
	}
	// A whole v1 quant block (dim 16, nlist 1, CB 256: 16*5 + 256*16*4
	// bytes), then a list that claims 2^28 points.
	longList := append(v1(16, 1), make([]byte, 16*5+256*16*4)...)
	longList = append(longList, words(1<<28)...)
	for name, img := range map[string][]byte{
		"v1 list of 2^28 points":       longList,
		"v1 dim 2^14 nlist 2^16":       v1(1<<14, 1<<16),
		"v1 dim 2^12 nlist 2^16":       v1(1<<12, 1<<16),
		"v1 dim 2^30 nlist 2^31-1":     v1(1<<30, 1<<31-1),
		"v2 dim 2^14 nlist 2^16":       v2(1<<14, 1<<16),
		"v2 dim 2^12 nlist 2^16":       v2(1<<12, 1<<16),
		"v2 quant section of 2^31-1 B": append(v2(16, 1), words(1<<31-1)...),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Load(bytes.NewReader(img))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: loaded", name)
		}
		got := after.TotalAlloc - before.TotalAlloc
		if got >= 64<<20 {
			t.Fatalf("%s: allocated %d MiB before failing (%v)", name, got>>20, err)
		}
		t.Logf("%s: %d KiB, %v", name, got>>10, err)
	}
}

// TestV2DetectsBitFlips checks the per-section CRCs: flipping any
// single byte of a v2 image must fail Load instead of deserializing
// garbage.
func TestV2DetectsBitFlips(t *testing.T) {
	ix, s := smallIndex(t)
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
	ix, _ := smallIndex(t)
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
	ix, _ := smallIndex(t)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Load(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated body must fail")
	}
}

// FuzzLoad throws arbitrary bytes at Load: it must never panic or
// over-allocate, and any image it accepts must save to bytes that load and
// save again unchanged. The seeds are small: a clean v2 image, the v2
// golden (which carries a mutation overlay) and the v1 golden.
func FuzzLoad(f *testing.F) {
	ix := goldenIndex(f)
	ix.DetachOverlay()
	var clean bytes.Buffer
	if err := ix.Save(&clean); err != nil {
		f.Fatal(err)
	}
	f.Add(clean.Bytes())
	f.Add(readTestdata(f, "v2_pq.drim"))
	f.Add(readTestdata(f, "legacy_v1_pq.drim"))
	f.Fuzz(func(t *testing.T, img []byte) {
		ix, err := Load(bytes.NewReader(img))
		if err != nil {
			return
		}
		var a, b bytes.Buffer
		if err := ix.Save(&a); err != nil {
			t.Fatal(err)
		}
		re, err := Load(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("accepted image did not round-trip: %v", err)
		}
		if err := re.Save(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("saved image changed across a load")
		}
	})
}

func readTestdata(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
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

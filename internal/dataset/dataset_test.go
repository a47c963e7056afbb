package dataset

import (
	"bytes"
	"sort"
	"testing"
	"testing/quick"
)

func TestGenerateShapes(t *testing.T) {
	s := Generate(SynthConfig{N: 500, D: 16, NumQueries: 50, NumClusters: 8, Seed: 3})
	if s.Base.N != 500 || s.Base.D != 16 || len(s.Base.Data) != 500*16 {
		t.Fatalf("base shape wrong: %+v", s.Base)
	}
	if s.Queries.N != 50 || s.Queries.D != 16 {
		t.Fatalf("query shape wrong: %+v", s.Queries)
	}
	if len(s.ClusterOfBase) != 500 {
		t.Fatalf("cluster labels wrong length %d", len(s.ClusterOfBase))
	}
	for _, c := range s.ClusterOfBase {
		if c < 0 || int(c) >= 8 {
			t.Fatalf("cluster label out of range: %d", c)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(SynthConfig{N: 200, D: 8, NumQueries: 20, Seed: 9})
	b := Generate(SynthConfig{N: 200, D: 8, NumQueries: 20, Seed: 9})
	if !bytes.Equal(a.Base.Data, b.Base.Data) || !bytes.Equal(a.Queries.Data, b.Queries.Data) {
		t.Fatal("generator is not deterministic for equal seeds")
	}
	c := Generate(SynthConfig{N: 200, D: 8, NumQueries: 20, Seed: 10})
	if bytes.Equal(a.Base.Data, c.Base.Data) {
		t.Fatal("different seeds produced identical corpora")
	}
}

func TestGenerateSkew(t *testing.T) {
	s := Generate(SynthConfig{N: 5000, D: 8, NumClusters: 32, ZipfS: 1.5, Seed: 4})
	if skew := s.ClusterSizeSkew(); skew < 2 {
		t.Fatalf("expected Zipf-skewed cluster sizes, skew=%v", skew)
	}
}

func TestPresetShapes(t *testing.T) {
	cases := []struct {
		s   *Synth
		dim int
	}{
		{SIFT(300, 10, 1), 128},
		{DEEP(300, 10, 1), 96},
		{SPACEV(300, 10, 1), 100},
		{T2I(300, 10, 1), 200},
	}
	for _, c := range cases {
		if c.s.Base.D != c.dim {
			t.Fatalf("%s dim = %d, want %d", c.s.Config.Name, c.s.Base.D, c.dim)
		}
	}
}

func TestTable1Inventory(t *testing.T) {
	rows := Table1()
	if len(rows) != 6 {
		t.Fatalf("Table 1 has %d rows, want 6", len(rows))
	}
	dims := map[string]int{"ST1B (SIFT1B)": 128, "DP1B (DEEP1B)": 96, "SV1B (SPACEV1B)": 100, "T2I1B": 200}
	for _, r := range rows {
		if want, ok := dims[r.Name]; ok && r.Dim != want {
			t.Fatalf("%s dim = %d, want %d", r.Name, r.Dim, want)
		}
		if r.Vectors <= 0 {
			t.Fatalf("%s has non-positive size", r.Name)
		}
	}
}

func TestGroundTruthExactOnTiny(t *testing.T) {
	base := U8Set{N: 4, D: 2, Data: []uint8{
		0, 0,
		10, 10,
		0, 1,
		200, 200,
	}}
	queries := U8Set{N: 1, D: 2, Data: []uint8{0, 0}}
	gt := GroundTruth(base, queries, 3, 2)
	want := []int32{0, 2, 1}
	for i, id := range want {
		if gt[0][i] != id {
			t.Fatalf("gt[0] = %v, want %v", gt[0], want)
		}
	}
}

func TestGroundTruthSelfQuery(t *testing.T) {
	s := Generate(SynthConfig{N: 300, D: 8, NumQueries: 1, Seed: 5})
	// Query identical to a base vector must return that vector first.
	q := U8Set{N: 1, D: 8, Data: append([]uint8{}, s.Base.Vec(42)...)}
	gt := GroundTruth(s.Base, q, 1, 4)
	d0 := l2(q.Vec(0), s.Base.Vec(int(gt[0][0])))
	d42 := l2(q.Vec(0), s.Base.Vec(42))
	if d0 != 0 || d42 != 0 {
		t.Fatalf("self query should find an exact match, got id=%d d=%d", gt[0][0], d0)
	}
}

func l2(a, b []uint8) int {
	var s int
	for i := range a {
		d := int(a[i]) - int(b[i])
		s += d * d
	}
	return s
}

func TestRecall(t *testing.T) {
	gt := [][]int32{{1, 2, 3}, {4, 5, 6}}
	got := [][]int32{{1, 2, 9}, {4, 5, 6}}
	if r := Recall(gt, got, 3); r < 0.8333 || r > 0.8334 {
		t.Fatalf("recall = %v, want ~0.8333", r)
	}
	if r := Recall(gt, got, 2); r != 1 {
		t.Fatalf("recall@2 = %v, want 1", r)
	}
	if r := Recall(nil, nil, 5); r != 0 {
		t.Fatalf("empty recall = %v", r)
	}
}

func TestRecallPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Recall([][]int32{{1}}, nil, 1)
}

func TestFvecsRoundTrip(t *testing.T) {
	s := F32Set{N: 3, D: 4, Data: []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}}
	var buf bytes.Buffer
	if err := WriteFvecs(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFvecs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != s.N || got.D != s.D {
		t.Fatalf("shape %dx%d, want %dx%d", got.N, got.D, s.N, s.D)
	}
	for i := range s.Data {
		if got.Data[i] != s.Data[i] {
			t.Fatalf("fvecs roundtrip mismatch at %d", i)
		}
	}
}

func TestBvecsRoundTripProperty(t *testing.T) {
	f := func(rows [][4]uint8) bool {
		if len(rows) == 0 {
			return true
		}
		s := U8Set{N: len(rows), D: 4}
		for _, r := range rows {
			s.Data = append(s.Data, r[:]...)
		}
		var buf bytes.Buffer
		if err := WriteBvecs(&buf, s); err != nil {
			return false
		}
		got, err := ReadBvecs(&buf)
		if err != nil {
			return false
		}
		return got.N == s.N && got.D == s.D && bytes.Equal(got.Data, s.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIvecsRoundTrip(t *testing.T) {
	lists := [][]int32{{1, 2, 3}, {}, {42}}
	var buf bytes.Buffer
	if err := WriteIvecs(&buf, lists); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIvecs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || len(got[0]) != 3 || len(got[1]) != 0 || got[2][0] != 42 {
		t.Fatalf("ivecs roundtrip = %v", got)
	}
}

func TestReadFvecsRejectsCorrupt(t *testing.T) {
	// Negative dimension.
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFvecs(&buf); err == nil {
		t.Fatal("expected error for negative dim")
	}
	// Truncated row.
	buf.Reset()
	buf.Write([]byte{2, 0, 0, 0, 1, 2}) // dim=2 but only 2 bytes of payload
	if _, err := ReadFvecs(&buf); err == nil {
		t.Fatal("expected error for truncated row")
	}
}

func TestReadBvecsRejectsInconsistentDim(t *testing.T) {
	var buf bytes.Buffer
	s1 := U8Set{N: 1, D: 2, Data: []uint8{1, 2}}
	s2 := U8Set{N: 1, D: 3, Data: []uint8{1, 2, 3}}
	if err := WriteBvecs(&buf, s1); err != nil {
		t.Fatal(err)
	}
	if err := WriteBvecs(&buf, s2); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBvecs(&buf); err == nil {
		t.Fatal("expected error for inconsistent dims")
	}
}

func TestQuantizeF32Set(t *testing.T) {
	s := F32Set{N: 2, D: 2, Data: []float32{-1, 0, 1, 3}}
	u, q := s.Quantize()
	if u.N != 2 || u.D != 2 {
		t.Fatalf("quantized shape wrong: %+v", u)
	}
	// Extremes map to grid ends.
	if u.Data[0] != 0 {
		t.Fatalf("min should quantize to 0, got %d", u.Data[0])
	}
	if u.Data[3] != 255 {
		t.Fatalf("max should quantize to 255, got %d", u.Data[3])
	}
	if q.Scale <= 0 {
		t.Fatal("bad quantizer scale")
	}
}

func TestGroundTruthDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GroundTruth(U8Set{N: 1, D: 2, Data: []uint8{1, 2}}, U8Set{N: 1, D: 3, Data: []uint8{1, 2, 3}}, 1, 1)
}

// ClusterSizeSkew reports the ratio of the largest latent-cluster share to a
// uniform share; tests use it to confirm the generator produces the skew the
// load-balancing experiments rely on.
func (s *Synth) ClusterSizeSkew() float64 {
	counts := make([]int, s.Config.NumClusters)
	for _, c := range s.ClusterOfBase {
		counts[c]++
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	uniform := float64(s.Base.N) / float64(s.Config.NumClusters)
	return float64(counts[0]) / uniform
}

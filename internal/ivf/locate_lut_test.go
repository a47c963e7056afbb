package ivf

import (
	"math/rand"
	"testing"

	"drimann/internal/dataset"
	"drimann/internal/pq"
	"drimann/internal/topk"
	"drimann/internal/vecmath"
)

func locateFixture(t *testing.T) (*Index, *dataset.Synth) {
	return locateFixtureShape(t, 32, 40)
}

// locateShapes are the CL tests' (dimension, nlist): 32-d centroids, whole
// distance blocks in whole passes of eight, and 24-d ones, a tail after a
// block and a last pass of five.
var locateShapes = [][2]int{{32, 40}, {24, 37}}

func locateFixtureShape(t *testing.T, dim, nlist int) (*Index, *dataset.Synth) {
	t.Helper()
	s := dataset.Generate(dataset.SynthConfig{
		N: 4000, D: dim, NumQueries: 70, NumClusters: 24, Seed: 11, Noise: 10,
	})
	ix, err := Build(s.Base, BuildConfig{
		NList: nlist, PQ: pq.Config{M: 8, CB: 32}, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix, s
}

// TestLocateBatchMatchesLocateInt: the batched, worker-parallel CL stage
// must reproduce per-query LocateInt exactly, for any worker count and any
// subrange, at both shapes.
func TestLocateBatchMatchesLocateInt(t *testing.T) {
	for _, shape := range locateShapes {
		dim := shape[0]
		ix, s := locateFixtureShape(t, dim, shape[1])
		const nprobe = 12
		for _, workers := range []int{0, 1, 3} {
			for _, span := range [][2]int{{0, s.Queries.N}, {5, 29}, {63, 70}} {
				lo, hi := span[0], span[1]
				out := make([]topk.Item[uint32], (hi-lo)*nprobe)
				counts := make([]int, hi-lo)
				ix.LocateBatch(s.Queries, lo, hi, nprobe, workers, out, counts)
				for qi := lo; qi < hi; qi++ {
					want := ix.LocateInt(s.Queries.Vec(qi), nprobe)
					got := out[(qi-lo)*nprobe : (qi-lo)*nprobe+counts[qi-lo]]
					if len(got) != len(want) {
						t.Fatalf("%d-d, workers=%d query %d: %d probes, want %d", dim, workers, qi, len(got), len(want))
					}
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("%d-d, workers=%d query %d probe %d: %+v != %+v", dim, workers, qi, j, got[j], want[j])
						}
					}
				}
			}
		}
	}
}

// TestLocateBatchAllocatesNothingPerQuery: a worker's heap and distance pass
// serve every query of its chunk, so a batch of 70 queries allocates no more
// than a batch of one.
func TestLocateBatchAllocatesNothingPerQuery(t *testing.T) {
	ix, s := locateFixture(t)
	const nprobe = 12
	out := make([]topk.Item[uint32], s.Queries.N*nprobe)
	counts := make([]int, s.Queries.N)
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(20, func() {
			ix.LocateBatch(s.Queries, 0, n, nprobe, 1, out, counts)
		})
	}
	if one, all := allocs(1), allocs(s.Queries.N); all != one {
		t.Fatalf("LocateBatch allocates %v times for one query, %v for %d", one, all, s.Queries.N)
	}
}

// TestLUTBuilderBitExact: the decomposition the engine reads must agree
// entry-for-entry with both the SQT path and the multiplication path for
// every (query, cluster) pair: SubTerms[m] + ClusterTerms[m*CB+e] -
// 2*BuildQE[m*CB+e] is LUTInt's and LUTIntMul's entry (m, e) — the invariant
// that lets the engine gather from the terms without perturbing a single
// search result.
func TestLUTBuilderBitExact(t *testing.T) {
	ix, s := locateFixture(t)
	lb := ix.NewLUTBuilder(2)
	if lb == nil {
		t.Fatal("builder unexpectedly over budget")
	}
	n := ix.M * ix.CB
	p := make([]int32, ix.M)
	qe := make([]int32, n)
	wantSQT := make([]uint32, n)
	wantMul := make([]uint32, n)
	res := make([]int16, ix.Dim)

	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		qi := rng.Intn(s.Queries.N)
		c := rng.Intn(ix.NList)
		q := s.Queries.Vec(qi)
		lb.SubTerms(q, c, p)
		lb.BuildQE(q, qe)
		bc := lb.ClusterTerms(c)
		subI16(res, q, ix.CentroidU8(c))
		ix.IntCB.LUTInt(res, wantSQT, ix.SQT)
		ix.IntCB.LUTIntMul(res, wantMul)
		for i := range wantSQT {
			got := uint32(p[i/ix.CB] + bc[i] - 2*qe[i])
			if got != wantSQT[i] || got != wantMul[i] {
				t.Fatalf("trial %d (q=%d c=%d) entry %d: decomposed %d, SQT %d, mul %d",
					trial, qi, c, i, got, wantSQT[i], wantMul[i])
			}
		}
	}
}

// TestBuildQEMatchesNaive holds the gather table to its definition, qe[m*CB+e]
// = Σ_j q_j * entry_{m,e}[j], summed by a triple loop: on an index of 4
// dimensions a subspace (the scalar loop) and one of 8 (vecmath.DotRows8, at
// AVX2 width where the build has it).
func TestBuildQEMatchesNaive(t *testing.T) {
	for _, d := range []int{32, 64} {
		s := dataset.Generate(dataset.SynthConfig{N: 3000, D: d, NumQueries: 20, NumClusters: 16, Seed: 4, Noise: 12})
		ix, err := Build(s.Base, BuildConfig{NList: 16, PQ: pq.Config{M: 8, CB: 64}, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		lb, dsub := ix.NewLUTBuilder(1), d/ix.M
		qe := make([]int32, ix.M*ix.CB)
		for qi := 0; qi < s.Queries.N; qi++ {
			q := s.Queries.Vec(qi)
			lb.BuildQE(q, qe)
			for i := range qe {
				m, row := i/ix.CB, ix.IntCB.Data[i*dsub:(i+1)*dsub]
				var want int32
				for j, v := range row {
					want += int32(q[m*dsub+j]) * int32(v)
				}
				if qe[i] != want {
					t.Fatalf("dsub %d, query %d, entry %d: %d, want %d", dsub, qi, i, qe[i], want)
				}
			}
		}
	}
}

// subI16 mirrors vecmath.SubI16 locally to keep the test self-describing.
func subI16(dst []int16, a []uint8, b []uint8) {
	for i := range dst {
		dst[i] = int16(a[i]) - int16(b[i])
	}
}

// TestDecomposedADCMatchesMaterializedLUT: the LUT-free DC decomposition
// (per-query BuildQE gather table + static per-point ClusterADCSums + the
// per-(query, cluster) PTerm scalar) must reproduce, bit-for-bit, the ADC
// sums of the LUTInt LUT for every point of the cluster — the identity that
// lets the engine skip per-group LUT materialization entirely.
func TestDecomposedADCMatchesMaterializedLUT(t *testing.T) {
	ix, s := locateFixture(t)
	lb := ix.NewLUTBuilder(0)
	if lb == nil {
		t.Fatal("builder unexpectedly over budget")
	}
	lut := make([]uint32, ix.M*ix.CB)
	qe := make([]int32, ix.M*ix.CB)
	res := make([]int16, ix.Dim)

	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 30; trial++ {
		qi := rng.Intn(s.Queries.N)
		c := rng.Intn(ix.NList)
		q := s.Queries.Vec(qi)
		codes := ix.Codes[c]
		n := len(codes) / ix.M
		if n == 0 {
			continue
		}

		subI16(res, q, ix.CentroidU8(c))
		ix.IntCB.LUTInt(res, lut, ix.SQT)
		want := make([]uint32, n)
		for i := range want {
			want[i] = vecmath.ADCU32(lut, codes[i*ix.M:(i+1)*ix.M], ix.CB)
		}

		lb.BuildQE(q, qe)
		bsum := make([]int32, n)
		lb.ClusterADCSums(c, codes, bsum)
		got := make([]uint32, n)
		vecmath.ADCResidualBatch(got, qe, codes, bsum, lb.PTerm(q, c), ix.M, ix.CB)

		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (q=%d c=%d) point %d: decomposed %d != materialized %d",
					trial, qi, c, i, got[i], want[i])
			}
		}
	}
}

// TestLocateIntMatchesFullScanReference: the early-abandoning centroid scan
// must select exactly the probes (IDs, distances, order) of a naive full
// evaluation, at both shapes — LocateInt and LocateBatch share the
// abandoning scan, so this pins it against an independent reference.
func TestLocateIntMatchesFullScanReference(t *testing.T) {
	for _, shape := range locateShapes {
		dim := shape[0]
		ix, s := locateFixtureShape(t, dim, shape[1])
		const nprobe = 12
		for qi := 0; qi < s.Queries.N; qi++ {
			q := s.Queries.Vec(qi)
			h := topk.NewHeap[uint32](nprobe)
			for c := 0; c < ix.NList; c++ {
				h.Push(int32(c), vecmath.L2SquaredU8(q, ix.CentroidU8(c)))
			}
			want := h.Sorted()
			got := ix.LocateInt(q, nprobe)
			if len(got) != len(want) {
				t.Fatalf("%d-d, query %d: %d probes, want %d", dim, qi, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%d-d, query %d probe %d: %+v != full-scan %+v", dim, qi, j, got[j], want[j])
				}
			}
		}
	}
}

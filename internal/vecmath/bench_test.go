package vecmath

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func benchVectors(n int) ([]uint8, []uint8, []float32, []float32) {
	rng := rand.New(rand.NewSource(1))
	a8 := make([]uint8, n)
	b8 := make([]uint8, n)
	af := make([]float32, n)
	bf := make([]float32, n)
	for i := 0; i < n; i++ {
		a8[i] = uint8(rng.Intn(256))
		b8[i] = uint8(rng.Intn(256))
		af[i] = rng.Float32()
		bf[i] = rng.Float32()
	}
	return a8, b8, af, bf
}

// BenchmarkL2SquaredU8 times the u8 kernel per vector pair at the graph
// fixture's 24 dimensions, SIFT's 128 and GIST's 960: "full" sums every
// dimension, "abandon" passes a bound the pair's first half already exceeds,
// so it stops at the half-way block.
func BenchmarkL2SquaredU8(b *testing.B) {
	for _, dim := range []int{24, 128, 960} {
		a8, b8, _, _ := benchVectors(dim)
		half := dim / 2 / AbandonStride * AbandonStride
		for _, tc := range []struct {
			name  string
			bound uint32
		}{
			{"full", math.MaxUint32},
			{"abandon", L2SquaredU8(a8[:half], b8[:half]) - 1},
		} {
			b.Run(fmt.Sprintf("dim=%d/%s", dim, tc.name), func(b *testing.B) {
				b.SetBytes(int64(dim))
				var sink uint32
				for b.Loop() {
					s, _ := L2SquaredU8Bounded(a8, b8, tc.bound)
					sink += s
				}
				_ = sink
			})
		}
	}
}

func BenchmarkL2SquaredF32Dim128(b *testing.B) {
	_, _, af, bf := benchVectors(128)
	b.SetBytes(128 * 4)
	var sink float32
	for i := 0; i < b.N; i++ {
		sink += L2SquaredF32(af, bf)
	}
	_ = sink
}

func BenchmarkADCU32M16(b *testing.B) {
	lut := make([]uint32, 16*256)
	for i := range lut {
		lut[i] = uint32(i)
	}
	code := make([]uint16, 16)
	for i := range code {
		code[i] = uint16(i * 13 % 256)
	}
	for i := 0; i < b.N; i++ {
		_ = ADCU32(lut, code, 256)
	}
}

// adcFixture builds an M-row LUT plus n packed code rows shaped like the
// engine's DC kernel input (one cluster slice).
func adcFixture(m, cb, n int) (lut []uint32, codes []uint16) {
	rng := rand.New(rand.NewSource(3))
	lut = make([]uint32, m*cb)
	for i := range lut {
		lut[i] = rng.Uint32()
	}
	codes = make([]uint16, n*m)
	for i := range codes {
		codes[i] = uint16(rng.Intn(cb))
	}
	return lut, codes
}

// ADC micro-benchmarks: the generic per-point loop over a materialized LUT
// against the decomposed residual batch the engine's DC phase runs.

func BenchmarkADCU32GenericLoop(b *testing.B) {
	const m, cb, n = 16, 256, 1024
	lut, codes := adcFixture(m, cb, n)
	b.SetBytes(int64(n * m * 2))
	var sink uint32
	for i := 0; i < b.N; i++ {
		for p := 0; p < n; p++ {
			sink += ADCU32(lut, codes[p*m:(p+1)*m], cb)
		}
	}
	_ = sink
}

func BenchmarkADCResidualBatchM16(b *testing.B) {
	const m, cb, n = 16, 256, 1024
	_, codes := adcFixture(m, cb, n)
	rng := rand.New(rand.NewSource(4))
	qe := make([]int32, m*cb)
	for i := range qe {
		qe[i] = int32(rng.Intn(1 << 20))
	}
	bsum := make([]int32, n)
	for i := range bsum {
		bsum[i] = int32(rng.Intn(1 << 24))
	}
	dst := make([]uint32, n)
	b.SetBytes(int64(n * m * 2))
	for i := 0; i < b.N; i++ {
		ADCResidualBatch(dst, qe, codes, bsum, 12345, m, cb)
	}
}

// BenchmarkArgMinL2F32 runs the nearest-centroid kernel at the coarse
// quantizer's shape (128-d, 1024 lists) and at the PQ encoder's (8-d
// subspaces, 256 entries). The query is drawn apart from the centroids: a
// query on a centroid would make one distance 0 and let an abandoning
// kernel skip almost everything.
func BenchmarkArgMinL2F32(b *testing.B) {
	for _, sh := range []struct {
		name   string
		k, dim int
	}{
		{"coarse", 1024, 128},
		{"encode", 256, 8},
	} {
		b.Run(sh.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			centroids := make([]float32, sh.k*sh.dim)
			for i := range centroids {
				centroids[i] = rng.Float32()
			}
			query := make([]float32, sh.dim)
			for i := range query {
				query[i] = rng.Float32()
			}
			for b.Loop() {
				ArgMinL2F32(query, centroids, sh.dim)
			}
		})
	}
}

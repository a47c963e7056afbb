package vecmath

import (
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

func BenchmarkL2SquaredU8Dim128(b *testing.B) {
	a8, b8, _, _ := benchVectors(128)
	b.SetBytes(128)
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += L2SquaredU8(a8, b8)
	}
	_ = sink
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

// The ISSUE-2 ADC micro-benchmarks: generic per-point loop vs the unrolled
// M=16 kernel vs the batch dispatcher vs the decomposed residual batch. The
// engine's DC phase runs one of the batch variants per cluster slice.

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

func BenchmarkADCU32M16Unrolled(b *testing.B) {
	const m, cb, n = 16, 256, 1024
	lut, codes := adcFixture(m, cb, n)
	b.SetBytes(int64(n * m * 2))
	var sink uint32
	for i := 0; i < b.N; i++ {
		for p := 0; p < n; p++ {
			sink += ADCU32M16(lut, codes[p*m:(p+1)*m], cb)
		}
	}
	_ = sink
}

func BenchmarkADCBatchU32M16(b *testing.B) {
	const m, cb, n = 16, 256, 1024
	lut, codes := adcFixture(m, cb, n)
	dst := make([]uint32, n)
	b.SetBytes(int64(n * m * 2))
	for i := 0; i < b.N; i++ {
		ADCBatchU32(dst, lut, codes, m, cb)
	}
}

func BenchmarkADCBatchU32M8(b *testing.B) {
	const m, cb, n = 8, 256, 1024
	lut, codes := adcFixture(m, cb, n)
	dst := make([]uint32, n)
	b.SetBytes(int64(n * m * 2))
	for i := 0; i < b.N; i++ {
		ADCBatchU32(dst, lut, codes, m, cb)
	}
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

package pq

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"drimann/internal/sqt"
	"drimann/internal/vecmath"
)

// corpus generates n clustered vectors of dimension dim in roughly [-64, 64].
func corpus(rng *rand.Rand, n, dim int) []float32 {
	data := make([]float32, n*dim)
	for i := 0; i < n; i++ {
		base := float64(rng.Intn(8))*16 - 64
		for j := 0; j < dim; j++ {
			data[i*dim+j] = float32(base + rng.NormFloat64()*4)
		}
	}
	return data
}

func TestTrainValidation(t *testing.T) {
	data := corpus(rand.New(rand.NewSource(1)), 64, 8)
	if _, err := Train(data, 8, Config{M: 3, CB: 16}); err == nil {
		t.Fatal("M must divide dim")
	}
	if _, err := Train(data, 8, Config{M: 2, CB: 1}); err == nil {
		t.Fatal("CB too small must fail")
	}
	if _, err := Train(data, 8, Config{M: 2, CB: 128}); err == nil {
		t.Fatal("n < CB must fail")
	}
	if _, err := Train(data[:9], 8, Config{M: 2, CB: 4}); err == nil {
		t.Fatal("ragged data must fail")
	}
}

func TestEncodeDecodeShrinksError(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := corpus(rng, 512, 16)
	q, err := Train(data, 16, Config{M: 4, CB: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mse := q.ReconstructionMSE(data)
	// Variance of the corpus per vector: upper bound for a useful quantizer.
	mean := make([]float32, 16)
	for i, x := range data {
		mean[i%16] += x / 512
	}
	var variance float64
	for i := 0; i < 512; i++ {
		variance += float64(vecmath.L2SquaredF32(data[i*16:(i+1)*16], mean))
	}
	variance /= 512
	if mse >= variance {
		t.Fatalf("PQ reconstruction MSE %v not better than variance %v", mse, variance)
	}
}

func TestEncodeIsNearestEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := corpus(rng, 256, 8)
	q, err := Train(data, 8, Config{M: 2, CB: 16, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	code := make([]uint16, 2)
	for i := 0; i < 32; i++ {
		row := data[i*8 : (i+1)*8]
		q.Encode(row, code)
		for m := 0; m < 2; m++ {
			sub := row[m*4 : (m+1)*4]
			got := vecmath.L2SquaredF32(sub, q.Entry(m, int(code[m])))
			for c := 0; c < 16; c++ {
				if d := vecmath.L2SquaredF32(sub, q.Entry(m, c)); d < got {
					t.Fatalf("code %d not nearest in subspace %d: %v < %v", code[m], m, d, got)
				}
			}
		}
	}
}

func TestADCEqualsDecodedDistance(t *testing.T) {
	// ADC over an integer LUT must equal the exact integer distance from the
	// residual to the code's integer codebook entries.
	rng := rand.New(rand.NewSource(4))
	data := corpus(rng, 256, 12)
	q, err := Train(data, 12, Config{M: 3, CB: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ic := q.QuantizeCodebooks()
	tab := sqt.NewSQT8()
	lut := make([]uint32, q.M*q.CB)
	code := make([]uint16, q.M)
	residual := make([]int16, q.D)
	rec := make([]int16, q.D)
	for i := 0; i < 20; i++ {
		for j, x := range data[i*12 : (i+1)*12] {
			residual[j] = int16(math.Round(float64(x)))
		}
		ic.LUTInt(residual, lut, tab)
		q.Encode(data[(i+100)*12:(i+101)*12], code)
		for m, c := range code {
			copy(rec[m*q.DSub:], ic.Entry(m, int(c)))
		}
		want := vecmath.L2SquaredI16(residual, rec)
		if got := vecmath.ADCU32(lut, code, q.CB); got != want {
			t.Fatalf("ADC %d != decoded distance %d", got, want)
		}
	}
}

func TestEncodeAllShape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := corpus(rng, 128, 8)
	q, err := Train(data, 8, Config{M: 4, CB: 16, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	code := make([]uint16, q.M+1)
	for i := 0; i < 128; i++ {
		code[q.M] = 0xffff
		q.Encode(data[i*8:(i+1)*8], code[:q.M])
		for _, c := range code[:q.M] {
			if int(c) >= q.CB {
				t.Fatalf("code %d out of range", c)
			}
		}
		if code[q.M] != 0xffff {
			t.Fatal("Encode wrote past M codes")
		}
	}
}

// TestEncodeMatchesArgMin: Encode returns each subspace's first nearest
// codebook entry, the row scan's, at CB 256 and 32 (whole pairs of blocks),
// CB 20 (padded), 8-d, 4-d and 64-d subspaces, and for a quantizer New makes
// from the codebooks alone, as ivf.Load does, here with entry 3 of each
// subspace a copy of entry 1: a query on it must get code 1.
func TestEncodeMatchesArgMin(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, sh := range []struct{ dim, m, cb int }{{128, 16, 256}, {16, 4, 32}, {16, 2, 20}, {128, 2, 32}} {
		q, err := Train(corpus(rng, 2*sh.cb, sh.dim), sh.dim, Config{M: sh.m, CB: sh.cb, Iters: 2, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		dup := slices.Clone(q.Codebooks)
		for m := 0; m < q.M; m++ {
			copy(dup[(m*q.CB+3)*q.DSub:], q.Entry(m, 1))
		}
		loaded := New(q.D, q.M, q.CB, dup)
		vec, code := make([]float32, q.D), make([]uint16, q.M)
		for trial := 0; trial < 40; trial++ {
			for m := 0; m < q.M; m++ {
				sub := vec[m*q.DSub : (m+1)*q.DSub]
				switch trial % 3 {
				case 0:
					copy(sub, q.Entry(m, 1))
				case 1:
					copy(sub, q.Entry(m, rng.Intn(q.CB)))
				default:
					for j := range sub {
						sub[j] = float32(rng.NormFloat64() * 40)
					}
				}
			}
			for _, qq := range []*Quantizer{q, loaded} {
				qq.Encode(vec, code)
				for m, c := range code {
					want, wantDist := 0, float32(math.MaxFloat32)
					for e := range q.CB {
						if d := vecmath.L2SquaredF32(vec[m*q.DSub:(m+1)*q.DSub], qq.Entry(m, e)); d < wantDist {
							want, wantDist = e, d
						}
					}
					if int(c) != want || trial%3 == 0 && c != 1 {
						t.Fatalf("dim %d M %d CB %d trial %d subspace %d: code %d, row scan %d", sh.dim, sh.m, sh.cb, trial, m, c, want)
					}
				}
			}
		}
	}
}

func TestTrainSampleCapsWork(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := corpus(rng, 2048, 8)
	q, err := Train(data, 8, Config{M: 2, CB: 16, Seed: 7, TrainSample: 256})
	if err != nil {
		t.Fatal(err)
	}
	if q.ReconstructionMSE(data) <= 0 {
		t.Fatal("sampled training should still produce a useful quantizer")
	}
}

func TestQuantizeCodebooksClamps(t *testing.T) {
	q := &Quantizer{D: 2, M: 1, CB: 2, DSub: 2, Codebooks: []float32{300, -300, 1.4, -1.6}}
	ic := q.QuantizeCodebooks()
	want := []int16{255, -255, 1, -2}
	for i := range want {
		if ic.Data[i] != want[i] {
			t.Fatalf("IntCodebooks[%d] = %d, want %d", i, ic.Data[i], want[i])
		}
	}
}

func TestLUTIntSQTBitExactWithMul(t *testing.T) {
	// The multiplier-less LC kernel must match multiplication bit-for-bit.
	rng := rand.New(rand.NewSource(7))
	data := corpus(rng, 256, 8)
	q, err := Train(data, 8, Config{M: 2, CB: 16, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	ic := q.QuantizeCodebooks()
	tab := sqt.NewSQT8()
	lutA := make([]uint32, q.M*q.CB)
	lutB := make([]uint32, q.M*q.CB)
	residual := make([]int16, 8)
	for trial := 0; trial < 100; trial++ {
		for j := range residual {
			residual[j] = int16(rng.Intn(511) - 255)
		}
		ic.LUTInt(residual, lutA, tab)
		ic.LUTIntMul(residual, lutB)
		for i := range lutA {
			if lutA[i] != lutB[i] {
				t.Fatalf("SQT LUT differs from mul LUT at %d: %d vs %d", i, lutA[i], lutB[i])
			}
		}
	}
}

func TestADCU32MatchesLUTSumProperty(t *testing.T) {
	q := &Quantizer{D: 8, M: 2, CB: 4, DSub: 4}
	f := func(lutRaw [8]uint8, c0, c1 uint8) bool {
		lut := make([]uint32, 8)
		for i, v := range lutRaw {
			lut[i] = uint32(v)
		}
		code := []uint16{uint16(c0 % 4), uint16(c1 % 4)}
		got := vecmath.ADCU32(lut, code, q.CB)
		want := lut[int(code[0])] + lut[4+int(code[1])]
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Entry returns codebook entry c of subspace m as a slice view.
func (q *Quantizer) Entry(m, c int) []float32 {
	off := (m*q.CB + c) * q.DSub
	return q.Codebooks[off : off+q.DSub]
}

// Decode reconstructs the vector of a code into out (length D).
func (q *Quantizer) Decode(code []uint16, out []float32) {
	for m := 0; m < q.M; m++ {
		copy(out[m*q.DSub:(m+1)*q.DSub], q.Entry(m, int(code[m])))
	}
}

// ReconstructionMSE reports the mean squared reconstruction error over flat
// data, the quantity PQ training minimizes.
func (q *Quantizer) ReconstructionMSE(data []float32) float64 {
	n := len(data) / q.D
	if n == 0 {
		return 0
	}
	code := make([]uint16, q.M)
	rec := make([]float32, q.D)
	var total float64
	for i := 0; i < n; i++ {
		row := data[i*q.D : (i+1)*q.D]
		q.Encode(row, code)
		q.Decode(code, rec)
		total += float64(vecmath.L2SquaredF32(row, rec))
	}
	return total / float64(n)
}

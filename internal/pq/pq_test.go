package pq

import (
	"math"
	"math/rand"
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
	mean := vecmath.MeanVec(data, 16)
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
	// ADC with a LUT must equal the exact distance to the decoded vector.
	rng := rand.New(rand.NewSource(4))
	data := corpus(rng, 256, 12)
	q, err := Train(data, 12, Config{M: 3, CB: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	lut := make([]float32, q.M*q.CB)
	code := make([]uint16, q.M)
	rec := make([]float32, q.D)
	for i := 0; i < 20; i++ {
		query := data[i*12 : (i+1)*12]
		q.LUT(query, lut)
		target := data[(i+100)*12 : (i+101)*12]
		q.Encode(target, code)
		q.Decode(code, rec)
		want := vecmath.L2SquaredF32(query, rec)
		got := vecmath.ADCF32(lut, code, q.CB)
		if math.Abs(float64(got-want)) > 1e-2*math.Max(1, float64(want)) {
			t.Fatalf("ADC %v != decoded distance %v", got, want)
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
	codes := q.EncodeAll(data)
	if len(codes) != 128*4 {
		t.Fatalf("EncodeAll length %d", len(codes))
	}
	for _, c := range codes {
		if int(c) >= q.CB {
			t.Fatalf("code %d out of range", c)
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

func TestOPQRotationOrthogonal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := corpus(rng, 300, 8)
	o, err := TrainOPQ(data, 8, Config{M: 2, CB: 16, Seed: 10}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// R must be orthogonal: rotating preserves norms.
	for i := 0; i < 10; i++ {
		v := data[i*8 : (i+1)*8]
		rv := o.Rotate(v)
		n1 := vecmath.NormSquaredF32(v)
		n2 := vecmath.NormSquaredF32(rv)
		if math.Abs(float64(n1-n2)) > 1e-2*math.Max(1, float64(n1)) {
			t.Fatalf("rotation does not preserve norm: %v vs %v", n1, n2)
		}
	}
}

func TestOPQNotWorseThanPQOnCorrelatedData(t *testing.T) {
	// Strongly correlated dimensions: OPQ's rotation should help (or at least
	// not hurt) versus axis-aligned PQ.
	rng := rand.New(rand.NewSource(10))
	n, dim := 600, 8
	data := make([]float32, n*dim)
	for i := 0; i < n; i++ {
		base := rng.NormFloat64() * 20
		for j := 0; j < dim; j++ {
			data[i*dim+j] = float32(base + rng.NormFloat64()*1)
		}
	}
	cfg := Config{M: 4, CB: 16, Seed: 11}
	q, err := Train(data, dim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o, err := TrainOPQ(data, dim, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	pqMSE := q.ReconstructionMSE(data)
	opqMSE := opqReconstructionMSE(o, data)
	if opqMSE > pqMSE*1.10 {
		t.Fatalf("OPQ MSE %v much worse than PQ MSE %v", opqMSE, pqMSE)
	}
}

func TestDPQRefinementNotWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	data := corpus(rng, 512, 8)
	cfg := Config{M: 2, CB: 16, Seed: 13}
	q, err := Train(data, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := TrainDPQ(data, 8, cfg, 8, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	base := q.ReconstructionMSE(data)
	refined := d.ReconstructionMSE(data)
	if refined > base*1.05 {
		t.Fatalf("DPQ refinement regressed MSE: %v vs %v", refined, base)
	}
}

func TestDPQValidation(t *testing.T) {
	if _, err := TrainDPQ([]float32{1, 2}, 2, Config{M: 3, CB: 4}, 1, 0.1); err == nil {
		t.Fatal("expected error propagation from Train")
	}
}

// opqReconstructionMSE is the rotated-space reconstruction error of o on data.
func opqReconstructionMSE(o *OPQ, data []float32) float64 {
	rotated := make([]float32, len(data))
	applyRotation(rotated, data, o.R, o.PQ.D)
	return o.PQ.ReconstructionMSE(rotated)
}

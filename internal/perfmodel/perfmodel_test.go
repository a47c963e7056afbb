package perfmodel

import (
	"math"
	"testing"

	"drimann/internal/upmem"
)

func params() Params {
	return Params{
		N: 1_000_000, Q: 1000, D: 128,
		K: 10, P: 32, C: 100, M: 16, CB: 256,
	}
}

func TestDistEquation2(t *testing.T) {
	// dist(X) = 3X - 1 with a unit-cost multiply (the paper's form).
	if got := Dist(128, 1); got != 3*128-1 {
		t.Fatalf("Dist(128,1) = %v, want %v", got, 3*128-1)
	}
	// SQT replaces the multiply with abs+load (2 ops).
	if got := Dist(8, 2); got != 8*4-1 {
		t.Fatalf("Dist(8,2) = %v", got)
	}
	// Software multiply on UPMEM costs 32.
	if Dist(8, 32) <= Dist(8, 2) {
		t.Fatal("software multiply must dominate SQT cost")
	}
}

func TestCostsHandComputedCL(t *testing.T) {
	p := params()
	costs, err := Costs(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Equation 1: Q * N/C * (dist(D) + log2(P) - 1).
	nlist := float64(p.N) / float64(p.C)
	wantCompute := float64(p.Q) * nlist * (float64(3*p.D-1) + 5 - 1)
	if math.Abs(costs[upmem.PhaseCL].Compute-wantCompute) > 1e-6*wantCompute {
		t.Fatalf("CL compute = %v, want %v", costs[upmem.PhaseCL].Compute, wantCompute)
	}
	// Equation 3 IO with Bc=Bq=1, Bl=Ba=4.
	wantIO := float64(p.Q) * nlist * (2*float64(p.D) + 8*(5+1))
	if math.Abs(costs[upmem.PhaseCL].IO-wantIO) > 1e-6*wantIO {
		t.Fatalf("CL IO = %v, want %v", costs[upmem.PhaseCL].IO, wantIO)
	}
}

func TestCostsHandComputedRCDC(t *testing.T) {
	p := params()
	costs, err := Costs(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Equation 4: Q*P*D.
	if got, want := costs[upmem.PhaseRC].Compute, float64(p.Q*p.P*p.D); got != want {
		t.Fatalf("RC compute = %v, want %v", got, want)
	}
	// Equation 5: (Bc+Bq)*Q*P*D.
	if got, want := costs[upmem.PhaseRC].IO, 2*float64(p.Q*p.P*p.D); got != want {
		t.Fatalf("RC IO = %v, want %v", got, want)
	}
	// Equation 8: Q*P*C*(M-1).
	if got, want := costs[upmem.PhaseDC].Compute, float64(p.Q*p.P*p.C*(p.M-1)); got != want {
		t.Fatalf("DC compute = %v, want %v", got, want)
	}
	// Equation 9: Q*P*C*((Ba+Bl)*M + Bl).
	if got, want := costs[upmem.PhaseDC].IO, float64(p.Q*p.P*p.C)*(8*16+4); got != want {
		t.Fatalf("DC IO = %v, want %v", got, want)
	}
}

func TestCostsValidation(t *testing.T) {
	p := params()
	p.M = 7 // does not divide 128
	if _, err := Costs(p, 1); err == nil {
		t.Fatal("expected error for M not dividing D")
	}
	p = params()
	p.Q = 0
	if _, err := Costs(p, 1); err == nil {
		t.Fatal("expected error for Q=0")
	}
}

func TestLCBottleneckShiftsWithNlist(t *testing.T) {
	// Figure 9's phenomenon: raising nlist (lowering C) moves the PIM
	// bottleneck from DC to LC.
	// LC work per probed cluster scales with ~4*CB*D ops; DC with C*(M-1).
	// The crossover sits at C ~ 8500 for these parameters — consistent with
	// the paper, where nlist=2^13 on 100M vectors (C~12k) is DC-bound and
	// nlist=2^16 (C~1.5k) is LC-bound.
	smallNlist := params()
	smallNlist.C = 12000 // nlist ~ 83: DC-dominated
	bigNlist := params()
	bigNlist.C = 1500 // nlist ~ 667: LC-dominated

	cs, err := Costs(smallNlist, 2)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := Costs(bigNlist, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cs[upmem.PhaseDC].Compute <= cs[upmem.PhaseLC].Compute {
		t.Fatal("with few clusters DC should dominate LC")
	}
	if cb[upmem.PhaseLC].Compute <= cb[upmem.PhaseDC].Compute {
		t.Fatal("with many clusters LC should dominate DC")
	}
}

func TestLUTOccupancy(t *testing.T) {
	// One point references exactly one entry per subspace; few points almost
	// all reference distinct ones; many points saturate at the dense CB.
	if got := LUTOccupancy(256, 1); math.Abs(got-1) > 1e-9 {
		t.Fatalf("LUTOccupancy(256, 1) = %v, want 1", got)
	}
	if got := LUTOccupancy(256, 8); got > 8 || got < 7.8 {
		t.Fatalf("LUTOccupancy(256, 8) = %v, want just under 8", got)
	}
	if got := LUTOccupancy(256, 100_000); math.Abs(got-256) > 1e-6 {
		t.Fatalf("LUTOccupancy(256, 1e5) = %v, want 256", got)
	}
	if got, want := LUTOccupancy(256, 62), 256*(1-math.Pow(255.0/256, 62)); math.Abs(got-want) > 1e-9 {
		t.Fatalf("LUTOccupancy(256, 62) = %v, want %v", got, want)
	}
	prev := 0.0
	for n := 1; n < 5000; n += 37 {
		occ := LUTOccupancy(256, n)
		if occ <= prev || occ > 256 {
			t.Fatalf("occupancy not increasing toward CB at n=%d: %v after %v", n, occ, prev)
		}
		prev = occ
	}
}

func TestLCCostFollowsOccupancy(t *testing.T) {
	// Equations 6-7 over the referenced entries: per probed cluster the LC
	// cost is the dense one scaled by occupancy/CB — about C/CB of it for
	// tiny clusters, all of it for huge ones — and the DC-vs-LC ordering
	// stays what Figure 9 shows at both ends: LC dominates a small cluster
	// even at a fifth of the dense LUT, DC dominates a huge one.
	dense := func(p Params) float64 {
		return float64(p.Q*p.P*p.CB*p.M) * Dist(p.D/p.M, 2)
	}
	for _, tc := range []struct {
		c        int
		fraction float64 // expected LC / dense LC
		lcOverDC bool
	}{
		{c: 16, fraction: LUTOccupancy(256, 16) / 256, lcOverDC: true},
		{c: 60, fraction: LUTOccupancy(256, 60) / 256, lcOverDC: true},
		{c: 1500, fraction: 1, lcOverDC: true},
		{c: 50_000, fraction: 1, lcOverDC: false},
	} {
		p := params()
		p.C = tc.c
		costs, err := Costs(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		lc, dc := costs[upmem.PhaseLC], costs[upmem.PhaseDC]
		if got := lc.Compute / dense(p); math.Abs(got-tc.fraction) > 0.01 {
			t.Fatalf("C=%d: LC is %.3f of dense, want %.3f", tc.c, got, tc.fraction)
		}
		if tc.c <= 60 && lc.Compute/dense(p) > 1.05*float64(tc.c)/256 {
			t.Fatalf("C=%d: a tiny cluster references about C entries, got %.3f of dense", tc.c, lc.Compute/dense(p))
		}
		if (lc.Compute > dc.Compute) != tc.lcOverDC {
			t.Fatalf("C=%d: LC %v vs DC %v, want LC dominant = %v", tc.c, lc.Compute, dc.Compute, tc.lcOverDC)
		}
		// IO shrinks by the same factor as compute.
		if denseIO := float64(p.Q*p.P*p.CB) * (3*float64(p.D) + 4*float64(p.M)); math.Abs(lc.IO/denseIO-lc.Compute/dense(p)) > 1e-9 {
			t.Fatalf("C=%d: LC IO and compute scale differently", tc.c)
		}
	}
}

func TestPhaseTimeMaxForm(t *testing.T) {
	hw := Hardware{PE: 10, FreqHz: 1e9, Lanes: 1, BWBytes: 1e9}
	computeBound := PhaseCost{Compute: 1e12, IO: 1}
	ioBound := PhaseCost{Compute: 1, IO: 1e12}
	if got := PhaseTime(computeBound, hw); got != 1e12/1e10 {
		t.Fatalf("compute-bound time = %v", got)
	}
	if got := PhaseTime(ioBound, hw); got != 1e12/1e9 {
		t.Fatalf("io-bound time = %v", got)
	}
}

// TestUPMEMPreset pins the preset to the figures its callers spelled out
// before it existed: 350 MHz at 0.30 ops a cycle, 0.7 GB/s a DPU.
func TestUPMEMPreset(t *testing.T) {
	for _, dpus := range []int{16, 64, 128} {
		want := Hardware{PE: float64(dpus), FreqHz: 105e6, Lanes: 1, BWBytes: float64(dpus) * 700e6}
		if got := UPMEM(dpus); got != want {
			t.Fatalf("UPMEM(%d) = %+v, want %+v", dpus, got, want)
		}
	}
}

func TestBatchTimeOverlapsHostAndPIM(t *testing.T) {
	p := params()
	costs, err := Costs(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	host := FromPlatform(upmem.PlatformCPU())
	pim := FromPlatform(upmem.PlatformUPMEM(32))
	asg := DefaultAssignment()
	total := BatchTime(costs, host, pim, asg)

	var hostT, pimT float64
	for ph := upmem.Phase(0); ph < upmem.NumPhases; ph++ {
		if costs[ph].Compute == 0 && costs[ph].IO == 0 {
			continue
		}
		if asg.HostPhases[ph] {
			hostT += PhaseTime(costs[ph], host)
		} else {
			pimT += PhaseTime(costs[ph], pim)
		}
	}
	if total != math.Max(hostT, pimT) {
		t.Fatalf("BatchTime = %v, want max(%v, %v)", total, hostT, pimT)
	}
}

func TestPredictQPSSQTHelps(t *testing.T) {
	// An LC-bound point (C = 1500 fills the LUT): at params()' C = 100 the
	// reference-driven kernel builds a third of it and this platform is
	// bound by host CL either way, which SQT cannot help.
	p := params()
	p.C = 1500
	host := FromPlatform(upmem.PlatformCPU())
	pim := FromPlatform(upmem.PlatformUPMEM(32))
	withSQT, err := PredictQPS(p, host, pim, true)
	if err != nil {
		t.Fatal(err)
	}
	withoutSQT, err := PredictQPS(p, host, pim, false)
	if err != nil {
		t.Fatal(err)
	}
	if withSQT <= withoutSQT {
		t.Fatalf("SQT must improve predicted QPS: %v vs %v", withSQT, withoutSQT)
	}
	ratio := withSQT / withoutSQT
	if ratio > 32 {
		t.Fatalf("SQT gain %v cannot exceed the multiply cost ratio", ratio)
	}
}

func TestQPSMonotonicInNprobe(t *testing.T) {
	host := FromPlatform(upmem.PlatformCPU())
	pim := FromPlatform(upmem.PlatformUPMEM(32))
	prev := math.Inf(1)
	for _, nprobe := range []int{16, 32, 64, 128} {
		p := params()
		p.P = nprobe
		qps, err := PredictQPS(p, host, pim, true)
		if err != nil {
			t.Fatal(err)
		}
		if qps >= prev {
			t.Fatalf("QPS should fall as nprobe grows: %v -> %v", prev, qps)
		}
		prev = qps
	}
}

func TestC2IO(t *testing.T) {
	pc := PhaseCost{Compute: 100, IO: 50}
	if pc.C2IO() != 2 {
		t.Fatalf("C2IO = %v", pc.C2IO())
	}
	if !math.IsInf(PhaseCost{Compute: 1}.C2IO(), 1) {
		t.Fatal("zero IO should give infinite C2IO")
	}
}

func TestArithmeticIntensityLow(t *testing.T) {
	// ANNS is memory-hungry: its overall arithmetic intensity is low
	// (Figure 2 places it well left of the GPU roofline knee).
	costs, err := Costs(params(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ai := ArithmeticIntensity(costs)
	if ai <= 0 || ai > 20 {
		t.Fatalf("arithmetic intensity %v outside plausible ANNS range", ai)
	}
}

func TestDatasetBytes(t *testing.T) {
	p := params()
	want := float64(p.N)*128 + float64(p.N)*16
	if got := DatasetBytes(p); got != want {
		t.Fatalf("DatasetBytes = %v, want %v", got, want)
	}
}

// TestCodeBytesDefaultFollowsCB: a point's sub-code takes one byte up to 256
// codebook entries and two past it.
func TestCodeBytesDefaultFollowsCB(t *testing.T) {
	p := params()
	for _, tc := range []struct{ cb, bytes int }{{256, 1}, {257, 2}, {1024, 2}} {
		p.CB = tc.cb
		want := float64(p.N)*128 + float64(p.N)*16*float64(tc.bytes)
		if got := DatasetBytes(p); got != want {
			t.Fatalf("CB=%d: DatasetBytes = %v, want %v", tc.cb, got, want)
		}
	}
}

// TestFitShares: empty bins take their neighbours' pooled share, a rise is
// pooled away, the measured total is conserved, and nothing measured is the
// prior everywhere.
func TestFitShares(t *testing.T) {
	price := []float64{100, 0, 100, 100, 0, 50}
	cycles := []float64{60, 0, 30, 40, 0, 5}
	share := FitShares(cycles, price, 0.4)
	want := []float64{0.6, 0.6, 0.35, 0.35, 0.35, 0.1}
	var priced, total float64
	for b, s := range share {
		if math.Abs(s-want[b]) > 1e-12 {
			t.Fatalf("share %v, want %v", share, want)
		}
		priced, total = priced+s*price[b], total+cycles[b]
	}
	if math.Abs(priced-total) > 1e-9 {
		t.Fatalf("the table prices the measured scans at %v, they cost %v", priced, total)
	}
	for _, s := range FitShares(make([]float64, 4), make([]float64, 4), 0.4) {
		if s != 0.4 {
			t.Fatalf("nothing measured: share %v, want the prior", s)
		}
	}
}

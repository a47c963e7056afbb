package upmem

import (
	"math/rand"
	"testing"
)

// TestTallyMatchesPerOpCharging: a randomized charge sequence applied (a)
// per op directly to a DPU and (b) accumulated in a Tally and flushed once
// must leave bit-identical phase statistics, including the per-call DMA
// coalescing of RandomAccess.
func TestTallyMatchesPerOpCharging(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cfg := DefaultConfig(2)
	cfg.defaults()
	for trial := 0; trial < 20; trial++ {
		direct := &DPU{cfg: &cfg}
		tallied := &DPU{cfg: &cfg}
		var tally Tally
		for i := 0; i < 200; i++ {
			p := Phase(rng.Intn(int(NumPhases)))
			n := uint64(rng.Intn(1000))
			switch rng.Intn(5) {
			case 0:
				op := Op(rng.Intn(int(OpMul) + 1))
				direct.Charge(p, op, n)
				tally.Charge(p, op, n)
			case 1:
				direct.ChargeCycles(p, n)
				tally.ChargeCycles(p, n)
			case 2:
				direct.DMA(p, n)
				tally.DMA(p, n)
			case 3:
				// Odd n exercises the coalescing round-up, which is only
				// bit-identical when applied per call.
				direct.RandomAccess(p, n)
				tally.RandomAccess(p, n)
			case 4:
				// A counted burst of variable-size transfers, charged in bulk.
				var bytes uint64
				k := uint64(rng.Intn(8))
				for j := uint64(0); j < k; j++ {
					b := uint64(rng.Intn(64))
					direct.DMA(p, b)
					bytes += b
				}
				tally.DMAs(p, k, bytes)
			}
		}
		tallied.ApplyTally(&tally)
		for p := Phase(0); p < NumPhases; p++ {
			if direct.Stats(p) != tallied.Stats(p) {
				t.Fatalf("trial %d phase %s: tallied %+v != direct %+v",
					trial, p, tallied.Stats(p), direct.Stats(p))
			}
			if direct.PhaseCycles(p) != tallied.PhaseCycles(p) {
				t.Fatalf("trial %d phase %s: wall cycles diverge", trial, p)
			}
		}
	}
}

// TestTallyReset: a reset tally applies as zero.
func TestTallyReset(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.defaults()
	var tally Tally
	tally.ChargeCycles(PhaseDC, 100)
	tally.DMA(PhaseLC, 64)
	tally.Reset()
	d := &DPU{cfg: &cfg}
	d.ApplyTally(&tally)
	if d.TotalCycles() != 0 {
		t.Fatalf("reset tally charged %d cycles", d.TotalCycles())
	}
}

package upmem

import (
	"testing"
	"testing/quick"
)

func newTestSystem(t *testing.T, n int) *System {
	t.Helper()
	s, err := NewSystem(DefaultConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(Config{NumDPUs: 0}); err == nil {
		t.Fatal("NumDPUs=0 must fail")
	}
	s := newTestSystem(t, 4)
	if len(s.DPUs) != 4 {
		t.Fatalf("got %d DPUs", len(s.DPUs))
	}
	if s.Cfg.WRAMBytes != 64*1024 || s.Cfg.MRAMBytes != 64*1024*1024 {
		t.Fatalf("defaults not applied: %+v", s.Cfg)
	}
}

func TestMulCosts32xAdd(t *testing.T) {
	// The paper's headline hardware constraint.
	s := newTestSystem(t, 1)
	d := s.DPUs[0]
	d.Charge(PhaseLC, OpAdd, 100)
	addCycles := d.Stats(PhaseLC).ComputeCycles
	d.ResetCounters()
	d.Charge(PhaseLC, OpMul, 100)
	mulCycles := d.Stats(PhaseLC).ComputeCycles
	if mulCycles != 32*addCycles {
		t.Fatalf("mul/add ratio = %d/%d, want 32x", mulCycles, addCycles)
	}
}

// TestPipelineScaling: with Tasklets at least the 11 the pipeline needs, a
// DPU issues one instruction a cycle, so instruction cycles are wall cycles.
func TestPipelineScaling(t *testing.T) {
	if Tasklets < 11 {
		t.Fatalf("Tasklets = %d starves the 11-deep pipeline", Tasklets)
	}
	d := newTestSystem(t, 1).DPUs[0]
	d.Charge(PhaseDC, OpAdd, 100)
	if got := d.PhaseCycles(PhaseDC); got != 100 {
		t.Fatalf("16-tasklet cycles = %d, want 100", got)
	}
}

func TestDMACostModel(t *testing.T) {
	s := newTestSystem(t, 1)
	d := s.DPUs[0]
	d.DMA(PhaseDC, 1024)
	io := d.Stats(PhaseDC).IOCycles()
	want := uint64(77) + uint64(1024*0.5)
	if io != want {
		t.Fatalf("DMA cycles = %d, want %d", io, want)
	}
	// Two small DMAs cost more than one large DMA of the same total size —
	// the reason the engine batches MRAM reads.
	d.ResetCounters()
	d.DMA(PhaseDC, 512)
	d.DMA(PhaseDC, 512)
	two := d.Stats(PhaseDC).IOCycles()
	if two <= want {
		t.Fatalf("split DMA %d should cost more than one transfer %d", two, want)
	}
}

func TestComputeIOOverlap(t *testing.T) {
	// Phase time is max(compute, IO), per Equation 12.
	s := newTestSystem(t, 1)
	d := s.DPUs[0]
	d.Charge(PhaseLC, OpAdd, 10)
	d.DMA(PhaseLC, 100000)
	io := d.Stats(PhaseLC).IOCycles()
	if got := d.PhaseCycles(PhaseLC); got != io {
		t.Fatalf("IO-bound phase = %d, want %d", got, io)
	}
	d.ResetCounters()
	d.Charge(PhaseLC, OpMul, 1000000)
	d.DMA(PhaseLC, 10)
	if got := d.PhaseCycles(PhaseLC); got != 32*1000000 {
		t.Fatalf("compute-bound phase = %d, want %d", got, 32*1000000)
	}
}

func TestWRAMCapacity(t *testing.T) {
	s := newTestSystem(t, 1)
	d := s.DPUs[0]
	if err := d.AllocWRAM(60 * 1024); err != nil {
		t.Fatal(err)
	}
	if err := d.AllocWRAM(8 * 1024); err == nil {
		t.Fatal("expected WRAM overflow")
	}
	if d.WRAMFree() != 4*1024 {
		t.Fatalf("WRAMFree = %d", d.WRAMFree())
	}
	if err := d.AllocWRAM(-1); err == nil {
		t.Fatal("negative alloc must fail")
	}
}

func TestMRAMCapacity(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.MRAMBytes = 1024
	s, _ := NewSystem(cfg)
	d := s.DPUs[0]
	if err := d.AllocMRAM(1000); err != nil {
		t.Fatal(err)
	}
	if err := d.AllocMRAM(100); err == nil {
		t.Fatal("expected MRAM overflow")
	}
	if free := d.cfg.MRAMBytes - d.mramUsed; free != 24 {
		t.Fatalf("MRAM free = %d", free)
	}
}

func TestHostTransferModel(t *testing.T) {
	s := newTestSystem(t, 100)
	bw := s.Cfg.HostBWBytesPerSec()
	// 0.75% of aggregate internal bandwidth.
	wantBW := 0.0075 * 100 * StreamBytesPerSec
	if bw != wantBW {
		t.Fatalf("host BW = %g, want %g", bw, wantBW)
	}
	s.TransferToDPUs(1 << 20)
	s.TransferFromDPUs(1 << 20)
	s.Launch()
	sec := s.TransferSeconds()
	want := float64(2<<20)/bw + 20e-6
	if diff := sec - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("transfer seconds = %g, want %g", sec, want)
	}
	toDev, fromDev := s.hostToDev, s.devToHost
	if toDev != 1<<20 || fromDev != 1<<20 {
		t.Fatalf("transferred = %d/%d", toDev, fromDev)
	}
}

func TestImbalanceMetric(t *testing.T) {
	s := newTestSystem(t, 4)
	for i, d := range s.DPUs {
		d.Charge(PhaseDC, OpAdd, uint64(100*(i+1)))
	}
	// cycles: 100,200,300,400 -> mean 250, max 400
	if got := s.Imbalance(); got != 400.0/250.0 {
		t.Fatalf("imbalance = %v", got)
	}
	if s.MaxDPUCycles() != 400 {
		t.Fatalf("max cycles = %d", s.MaxDPUCycles())
	}
	s.ResetCounters()
	if s.Imbalance() != 1 {
		t.Fatal("empty system should report imbalance 1")
	}
}

func TestPhaseCyclesMax(t *testing.T) {
	s := newTestSystem(t, 3)
	s.DPUs[0].Charge(PhaseLC, OpAdd, 10)
	s.DPUs[1].Charge(PhaseLC, OpAdd, 50)
	s.DPUs[2].Charge(PhaseLC, OpAdd, 30)
	if got := s.PhaseCyclesMax(PhaseLC); got != 50 {
		t.Fatalf("PhaseCyclesMax = %d", got)
	}
}

func TestSecondsConversion(t *testing.T) {
	if sec := Seconds(350e6); sec != 1 {
		t.Fatalf("350M cycles at 350MHz = %v s, want 1", sec)
	}
}

func TestPhaseString(t *testing.T) {
	names := map[Phase]string{PhaseCL: "CL", PhaseRC: "RC", PhaseLC: "LC", PhaseDC: "DC", PhaseTS: "TS", PhaseOther: "Others"}
	for p, want := range names {
		if p.String() != want {
			t.Fatalf("Phase %d = %q, want %q", int(p), p.String(), want)
		}
	}
	if Phase(99).String() == "" {
		t.Fatal("unknown phase should still stringify")
	}
}

func TestChargeMonotoneProperty(t *testing.T) {
	// More instructions never cost fewer cycles.
	f := func(a, b uint16) bool {
		s := newTestSystemQuick()
		d := s.DPUs[0]
		d.Charge(PhaseDC, OpAdd, uint64(a))
		ca := d.PhaseCycles(PhaseDC)
		d.Charge(PhaseDC, OpAdd, uint64(b))
		cb := d.PhaseCycles(PhaseDC)
		return cb >= ca
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func newTestSystemQuick() *System {
	s, err := NewSystem(DefaultConfig(1))
	if err != nil {
		panic(err)
	}
	return s
}

func TestRooflinePlatforms(t *testing.T) {
	cpu, gpu := PlatformCPU(), PlatformGPU()
	upmem24 := PlatformUPMEM(24)
	upmem32 := PlatformUPMEM(32)

	// At ANNS-like low arithmetic intensity (~1 op/byte) the CPU is
	// bandwidth-bound and the GPU is far faster — Figure 2's shape.
	ai := 1.0
	if cpu.RooflineGOPs(ai) >= gpu.RooflineGOPs(ai) {
		t.Fatal("GPU must beat CPU at low AI")
	}
	if cpu.RooflineGOPs(ai) != ai*cpu.MemBWGBs {
		t.Fatal("CPU must be bandwidth-bound at AI=1")
	}
	// UPMEM scales linearly with DIMM count.
	if upmem32.MemBWGBs <= upmem24.MemBWGBs || upmem32.PeakGOPs <= upmem24.PeakGOPs {
		t.Fatal("UPMEM must scale with DIMMs")
	}
	// UPMEM x24 has bandwidth comparable to the A100 (paper: "comparable").
	ratio := upmem24.MemBWGBs / gpu.MemBWGBs
	if ratio < 0.5 || ratio > 1.5 {
		t.Fatalf("UPMEM x24 BW / A100 BW = %v, want ~1", ratio)
	}
	// But UPMEM is compute-poor: peak is a tiny fraction of the GPU's.
	if PlatformUPMEM(32).PeakGOPs/gpu.PeakGOPs > 0.05 {
		t.Fatal("UPMEM compute should be a small fraction of A100")
	}
}

func TestGPUOOM(t *testing.T) {
	gpu := PlatformGPU()
	sift100m := 100e6 * 128.0 // bytes, uint8
	sift1b := 1e9 * 128.0
	if !gpu.Fits(sift100m) {
		t.Fatal("SIFT100M must fit A100")
	}
	if gpu.Fits(sift1b) {
		t.Fatal("SIFT1B must OOM on A100 (Figure 2's X markers)")
	}
	if !PlatformUPMEM(32).Fits(sift100m) {
		t.Fatal("SIFT100M must fit UPMEM x32")
	}
}

func TestRooflineMonotone(t *testing.T) {
	p := PlatformCPU()
	prev := 0.0
	for ai := 0.1; ai < 100; ai *= 2 {
		g := p.RooflineGOPs(ai)
		if g < prev {
			t.Fatal("roofline must be monotone in AI")
		}
		if g > p.PeakGOPs {
			t.Fatal("roofline must cap at peak")
		}
		prev = g
	}
}

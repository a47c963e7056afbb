package energy

import "testing"

func TestWattsClampsUtilization(t *testing.T) {
	p := PowerModel{IdleWatts: 100, ActiveWatts: 200}
	if p.Watts(-1) != 100 {
		t.Fatalf("negative utilization should clamp to idle, got %v", p.Watts(-1))
	}
	if p.Watts(2) != 300 {
		t.Fatalf("over-unity utilization should clamp to full, got %v", p.Watts(2))
	}
	if p.Watts(0.5) != 200 {
		t.Fatalf("half utilization = %v, want 200", p.Watts(0.5))
	}
}

func TestEnergyIsPowerTimesTime(t *testing.T) {
	p := PowerModel{IdleWatts: 50, ActiveWatts: 50}
	if got := p.Energy(10, 1); got != 1000 {
		t.Fatalf("Energy = %v, want 1000 J", got)
	}
	if p.Energy(0, 1) != 0 {
		t.Fatal("zero time must cost zero energy")
	}
}

func TestUPMEMServerScalesWithDIMMs(t *testing.T) {
	small := UPMEMServer(8)
	big := UPMEMServer(32)
	if big.Watts(1) <= small.Watts(1) {
		t.Fatal("more DIMMs must draw more power")
	}
	// The paper notes the UPMEM server draws more power than the CPU server;
	// energy still wins through speed.
	if UPMEMServer(32).Watts(1) <= CPUServer().Watts(1) {
		t.Fatal("32-DIMM UPMEM server should out-draw the CPU server")
	}
}

func TestEnergyEfficiencyFollowsSpeedup(t *testing.T) {
	// Figure 10's logic: if DRIM-ANN is 2x faster, it wins on energy even at
	// ~1.6x the power.
	cpu := CPUServer()
	pim := UPMEMServer(32)
	cpuSeconds, pimSeconds := 10.0, 5.0
	cpuJ := cpu.Energy(cpuSeconds, 1)
	pimJ := pim.Energy(pimSeconds, 1)
	if pimJ >= cpuJ {
		t.Fatalf("2x speedup should yield an energy win: %v J vs %v J", pimJ, cpuJ)
	}
}

func TestModelsNamed(t *testing.T) {
	for _, m := range []PowerModel{CPUServer(), UPMEMServer(16)} {
		if m.Name == "" || m.Watts(1) <= 0 {
			t.Fatalf("bad model %+v", m)
		}
	}
}

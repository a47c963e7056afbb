package upmem

import "testing"

func TestRandomAccessCostsMoreThanStreaming(t *testing.T) {
	s := newTestSystem(t, 1)
	d := s.DPUs[0]

	// 1000 random 8-byte accesses vs one streamed 8000-byte DMA.
	d.RandomAccess(PhaseDC, 1000)
	random := d.Stats(PhaseDC).IOCycles()
	d.ResetCounters()
	d.DMA(PhaseDC, 8000)
	streamed := d.Stats(PhaseDC).IOCycles()

	if random <= streamed {
		t.Fatalf("random access (%d cy) must cost more than streaming (%d cy)", random, streamed)
	}
	// The gap is what the WRAM buffer optimization eliminates; it should be
	// several-fold (paper: up to the 4.72x bandwidth ratio and beyond for
	// tiny transfers).
	if float64(random)/float64(streamed) < 3 {
		t.Fatalf("random/streamed ratio %v too small to motivate buffering",
			float64(random)/float64(streamed))
	}
}

func TestRandomAccessAccumulates(t *testing.T) {
	s := newTestSystem(t, 1)
	d := s.DPUs[0]
	d.RandomAccess(PhaseLC, 10)
	st := d.Stats(PhaseLC)
	if st.DMABytes != 80 {
		t.Fatalf("DMABytes = %d, want 80", st.DMABytes)
	}
	if st.DMACount == 0 {
		t.Fatal("random accesses must count DMA setups")
	}
}

package main

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{1, 1, 1, 100}, 1}, // one stalled segment does not move it
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}

// Nearest rank, serve.LatencyPercentile's contract: index ceil(p*n)-1.
func TestPercentileNearestRank(t *testing.T) {
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[99-i] = time.Duration(i+1) * time.Millisecond // unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentileMS(ds, c.p); got != c.want {
			t.Errorf("p%v = %v ms, want %v", c.p*100, got, c.want)
		}
	}
	// Small samples must not under-report the tail.
	if got := percentileMS([]time.Duration{time.Millisecond, 9 * time.Millisecond}, 0.95); got != 9 {
		t.Errorf("p95 of two samples = %v ms, want the larger", got)
	}
	if got := percentileMS(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %v", got)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[99-i] = float64(i + 1) // unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{0.10, 10}, {0.50, 50}, {0.90, 90}, {1, 100}, {0, 1}} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("quantile reordered its input")
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing must be 0")
	}
}

// The quiet statistics read the machine left alone: a neighbour that slows
// two segments in three by half does not move them, where the median and the
// mean follow it.
func TestQuietStatisticsIgnoreSlowedSegments(t *testing.T) {
	var segs []segment
	for i := 0; i < 300; i++ {
		g := segment{wall: 0.050, cpu: 0.100, n: 500}
		if i%3 != 0 {
			g.wall, g.cpu = 0.075, 0.150
		}
		segs = append(segs, g)
	}
	if got := quietRate(rates(segs)); math.Abs(got-10000) > 1e-6 {
		t.Errorf("quiet rate %v, want 10000 (the median reads %v)", got, median(rates(segs)))
	}
	if got := quietCost(cpuMSPerOp(segs)); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("quiet CPU cost %v ms, want 0.2", got)
	}
	// A cost every segment pays is not hidden.
	for i := range segs {
		segs[i].wall *= 1.1
	}
	if got := quietRate(rates(segs)); math.Abs(got-10000/1.1) > 1e-6 {
		t.Errorf("quiet rate %v after a 10%% slow-down of every segment, want %v", got, 10000/1.1)
	}
}

// Equal-count segmenting with the warm-up discarded: marks fall where a
// multiple of `every` operations is crossed, and only segments wholly inside
// the timed window count.
func TestSegmentsBetween(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	marks := []mark{
		{at: 0, cpu: 0, n: 0},
		{at: ms(400), cpu: 0.5, n: 100}, // warm-up
		{at: ms(1000), cpu: 1.0, n: 200},
		{at: ms(1100), cpu: 1.2, n: 300},
		{at: ms(2100), cpu: 1.3, n: 400}, // the server stalled for a second
		{at: ms(2200), cpu: 1.5, n: 500},
		{at: ms(3050), cpu: 1.7, n: 600}, // ends after the window
	}
	segs := segmentsBetween(marks, ms(1000), ms(3000))
	if len(segs) != 3 {
		t.Fatalf("%d segments, want the 3 that start at or after 1s and end before 3s: %+v", len(segs), segs)
	}
	want := []segment{{wall: 0.1, cpu: 0.2, n: 100}, {wall: 1.0, cpu: 0.1, n: 100}, {wall: 0.1, cpu: 0.2, n: 100}}
	for i, g := range segs {
		if math.Abs(g.wall-want[i].wall) > 1e-9 || math.Abs(g.cpu-want[i].cpu) > 1e-9 || g.n != want[i].n {
			t.Errorf("segment %d: %+v, want %+v", i, g, want[i])
		}
	}
	if got := quietRate(rates(segs)); math.Abs(got-1000) > 1e-6 {
		t.Errorf("quiet rate %v, want 1000: the stalled segment alone pays for the stall", got)
	}
}

func TestSegmenterMarksEveryNthOperation(t *testing.T) {
	s := newSegmenter(100)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				s.done(1)
			}
		}()
	}
	wg.Wait()
	s.done(250) // one pass of many operations crosses boundaries at once: one mark
	segs := s.segments(0, time.Hour)
	if len(segs) != 11 {
		t.Fatalf("%d segments from 1250 operations, want 11", len(segs))
	}
	var n int64
	for i, g := range segs {
		if i < 10 && g.n != 100 {
			t.Errorf("segment %d holds %d operations, want 100", i, g.n)
		}
		n += g.n
	}
	if n != 1250 {
		t.Errorf("segments hold %d operations, want 1250", n)
	}
}

func TestSegmentPercentiles(t *testing.T) {
	lat := make([]time.Duration, 250)
	for i := range lat {
		lat[i] = time.Duration(i%100+1) * time.Millisecond
	}
	lat[150] = time.Second // a stall inside the second segment
	got := segmentPercentilesMS(lat, 100, 0.95)
	if len(got) != 2 || got[0] != 95 || got[1] != 96 {
		t.Errorf("per-segment p95 %v, want [95 96] (two whole segments, the trailing 50 samples dropped)", got)
	}
	if lat[150] != time.Second {
		t.Error("segmentPercentilesMS reordered its input")
	}
	if got := segmentPercentilesMS(lat[:40], 100, 0.5); len(got) != 1 || got[0] != 20 {
		t.Errorf("a phase shorter than one segment gives %v, want its own p50 [20]", got)
	}
	if got := segmentPercentilesMS(nil, 100, 0.5); len(got) != 0 {
		t.Errorf("no samples give %v", got)
	}
}

// The driver's steadiness rule, from Python:
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartileSpreadMatchesPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread %v, want %v", got, want)
	}
	// quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got, want := quartileSpread([]float64{1, 2, 4}), 3.0/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread %v, want %v", got, want)
	}
	if quartileSpread([]float64{5}) != 0 {
		t.Error("one value has no spread")
	}
}

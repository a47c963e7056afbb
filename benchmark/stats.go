package main

import (
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"drimann/internal/serve"
)

// The measurement discipline of the benchmark, as code: every host-clock
// figure is a statistic over many short equal segments of a timed phase that
// follows a discarded warm-up, never one stopwatch reading. Nothing here
// builds an index, so the rules are unit-tested on synthetic samples.

// quietShare picks the statistic. On the shared box the benchmark runs on,
// other tenants only ever slow a segment down, for a fraction of a second up
// to minutes at a time, and process CPU time inflates with the wall clock. A
// median over segments follows every such stretch (it moved 8 % between
// 20 s windows of one process, see results/README.md); the fastest tenth of
// short segments is the machine left alone, and repeats within 2-3 %. So an
// end-to-end cost is the quietShare quantile of its segments, a rate the
// (1 - quietShare) quantile. What this hides — a cost that lands in fewer
// than nine segments in ten, such as a collector cycle — the host.* layer
// metrics show: the median and the mean over the same segments.
const quietShare = 0.10

// quantile is the nearest-rank p-th (0..1) quantile of xs, the contract of
// serve.LatencyPercentile (index ceil(p*n)-1), or 0 for an empty slice. xs
// is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[min(max(int(math.Ceil(p*float64(len(s))))-1, 0), len(s)-1)]
}

// quietCost is a cost (seconds, milliseconds) on the machine left alone.
func quietCost(perSegment []float64) float64 { return quantile(perSegment, quietShare) }

// quietRate is a rate (operations per second) on the machine left alone.
func quietRate(perSegment []float64) float64 { return quantile(perSegment, 1-quietShare) }

// mark is the state of a phase at a segment boundary: the offset from the
// phase start, the process CPU consumed so far, the operations completed.
type mark struct {
	at  time.Duration
	cpu float64
	n   int64
}

// segmenter cuts a phase into segments of `every` completed operations:
// whoever completes the operation that crosses a boundary leaves a mark. It
// is shared by the goroutines of a phase.
type segmenter struct {
	every int64
	start time.Time
	mu    sync.Mutex
	n     int64
	marks []mark
}

func newSegmenter(every int) *segmenter {
	s := &segmenter{every: int64(every), start: time.Now()}
	s.marks = []mark{{cpu: cpuSeconds()}}
	return s
}

// done counts k completed operations.
func (s *segmenter) done(k int) {
	s.mu.Lock()
	before := s.n
	s.n += int64(k)
	if s.n/s.every != before/s.every {
		s.marks = append(s.marks, mark{at: time.Since(s.start), cpu: cpuSeconds(), n: s.n})
	}
	s.mu.Unlock()
}

// segment is what happened between two marks.
type segment struct {
	wall, cpu float64 // seconds
	n         int64   // operations
}

// segments returns the segments that lie wholly inside [from, to).
func (s *segmenter) segments(from, to time.Duration) []segment {
	s.mu.Lock()
	defer s.mu.Unlock()
	return segmentsBetween(s.marks, from, to)
}

func segmentsBetween(marks []mark, from, to time.Duration) []segment {
	var out []segment
	for i := 1; i < len(marks); i++ {
		a, b := marks[i-1], marks[i]
		if a.at < from || b.at >= to || b.at <= a.at {
			continue
		}
		out = append(out, segment{wall: (b.at - a.at).Seconds(), cpu: b.cpu - a.cpu, n: b.n - a.n})
	}
	return out
}

// rates and cpuMSPerOp are the per-segment figures the quiet statistics are
// taken over.
func rates(segs []segment) []float64 {
	out := make([]float64, len(segs))
	for i, g := range segs {
		out[i] = float64(g.n) / g.wall
	}
	return out
}

func cpuMSPerOp(segs []segment) []float64 {
	out := make([]float64, len(segs))
	for i, g := range segs {
		out[i] = g.cpu * 1e3 / float64(g.n)
	}
	return out
}

// meanCPUMSPerOp is the CPU cost per operation over all the segments.
func meanCPUMSPerOp(segs []segment) float64 {
	var cpu float64
	var n int64
	for _, g := range segs {
		cpu, n = cpu+g.cpu, n+g.n
	}
	if n == 0 {
		return 0
	}
	return cpu * 1e3 / float64(n)
}

// segmentPercentilesMS cuts latencies (in completion order) into segments
// of `every` samples and returns each segment's nearest-rank p-th
// percentile in milliseconds; a trailing partial segment is dropped, unless
// it is the only one.
func segmentPercentilesMS(lat []time.Duration, every int, p float64) []float64 {
	if len(lat) < every {
		every = max(len(lat), 1)
	}
	var out []float64
	for lo := 0; lo+every <= len(lat); lo += every {
		out = append(out, percentileMS(slices.Clone(lat[lo:lo+every]), p))
	}
	return out
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// percentileMS is the nearest-rank p-th (0..1) percentile of ds in
// milliseconds — serve.LatencyPercentile's contract (index ceil(p*n)-1), so
// the benchmark and the serving tools report tails the same way. ds is
// sorted in place.
func percentileMS(ds []time.Duration, p float64) float64 {
	slices.Sort(ds)
	return serve.LatencyPercentile(ds, p).Seconds() * 1e3
}

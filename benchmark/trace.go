package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The traced run records a span around every call the benchmark makes into
// a layer's public functions. Spans live here, in benchmark/, and nowhere
// in the program: they see each layer from the outside. (Spans inside the
// serving path are ROADMAP's measurement spine, a later change.) Spans stay
// in memory and are written once, when the run ends.

// span is one timed call. Parent is the index of the span that caused it
// (-1 for a root); Req is shared by the spans of one request (-1 when the
// call is not request-scoped).
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Req     int64  `json:"req"`
}

// tracer collects spans. A nil *tracer is the untraced run: every method is
// a no-op, so call sites do not branch on the mode.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (the parent for nested calls).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, StartNS: now, EndNS: -1, Parent: parent, Req: req})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// layerTime is one span name's totals over a run.
type layerTime struct {
	Calls int `json:"calls"`
	// TotalS sums the spans' durations; SelfS sums each span's duration
	// minus the part of it its child spans cover (children that overlap
	// each other, as concurrent requests do, are counted once).
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// layerTimes aggregates closed spans by name.
func (t *tracer) layerTimes() map[string]layerTime {
	out := map[string]layerTime{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 && s.EndNS >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i, s := range t.spans {
		if s.EndNS < 0 {
			continue
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].StartNS < t.spans[kids[b]].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(t.spans[k].StartNS, edge), min(t.spans[k].EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		lt := out[s.Name]
		lt.Calls++
		lt.TotalS += float64(s.EndNS-s.StartNS) / 1e9
		lt.SelfS += float64(s.EndNS-s.StartNS-covered) / 1e9
		out[s.Name] = lt
	}
	return out
}

// traceFile is what a traced run leaves behind.
type traceFile struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Layers   map[string]layerTime `json:"layers"`
	Metrics  map[string]metric    `json:"metrics"`
	Spans    []span               `json:"spans"`
}

// write stores the spans, their per-layer totals and the run's per-layer
// metrics (the counts taken at the same boundaries) at path.
func (t *tracer) write(path, workload string, seed int64, metrics map[string]metric) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	layers := t.layerTimes()
	t.mu.Lock()
	raw, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Layers: layers, Metrics: metrics, Spans: t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

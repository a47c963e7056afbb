package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	ms := func(x int64) int64 { return x * 1e6 }
	tr := &tracer{spans: []span{
		{Name: "phase", StartNS: 0, EndNS: ms(100), Parent: -1, Req: -1},
		{Name: "search", StartNS: ms(10), EndNS: ms(30), Parent: 0, Req: 1},
		{Name: "search", StartNS: ms(20), EndNS: ms(50), Parent: 0, Req: 2}, // overlaps the first: counted once
		{Name: "locate", StartNS: ms(12), EndNS: ms(17), Parent: 1, Req: 1},
		{Name: "open", StartNS: ms(60), EndNS: -1, Parent: 0, Req: -1}, // never closed: ignored
	}}
	got := tr.layerTimes()
	want := map[string]layerTime{
		"phase":  {Calls: 1, TotalS: 0.100, SelfS: 0.060},
		"search": {Calls: 2, TotalS: 0.050, SelfS: 0.045},
		"locate": {Calls: 1, TotalS: 0.005, SelfS: 0.005},
	}
	if len(got) != len(want) {
		t.Fatalf("layers %v, want %v", got, want)
	}
	for name, w := range want {
		g := got[name]
		if g.Calls != w.Calls || math.Abs(g.TotalS-w.TotalS) > 1e-12 || math.Abs(g.SelfS-w.SelfS) > 1e-12 {
			t.Errorf("%s: %+v, want %+v", name, g, w)
		}
	}
}

func TestNilTracerIsTheUntracedRun(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, -1)
	tr.end(id)
	if id != -1 || len(tr.layerTimes()) != 0 {
		t.Error("a nil tracer must record nothing")
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	tr := newTracer()
	root := tr.begin("run", -1, -1)
	tr.end(tr.begin("call", root, 7))
	tr.end(root)
	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	if err := tr.write(path, "w", 3, map[string]metric{"m": {Value: 1.5, Unit: "s"}}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Workload != "w" || tf.Seed != 3 || len(tf.Spans) != 2 || tf.Spans[1].Parent != 0 || tf.Spans[1].Req != 7 ||
		tf.Layers["call"].Calls != 1 || tf.Metrics["m"].Value != 1.5 {
		t.Errorf("trace file lost something: %+v", tf)
	}
}

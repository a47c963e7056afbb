package main

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestParseArgs is the table of every mode combination the command line
// accepts and rejects. The two marked "silent at PR 15" ran one mode and
// ignored the other flag before the parser existed.
func TestParseArgs(t *testing.T) {
	accepted := []struct {
		args string
		mode string
	}{
		{"", modeExperiments},
		{"-small", modeExperiments},
		{"-exp F9,F13", modeExperiments},
		{"-small -exp F9 -n 5000 -queries 50 -dpus 16 -seed 3", modeExperiments},
		{"-n 100000 -dpus 128 -queries 1000", modeExperiments},
		{"-list", modeList},
		{"-list -small", modeList},
		{"-headtohead", modeHeadToHead},
		{"-headtohead -n 20000 -queries 200 -dpus 32 -seed 2", modeHeadToHead},
		{"-replicas 2", modeReplica},
		{"-replicas 2 -straggler", modeReplica},
		{"-replicas 3 -shards 4 -straggler -stragglerdelay 50ms -stragglerevery 3", modeReplica},
		{"-replicas 2 -clients 4 -servedur 1s -n 10000 -queries 200", modeReplica},
		{"-replicas 2 -headtohead=false", modeReplica},
	}
	for _, c := range accepted {
		cfg, err := parseArgs(strings.Fields(c.args), io.Discard)
		if err != nil {
			t.Errorf("%q rejected: %v", c.args, err)
		} else if cfg.mode != c.mode {
			t.Errorf("%q: mode %q, want %q", c.args, cfg.mode, c.mode)
		}
	}

	rejected := []struct {
		args string
		want string // the error must name this
	}{
		{"-headtohead -replicas 2 -straggler", "-headtohead and -replicas"}, // silent at PR 15
		{"-list -headtohead", "-exp/-small/-list and -headtohead"},          // silent at PR 15
		{"-small -headtohead", "-exp/-small/-list and -headtohead"},
		{"-exp F9 -replicas 2", "-exp/-small/-list and -replicas"},
		{"-list -headtohead -replicas 2", "-exp/-small/-list and -headtohead and -replicas"},
		{"-straggler", "-straggler applies only with -replicas"},
		{"-headtohead -straggler", "-straggler applies only with -replicas"},
		{"-shards 4", "-shards applies only with -replicas"},
		{"-headtohead -clients 4", "-clients applies only with -replicas"},
		{"-small -servedur 1s", "-servedur applies only with -replicas"},
		{"-stragglerdelay 50ms", "-stragglerdelay applies only with -replicas"},
		{"-stragglerevery 2", "-stragglerevery applies only with -replicas"},
		{"-replicas 2 -stragglerdelay 50ms", "only with -straggler"},
		{"-replicas 1", "at least 2 replicas"},
		{"-replicas 0", "at least 2 replicas"},
		{"-replicas 2 -clients 0", "must be positive"},
		{"-replicas 2 -straggler -stragglerevery 0", "must be positive"},
		{"-replicas 2 -shards -1", "-shards not negative"},
		{"-n -5", "must not be negative"},
		{"-exp F99", `unknown experiment "F99"`},
		{"-bench", "flag provided but not defined"},
		{"-headtohead extra", `unexpected argument "extra"`},
	}
	for _, c := range rejected {
		_, err := parseArgs(strings.Fields(c.args), io.Discard)
		if err == nil {
			t.Errorf("%q accepted, want an error naming %q", c.args, c.want)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %q does not name %q", c.args, err, c.want)
		}
	}

	cfg, err := parseArgs(strings.Fields("-replicas 3 -shards 4 -straggler -stragglerdelay 50ms -clients 16 -n 7 -seed 9"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := config{mode: modeReplica, n: 7, seed: 9, replicas: 3, shards: 4, clients: 16, straggler: true,
		stragglerDelay: 50 * time.Millisecond, stragglerEvery: 3, serveDur: 5 * time.Second}
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("parsed %+v, want %+v", cfg, want)
	}
	cfg, err = parseArgs(strings.Fields("-exp F9,F13"), io.Discard)
	if err != nil || len(cfg.exps) != 2 || cfg.exps[0].ID != "F9" || cfg.exps[1].ID != "F13" {
		t.Errorf("-exp F9,F13 parsed to %+v, %v", cfg.exps, err)
	}
}

// toyArgs is the fixture every mode test runs on.
const toyArgs = "-n 4000 -queries 100 -dpus 16"

// runMode parses args, runs the mode into a buffer and decodes its closing
// JSON line, checking the documented envelope.
func runMode(t *testing.T, args string, run func(config, io.Writer) error, rows any) {
	t.Helper()
	cfg, err := parseArgs(strings.Fields(args), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	var env struct {
		Mode    string
		Fixture map[string]float64
		Rows    json.RawMessage
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		t.Fatalf("last line is not the documented object: %v\n%s", err, lines[len(lines)-1])
	}
	if env.Mode != cfg.mode {
		t.Errorf("mode %q, want %q", env.Mode, cfg.mode)
	}
	for key, want := range map[string]float64{"n": 4000, "d": 128, "queries": 100, "dpus": 16, "seed": 1} {
		if got, ok := env.Fixture[key]; !ok || got != want {
			t.Errorf("fixture.%s = %v, want %v", key, got, want)
		}
	}
	if env.Fixture["gomaxprocs"] < 1 || len(env.Fixture) != 6 {
		t.Errorf("fixture %v, want the six documented keys", env.Fixture)
	}
	dec = json.NewDecoder(bytes.NewReader(env.Rows))
	dec.DisallowUnknownFields()
	if err := dec.Decode(rows); err != nil {
		t.Fatalf("rows: %v", err)
	}
}

// TestHeadToHeadMode runs the sweep once at toy scale: recall@10 must not
// fall as either backend's accuracy knob widens, and every point must have
// cost simulated time.
func TestHeadToHeadMode(t *testing.T) {
	var rows []curvePoint
	runMode(t, "-headtohead "+toyArgs, runHeadToHead, &rows)
	if len(rows) != 9 {
		t.Fatalf("%d curve points, want 5 nprobe + 4 beam", len(rows))
	}
	for i, p := range rows {
		wantBackend, wantParam := "ivf", "nprobe"
		if i >= 5 {
			wantBackend, wantParam = "graph", "beam"
		}
		if p.Backend != wantBackend || p.Param != wantParam {
			t.Errorf("row %d is %s/%s, want %s/%s", i, p.Backend, p.Param, wantBackend, wantParam)
		}
		if p.SimQPS <= 0 || p.WallQPS <= 0 || p.Recall10 <= 0 || p.Recall10 > 1 {
			t.Errorf("row %d: %+v", i, p)
		}
		if i > 0 && rows[i-1].Backend == p.Backend {
			if p.Value <= rows[i-1].Value {
				t.Errorf("row %d: %s=%d does not widen %d", i, p.Param, p.Value, rows[i-1].Value)
			}
			if p.Recall10 < rows[i-1].Recall10 {
				t.Errorf("recall@10 fell from %.4f to %.4f at %s %s=%d",
					rows[i-1].Recall10, p.Recall10, p.Backend, p.Param, p.Value)
			}
		}
	}
}

// TestReplicaStragglerMode runs the fault-injected fleet once at toy scale.
// Reaching the JSON line at all means every response matched the single
// engine (a divergence aborts the run); the hedged run must have hedged and
// both ledgers must balance.
func TestReplicaStragglerMode(t *testing.T) {
	var rows []replicaRun
	runMode(t, "-replicas 2 -straggler -stragglerdelay 20ms -servedur 300ms "+toyArgs, runReplica, &rows)
	if len(rows) != 2 || rows[0].Run != "unhedged" || rows[1].Run != "hedged" {
		t.Fatalf("rows %+v, want unhedged then hedged", rows)
	}
	for _, r := range rows {
		if !r.Identical {
			t.Errorf("%s: not identical to the single engine", r.Run)
		}
		if r.Enqueued == 0 || r.Enqueued != r.Completed+r.Canceled+r.Failed {
			t.Errorf("%s: ledger %d != %d + %d + %d", r.Run, r.Enqueued, r.Completed, r.Canceled, r.Failed)
		}
		if r.Requests == 0 || r.Failed != 0 || r.P50MS <= 0 || r.P50MS > r.P99MS || r.P99MS > r.P999MS {
			t.Errorf("%s: %+v", r.Run, r)
		}
		if r.Shards != 2 || r.Replicas != 2 || r.Clients != 8 || r.StragglerDelayMS != 20 || r.StragglerEvery != 3 {
			t.Errorf("%s: fleet settings %+v", r.Run, r)
		}
	}
	if rows[0].Hedges != 0 {
		t.Errorf("unhedged run issued %d hedges", rows[0].Hedges)
	}
	if rows[1].Hedges == 0 {
		t.Error("hedged run over a straggling fleet issued no hedge")
	}
}

// TestExperimentRunner runs one paper experiment at the small scale through
// the same entry point main dispatches to.
func TestExperimentRunner(t *testing.T) {
	cfg, err := parseArgs(strings.Fields("-small -exp T1"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runExperiments(cfg, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "DRIM-ANN experiment harness: N=") || !strings.Contains(out.String(), "(T1 in ") {
		t.Errorf("unexpected output:\n%s", out.String())
	}
}

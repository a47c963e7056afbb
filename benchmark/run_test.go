package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// tinySizes is the determinism fixture: every workload's full code path,
// kill -> recover -> oracle compare included, in about a second.
var tinySizes = sizes{
	n: 4000, nlist: 64, graphN: 2000, reserve: 2048, trainSample: 2000,
	profileQ: 128, measuredQ: 128, recallQ: 64,
}

func tinyRun(t *testing.T, workload string, seed int64, traced bool) *run {
	t.Helper()
	var log bytes.Buffer
	r := newRun(workload, seed, 0.2, tinySizes, traced, &log)
	if err := r.execute(workloads[workload]); err != nil {
		t.Fatalf("%s seed %d: %v\n%s", workload, seed, err, log.String())
	}
	if r.failed != 0 || r.attempted == 0 {
		t.Fatalf("%s seed %d: %d of %d operations failed\n%s", workload, seed, r.failed, r.attempted, log.String())
	}
	return r
}

// Two runs at one seed give identical simulated-clock and count metrics, and
// another seed changes them: exact comparison is safe, and the seed really
// reaches the generator. The traced runs also cover every per-layer metric.
func TestSameSeedSameSimulatedMetrics(t *testing.T) {
	t.Chdir(t.TempDir())
	exact := append(append([]metricSpec(nil), endToEnd...), perLayer...)
	for name := range workloads {
		a, b, other := tinyRun(t, name, 1, true), tinyRun(t, name, 1, true), tinyRun(t, name, 2, false)
		for _, s := range exact {
			if !s.exact {
				continue
			}
			if a.metrics[s.name] != b.metrics[s.name] {
				t.Errorf("%s: %s differs between two runs at seed 1: %v vs %v", name, s.name, a.metrics[s.name], b.metrics[s.name])
			}
		}
		for _, m := range []string{"sim_qps", "recall_at_10", "upmem.sim_pim_s"} {
			if a.metrics[m].Value == 0 || a.metrics[m] == other.metrics[m] {
				t.Errorf("%s: %s reads %v at seed 1 and %v at seed 2: the seed does not reach the inputs", name, m, a.metrics[m], other.metrics[m])
			}
		}
		// An untraced run measures every end-to-end metric, and none is 0.
		for _, s := range endToEnd {
			if other.metrics[s.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v", name, s.name, other.metrics[s.name].Value)
			}
		}
	}
}

// A wrong answer must fail the run: failed_ops rises, correct is false, the
// exit status is not 0.
func TestWrongAnswerFailsTheRun(t *testing.T) {
	t.Chdir(t.TempDir())
	for name := range workloads {
		var log bytes.Buffer
		r := newRun(name, 1, 0.2, tinySizes, false, &log)
		r.injectWrong = true
		if err := r.execute(workloads[name]); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.failed == 0 || !strings.Contains(log.String(), "FAIL "+name) {
			t.Errorf("%s: injected wrong answer went unnoticed (failed=%d, log %q)", name, r.failed, log.String())
		}
	}
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"--workload", "offline-graph", "--seed", "1", "--seconds", "0.2", "--trace", "0", "--smoke", "--inject-wrong-answer"}, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, stdout.String())
	}
	if code == 0 || res.Correct || res.Failed == 0 || res.Attempted < res.Failed {
		t.Errorf("exit %d, result %+v: want non-zero exit, correct=false, failed>0", code, res)
	}
}

// The result line of a good run carries exactly the metrics of its mode.
func TestResultLineCarriesTheModesMetrics(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, c := range []struct {
		trace string
		spec  []metricSpec
	}{{"0", endToEnd}, {"1", perLayer}} {
		var stdout, stderr bytes.Buffer
		code := realMain([]string{"--workload", "offline-graph", "--seed", "2", "--seconds", "0.2", "--trace", c.trace, "--smoke"}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", c.trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(c.spec) {
			t.Errorf("trace %s: %d metrics (want %d), correct %v, %d/%d failed", c.trace, len(res.Metrics), len(c.spec), res.Correct, res.Failed, res.Attempted)
		}
		for _, s := range c.spec {
			if m, ok := res.Metrics[s.name]; !ok || m.Unit != s.unit {
				t.Errorf("trace %s: metric %s missing or in unit %q, want %q", c.trace, s.name, m.Unit, s.unit)
			}
		}
	}
}

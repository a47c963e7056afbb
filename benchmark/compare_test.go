package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareAppliesBoundsAndExactness(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(spec, []byte(`{"workloads":[{"name":"offline-ivf"}],"end_to_end":[
		{"name":"wall_qps","better":"higher","bound":0.06},
		{"name":"cpu_ms_per_query","better":"lower","bound":0.08},
		{"name":"sim_qps","better":"higher","bound":0.05}]}`), 0o644)
	// edit, when not nil, changes run i's record before it is written.
	writeEdited := func(name string, qps, cpu, sim []float64, edit func(i int, rec *record)) string {
		path := filepath.Join(dir, name)
		for i := range qps {
			rec := record{Workload: "offline-ivf", Seed: int64(i + 1), Result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{
				"wall_qps":         {Value: qps[i], Unit: "q/s"},
				"cpu_ms_per_query": {Value: cpu[i], Unit: "ms"},
				"sim_qps":          {Value: sim[i], Unit: "q/s"},
			}}}
			if edit != nil {
				edit(i, &rec)
			}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	write := func(name string, qps, cpu, sim []float64) string { return writeEdited(name, qps, cpu, sim, nil) }
	sim := []float64{1400.5, 1390.25, 1410}
	a := write("a.jsonl", []float64{8000, 8100, 7900}, []float64{0.20, 0.21, 0.20}, sim)
	same := write("same.jsonl", []float64{7800, 8000, 7900}, []float64{0.205, 0.20, 0.21}, sim)
	slower := write("slower.jsonl", []float64{7000, 7100, 7050}, []float64{0.20, 0.21, 0.20}, sim)
	drifted := write("drifted.jsonl", []float64{8000, 8100, 7900}, []float64{0.20, 0.21, 0.20}, []float64{1400.5, 1390.25, 1410.000001})

	good := []float64{8000, 8100, 7900}
	cpu := []float64{0.20, 0.21, 0.20}
	wrong := writeEdited("wrong.jsonl", good, cpu, sim, func(i int, rec *record) {
		if i == 1 {
			rec.Result.Correct, rec.Result.Failed = false, 1
		}
	})
	crashed := write("crashed.jsonl", good[:2], cpu[:2], sim[:2]) // one run left no record
	dropped := writeEdited("dropped.jsonl", good, cpu, sim, func(_ int, rec *record) { delete(rec.Result.Metrics, "cpu_ms_per_query") })
	shifted := write("shifted.jsonl", []float64{7700, 7800, 7600}, cpu, sim) // 3.7 % lower: inside 6 %, but twice the gap is not

	run := func(b string, flags ...string) (int, string) {
		var out, errOut bytes.Buffer
		args := append(append([]string{"compare", "-spec", spec}, flags...), a, b)
		code := realMain(args, &out, &errOut)
		return code, out.String() + errOut.String()
	}
	if code, out := run(same); code != 0 || strings.Contains(out, "REGRESSED") || !strings.Contains(out, "exact") {
		t.Errorf("A/A compare: exit %d\n%s", code, out)
	}
	if code, out := run(slower); code != 1 || !strings.Contains(out, "REGRESSED") {
		t.Errorf("12%% lower wall_qps against a 6%% bound: exit %d\n%s", code, out)
	}
	if code, out := run(drifted); code != 1 || !strings.Contains(out, "DIFFERS") {
		t.Errorf("a simulated metric moved at one seed: exit %d\n%s", code, out)
	}
	// Medians that pass are not enough: wrong answers, a lost run and a
	// dropped metric each fail the comparison.
	if code, out := run(wrong); code != 1 || !strings.Contains(out, "wrong answers") || !strings.Contains(out, "operations failed on side B") {
		t.Errorf("a run with a wrong answer and a failed operation: exit %d\n%s", code, out)
	}
	if code, out := run(crashed); code != 1 || !strings.Contains(out, "3 runs on side A, 2 on side B") {
		t.Errorf("a run that left no record: exit %d\n%s", code, out)
	}
	if code, out := run(dropped); code != 1 || !strings.Contains(out, "MISSING on side B") {
		t.Errorf("an end-to-end metric absent on one side: exit %d\n%s", code, out)
	}
	// Judging the benchmark itself (-aa), a gap of more than half the bound
	// between two sets of one commit is too much noise for that bound.
	if code, out := run(shifted); code != 0 || !strings.Contains(out, "ok") {
		t.Errorf("3.7%% lower wall_qps against a 6%% bound: exit %d\n%s", code, out)
	}
	if code, out := run(shifted, "-aa"); code != 1 || !strings.Contains(out, "NOISY") {
		t.Errorf("-aa with a 3.7%% gap against a 6%% bound: exit %d\n%s", code, out)
	}
	if code, out := run(same, "-aa"); code != 0 {
		t.Errorf("-aa on two sets 1.2%% apart: exit %d\n%s", code, out)
	}
}

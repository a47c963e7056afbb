// Command benchmark is the repository's benchmark: it runs one workload at
// one seed, checks the answers, and prints every metric by name with its
// unit. BENCHMARK.json at the repository root names the workloads, metrics
// and bounds; README.md in this directory explains them.
//
//	benchmark --workload offline-ivf --seed 1 --seconds 10 --trace 0
//	benchmark compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// result is the last line a run prints on standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as -record appends it to a results file: the result
// line, with every metric the run measured and not only its mode's, plus
// what produced it. compare reads these.
type record struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Result     result  `json:"result"`
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Int64("seed", 1, "seed the inputs are generated from")
		seconds  = fs.Float64("seconds", 10, "length of the timed phase")
		trace    = fs.String("trace", "0", "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run; a path: as 1, writing the spans there")
		smoke    = fs.Bool("smoke", false, "tiny fixture: every code path of the workload in a few seconds, numbers meaningless")
		recordTo = fs.String("record", "", "append this run's record to a JSON-lines file (for compare)")
		inject   = fs.Bool("inject-wrong-answer", false, "corrupt one checked answer, to see the run fail")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: need --workload (one of %s) and --seconds > 0\n", strings.Join(workloadNames(), ", "))
		return 2
	}

	z := fullSizes
	if *smoke {
		z = smokeSizes
	}
	r := newRun(*workload, *seed, *seconds, z, *trace != "0" && *trace != "", stderr)
	r.injectWrong = *inject
	spec, tracePath := endToEnd, ""
	if r.tr != nil {
		spec, tracePath = perLayer, *trace
		if tracePath == "1" {
			tracePath = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", r.workload, r.seed))
		}
	}
	if err := r.execute(fn); err != nil {
		// An operation the workload cannot continue past: no result line.
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", r.workload, err)
		return 1
	}

	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g gomaxprocs %d trace %v\n", r.workload, r.seed, *seconds, procs(), r.tr != nil)
	printMetric := func(name string, m metric) {
		line := fmt.Sprintf("%-34s %14.6g %s", name, m.Value, m.Unit)
		if n, ok := r.samples[name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(stdout, line)
	}
	for _, s := range spec {
		m, ok := r.metrics[s.name]
		if !ok {
			if r.tr == nil {
				fmt.Fprintf(stderr, "benchmark: %s did not measure end-to-end metric %s\n", r.workload, s.name)
				return 2
			}
			m = metric{Unit: s.unit} // a layer this workload does not exercise
		}
		res.Metrics[s.name] = m
		printMetric(s.name, m)
	}
	if r.tr == nil {
		// The untraced run measures the host clock too; it prints it, and
		// records it for compare, but the result line carries no layer metric.
		fmt.Fprintln(stdout, "measured besides (layer metrics, no bound):")
		for _, s := range perLayer {
			if m, ok := r.metrics[s.name]; ok {
				printMetric(s.name, m)
			}
		}
	}
	fmt.Fprintf(stdout, "attempted_ops %d failed_ops %d\n", res.Attempted, res.Failed)
	if r.tr != nil {
		if err := r.tr.write(tracePath, r.workload, r.seed, res.Metrics); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		fmt.Fprintf(stdout, "spans written to %s\n", tracePath)
	}
	if *recordTo != "" {
		rec := record{Workload: r.workload, Seed: r.seed, Seconds: *seconds, Trace: r.tr != nil, GoMaxProcs: procs(), Result: res}
		rec.Result.Metrics = maps.Clone(res.Metrics)
		maps.Copy(rec.Result.Metrics, r.metrics) // every metric the run measured
		if err := appendRecord(*recordTo, rec); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// newRun prepares one run of one workload. traced selects the traced run.
func newRun(workload string, seed int64, seconds float64, z sizes, traced bool, log io.Writer) *run {
	r := &run{
		workload: workload, seed: seed,
		seconds: time.Duration(seconds * float64(time.Second)),
		z:       z, root: -1, log: log,
		metrics: map[string]metric{}, samples: map[string]int{},
	}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// execute runs the workload under the benchmark's host budget: two cores,
// one process, no network; callers are goroutines inside that budget.
// On-disk stores go on the real filesystem, under .bench_build/ in the
// working directory, and are removed when the run ends.
func (r *run) execute(fn func(*run) error) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs()))
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(".bench_build", "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	r.tmpRoot = tmp
	r.root = r.tr.begin(r.workload, -1, -1)
	err = fn(r)
	r.tr.end(r.root)
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", peakRSSMB())
	return nil
}

func workloadNames() []string { return slices.Sorted(maps.Keys(workloads)) }

// procs is the host budget: two cores (one where there is only one).
func procs() int { return min(2, runtime.NumCPU()) }

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

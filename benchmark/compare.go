package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkSpec is BENCHMARK.json as compare needs it.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the driver's rule).
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	med := median(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / math.Abs(med)
}

type sideValues struct {
	all    []float64
	bySeed map[int64][]float64
}

func (s *sideValues) add(seed int64, v float64) {
	if s.bySeed == nil {
		s.bySeed = map[int64][]float64{}
	}
	s.all = append(s.all, v)
	s.bySeed[seed] = append(s.bySeed[seed], v)
}

// gather indexes records of one mode by workload and metric.
func gather(recs []record, trace bool) map[string]map[string]*sideValues {
	out := map[string]map[string]*sideValues{}
	for _, rec := range recs {
		if rec.Trace != trace {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string]*sideValues{}
		}
		for name, m := range rec.Result.Metrics {
			if out[rec.Workload][name] == nil {
				out[rec.Workload][name] = &sideValues{}
			}
			out[rec.Workload][name].add(rec.Seed, m.Value)
		}
	}
	return out
}

// exactVerdict compares a deterministic metric run by run: every value the
// two sides recorded at one seed must be the same number.
func exactVerdict(a, b *sideValues) string {
	shared := false
	for seed, av := range a.bySeed {
		bv, ok := b.bySeed[seed]
		if !ok {
			continue
		}
		shared = true
		for _, v := range append(append([]float64(nil), av...), bv...) {
			if v != av[0] {
				return "DIFFERS"
			}
		}
	}
	if !shared {
		return "no-shared-seed"
	}
	return "exact"
}

func missingSide(onA bool) string {
	if onA {
		return "A"
	}
	return "B"
}

// health checks what a table of medians cannot show: runs that gave wrong
// answers, a change that fails more operations than its parent, and sides
// that did not run the same workloads the same number of times. It prints
// one line per finding and reports whether there was any.
func health(stdout io.Writer, spec benchmarkSpec, a, b []record) bool {
	type tally struct {
		runs, incorrect int
		failed          int64
	}
	count := func(recs []record) map[string]*tally {
		out := map[string]*tally{}
		for _, rec := range recs {
			if rec.Trace {
				continue
			}
			t := out[rec.Workload]
			if t == nil {
				t = &tally{}
				out[rec.Workload] = t
			}
			t.runs++
			t.failed += rec.Result.Failed
			if !rec.Result.Correct {
				t.incorrect++
			}
		}
		return out
	}
	ta, tb := count(a), count(b)
	bad := false
	finding := func(format string, args ...any) {
		bad = true
		fmt.Fprintf(stdout, "FINDING "+format+"\n", args...)
	}
	for _, w := range spec.Workloads {
		x, y := ta[w.Name], tb[w.Name]
		if x == nil || y == nil {
			finding("%s: no untraced run on side %s", w.Name, missingSide(x == nil))
			continue
		}
		if x.runs != y.runs {
			finding("%s: %d runs on side A, %d on side B", w.Name, x.runs, y.runs)
		}
		if x.incorrect+y.incorrect > 0 {
			finding("%s: %d runs on side A and %d on side B gave wrong answers", w.Name, x.incorrect, y.incorrect)
		}
		if y.failed > x.failed {
			finding("%s: %d operations failed on side B, %d on side A", w.Name, y.failed, x.failed)
		}
	}
	return bad
}

// compareMain prints one row per workload and metric for two result files
// (A the parent, B the change) and applies BENCHMARK.json's bounds to the
// end-to-end metrics: B's median may be worse than A's by at most the bound.
// Metrics that are deterministic at a fixed seed compare exactly instead.
// With -aa both files are runs of one commit and the table judges the
// benchmark, not a change: a row passes only if twice the gap between the
// two medians and both quartile spreads stay within the bound. Exit status 1
// reports a regression, an exact difference, a noisy row under -aa, a
// missing workload or end-to-end metric, or a finding of the health check.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark definition with the bounds")
	aa := fs.Bool("aa", false, "A and B are runs of one commit: judge the bounds, not a change")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare [-spec BENCHMARK.json] [-aa] A.jsonl B.jsonl")
		return 2
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark compare:", err)
		return 2
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(stderr, "benchmark compare: %s: %v\n", *specPath, err)
		return 2
	}
	var sides [2][]record
	for i, path := range fs.Args() {
		if sides[i], err = readRecords(path); err != nil {
			fmt.Fprintln(stderr, "benchmark compare:", err)
			return 2
		}
	}
	bad := false
	fmt.Fprintf(stdout, "%-14s %-34s %5s %14s %14s %9s %7s %9s %9s  %s\n",
		"workload", "metric", "runs", "median_A", "median_B", "worse_by", "bound", "spread_A", "spread_B", "verdict")
	row := func(w, name string, a, b *sideValues, better string, bound float64, bounded bool) {
		ma, mb := median(a.all), median(b.all)
		worse := 0.0
		if ma != 0 {
			worse = (mb - ma) / math.Abs(ma)
			if better == "higher" {
				worse = -worse
			}
		}
		spread := max(quartileSpread(a.all), quartileSpread(b.all))
		verdict, boundCol := "", ""
		switch {
		case specOf[name].exact:
			verdict = exactVerdict(a, b)
			bad = bad || verdict == "DIFFERS"
		case bounded:
			boundCol = fmt.Sprintf("%.3f", bound)
			switch {
			case *aa && (2*math.Abs(worse) > bound || spread > bound):
				verdict, bad = "NOISY", true // the bound does not hold the benchmark's own noise
			case worse > bound:
				verdict, bad = "REGRESSED", true
			case spread > bound:
				verdict = "unresolved" // the runs scatter more than the bound: not a pass
			default:
				verdict = "ok"
			}
		}
		fmt.Fprintf(stdout, "%-14s %-34s %2d/%-2d %14.6g %14.6g %+8.2f%% %7s %8.2f%% %8.2f%%  %s\n",
			w, name, len(a.all), len(b.all), ma, mb, worse*100, boundCol,
			quartileSpread(a.all)*100, quartileSpread(b.all)*100, verdict)
	}
	e2eA, e2eB := gather(sides[0], false), gather(sides[1], false)
	layA, layB := gather(sides[0], true), gather(sides[1], true)
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := e2eA[w.Name][m.Name], e2eB[w.Name][m.Name]
			if a == nil || b == nil {
				fmt.Fprintf(stdout, "%-14s %-34s MISSING on side %s\n", w.Name, m.Name, missingSide(a == nil))
				bad = true
				continue
			}
			row(w.Name, m.Name, a, b, m.Better, m.Bound, true)
		}
		// A layer metric comes from the untraced runs when they measured it
		// (the host clock, the deterministic pass: ten runs a set), else
		// from the traced ones.
		for _, m := range spec.PerLayer {
			a, b := e2eA[w.Name][m.Name], e2eB[w.Name][m.Name]
			if a == nil || b == nil {
				a, b = layA[w.Name][m.Name], layB[w.Name][m.Name]
			}
			if a != nil && b != nil && (median(a.all) != 0 || median(b.all) != 0) { // 0: a layer the workload does not exercise
				row(w.Name, m.Name, a, b, m.Better, 0, false)
			}
		}
	}
	if health(stdout, spec, sides[0], sides[1]) || bad {
		return 1
	}
	return 0
}

// Command drim-bench regenerates the tables and figures of the DRIM-ANN
// paper's evaluation (§5) on the simulated UPMEM system, and runs the two
// comparisons the repo benchmark (BENCHMARK.json + benchmark/) cannot
// express. Three uses, at most one per invocation:
//
// The experiment runner reproduces the paper's T1–T3 / F2–F15 results from
// internal/bench:
//
//	drim-bench                  # run every experiment at the default scale
//	drim-bench -list            # experiment ids
//	drim-bench -exp F7,F9       # run selected experiments
//	drim-bench -small           # test-suite scale (seconds)
//	drim-bench -n 100000 -dpus 128 -queries 1000
//
// Head-to-head (-headtohead) runs BOTH backends over one corpus and prints
// each backend's recall@10-vs-simulated-QPS curve, every query driven
// through the online serving path: the IVF-PQ engine sweeps nprobe, the
// graph engine sweeps its search beam width over a single build. The
// benchmark's offline-ivf and offline-graph workloads each hold one
// operating point on different corpora; the iso-corpus sweep lives here:
//
//	drim-bench -headtohead                           # 100k x 128d, 1k queries
//	drim-bench -headtohead -n 20000 -queries 200     # smoke scale
//
// Replica mode (-replicas R) shows hedging masking a tail: each shard
// (default 2, -shards overrides) is served by R engine clones behind
// load-aware routing with hedged requests, and -straggler wraps the last
// replica of every shard in a fault-injected periodic straggler (every
// -stragglerevery-th call stalls by -stragglerdelay). The same closed loop
// (-clients callers for -servedur) runs twice — hedging off, then on —
// every response is verified bit-identical to the unsharded single engine,
// and both latency distributions (p50/p99/p999) are printed. The
// benchmark's fleet never has a fault injected, so this run lives here:
//
//	drim-bench -replicas 2 -straggler                # 2 shards x 2 replicas
//	drim-bench -replicas 3 -shards 4 -straggler -stragglerdelay 50ms -stragglerevery 3
//
// The two wall-clock modes print a table and end with one JSON line on
// stdout, the shape of benchmark/'s result line:
//
//	{"mode":…, "fixture":{"n","d","queries","dpus","seed","gomaxprocs"}, "rows":[…]}
//
// Nothing is written to disk and nothing is compared with an earlier run:
// comparing two commits is `benchmark compare`'s job.
//
// Modes that used to live here are answered by the benchmark's workloads,
// with segment statistics and a wrong-answer exit code: -bench by
// offline-ivf (and the all-workers-vs-one ratio by BenchmarkSearchBatch /
// BenchmarkSearchBatchOneWorker in core_bench_test.go), -bench -backend graph
// by offline-graph, -serve by serve-online, -shards N / -mutate / -recovery
// by fleet-mutate. BENCH_core.json at the repo root is the frozen diary
// those modes wrote during PRs 1–10; no code opens it, and the meaning of
// its fields is at `git show 5d63ab0:cmd/drim-bench/selfbench.go`.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"drimann/internal/bench"
)

// The three things one invocation can do, plus -list.
const (
	modeList        = "list"
	modeExperiments = "experiments"
	modeHeadToHead  = "headtohead"
	modeReplica     = "replica"
)

// config is a parsed command line: the mode, the fixture overrides every
// mode takes (zero = the mode's default), and each mode's own settings.
type config struct {
	mode string

	n, queries, dpus int
	seed             int64

	// Experiment runner.
	small bool
	exps  []bench.Experiment

	// Replica mode. shards 0 = the default 2.
	replicas, shards, clients int
	straggler                 bool
	stragglerDelay            time.Duration
	stragglerEvery            int
	serveDur                  time.Duration
}

// parseArgs turns the command line into a config or an error naming what is
// wrong with it. At most one of the three modes may be selected — the
// experiment runner by any of -exp/-small/-list, or by selecting nothing —
// and a flag that belongs to one mode is rejected without that mode, so no
// flag is ever silently ignored. Usage and flag-syntax errors go to stderr.
func parseArgs(args []string, stderr io.Writer) (config, error) {
	var c config
	fs := flag.NewFlagSet("drim-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	expFlag := fs.String("exp", "", "comma-separated experiment ids (default: all); see -list")
	list := fs.Bool("list", false, "list experiment ids and exit")
	fs.BoolVar(&c.small, "small", false, "use the small (test-suite) scale")
	fs.IntVar(&c.n, "n", 0, "override base vectors per dataset")
	fs.IntVar(&c.queries, "queries", 0, "override query count")
	fs.IntVar(&c.dpus, "dpus", 0, "override simulated DPU count")
	fs.Int64Var(&c.seed, "seed", 0, "override RNG seed")
	headToHead := fs.Bool("headtohead", false, "head-to-head backend comparison: recall@10 vs simulated QPS for IVF-PQ and graph through the serving path")
	fs.IntVar(&c.replicas, "replicas", 0, "replica mode: hedged-vs-unhedged tail benchmark over this many replicas per shard")
	fs.IntVar(&c.shards, "shards", 0, "-replicas: shard count (default 2; -dpus is per shard)")
	fs.BoolVar(&c.straggler, "straggler", false, "-replicas: fault-inject a periodic straggler into the last replica of each shard")
	fs.DurationVar(&c.stragglerDelay, "stragglerdelay", 100*time.Millisecond, "-replicas -straggler: injected stall per straggling call")
	fs.IntVar(&c.stragglerEvery, "stragglerevery", 3, "-replicas -straggler: every Nth call to the straggler stalls")
	fs.IntVar(&c.clients, "clients", 8, "-replicas: concurrent closed-loop clients")
	fs.DurationVar(&c.serveDur, "servedur", 5*time.Second, "-replicas: measurement window of each of the two runs")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	var modes []string
	if set["exp"] || set["small"] || set["list"] {
		modes = append(modes, "-exp/-small/-list")
	}
	if *headToHead {
		modes = append(modes, "-headtohead")
	}
	if set["replicas"] {
		modes = append(modes, "-replicas")
	}
	if len(modes) > 1 {
		return config{}, fmt.Errorf("%s select different modes; give one", strings.Join(modes, " and "))
	}
	if !set["replicas"] {
		for _, name := range []string{"shards", "straggler", "stragglerdelay", "stragglerevery", "clients", "servedur"} {
			if set[name] {
				return config{}, fmt.Errorf("-%s applies only with -replicas", name)
			}
		}
	}
	if c.n < 0 || c.queries < 0 || c.dpus < 0 {
		return config{}, errors.New("-n, -queries and -dpus must not be negative")
	}

	switch {
	case *headToHead:
		c.mode = modeHeadToHead
	case set["replicas"]:
		c.mode = modeReplica
		if c.replicas < 2 {
			return config{}, fmt.Errorf("-replicas %d: tail masking needs at least 2 replicas", c.replicas)
		}
		if c.shards < 0 || c.clients <= 0 || c.serveDur <= 0 || c.stragglerDelay <= 0 || c.stragglerEvery <= 0 {
			return config{}, errors.New("-clients, -servedur, -stragglerdelay and -stragglerevery must be positive, -shards not negative")
		}
		if !c.straggler && (set["stragglerdelay"] || set["stragglerevery"]) {
			return config{}, errors.New("-stragglerdelay and -stragglerevery apply only with -straggler")
		}
	case *list:
		c.mode = modeList
	default:
		c.mode = modeExperiments
		c.exps = bench.All()
		if *expFlag != "" {
			c.exps = nil
			for _, id := range strings.Split(*expFlag, ",") {
				e, ok := bench.ByID(strings.TrimSpace(id))
				if !ok {
					return config{}, fmt.Errorf("unknown experiment %q (try -list)", id)
				}
				c.exps = append(c.exps, e)
			}
		}
	}
	return c, nil
}

func main() {
	cfg, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "drim-bench: %v\n", err)
		os.Exit(2)
	}
	switch cfg.mode {
	case modeList:
		for _, e := range bench.All() {
			fmt.Printf("%-5s %s\n", e.ID, e.Title)
		}
	case modeHeadToHead:
		err = runHeadToHead(cfg, os.Stdout)
	case modeReplica:
		err = runReplica(cfg, os.Stdout)
	default:
		err = runExperiments(cfg, os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "drim-bench: %v\n", err)
		os.Exit(1)
	}
}

// runExperiments is the paper's T/F experiment runner.
func runExperiments(cfg config, out io.Writer) error {
	scale := bench.DefaultScale()
	if cfg.small {
		scale = bench.SmallScale()
	}
	if cfg.n > 0 {
		scale.N = cfg.n
	}
	if cfg.queries > 0 {
		scale.Queries = cfg.queries
	}
	if cfg.dpus > 0 {
		scale.NumDPUs = cfg.dpus
	}
	if cfg.seed != 0 {
		scale.Seed = cfg.seed
	}
	fmt.Fprintf(out, "DRIM-ANN experiment harness: N=%d queries=%d DPUs=%d seed=%d\n\n",
		scale.N, scale.Queries, scale.NumDPUs, scale.Seed)
	runner := bench.NewRunner(scale)
	for _, e := range cfg.exps {
		start := time.Now()
		table, err := e.Run(runner)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		table.Fprint(out)
		fmt.Fprintf(out, "  (%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}
	return nil
}

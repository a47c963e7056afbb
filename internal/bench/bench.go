// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation (§5), each regenerating the same rows/series the
// paper reports, at a configurable scale. The paper's absolute numbers come
// from physical hardware; the harness reproduces the *shape* — who wins, by
// roughly what factor, and where crossovers fall — on the simulator.
package bench

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"drimann/internal/dataset"
	"drimann/internal/ivf"
	"drimann/internal/pq"
)

// Table is one regenerated artifact.
type Table struct {
	ID      string // paper artifact id: "T1", "F7", ...
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Scale sets the experiment sizes. The paper runs at 10^8-10^9 vectors on
// 2543 DPUs; the default scale keeps every ratio (nprobe/nlist, DPU
// occupancy, query skew) while fitting in seconds on a laptop.
type Scale struct {
	N          int   // base vectors per dataset
	Queries    int   // query count
	NumDPUs    int   // simulated DPUs
	K          int   // neighbors
	NLists     []int // sweep standing in for the paper's 2^13..2^16
	NProbes    []int // sweep standing in for the paper's 32..128
	CB         int   // codebook entries (paper: 256)
	Seed       int64
	DSEBudget  int // recall evaluations per DSE run
	KMeansIter int
}

// SmallScale is used by `go test -bench` and the test suite.
func SmallScale() Scale {
	return Scale{
		N: 10000, Queries: 96, NumDPUs: 24, K: 10,
		NLists:  []int{32, 64, 128, 256},
		NProbes: []int{4, 8, 12, 16},
		CB:      64, Seed: 42, DSEBudget: 6, KMeansIter: 6,
	}
}

// DefaultScale is used by cmd/drim-bench.
func DefaultScale() Scale {
	return Scale{
		N: 60000, Queries: 512, NumDPUs: 64, K: 10,
		NLists:  []int{128, 256, 512, 1024},
		NProbes: []int{8, 16, 24, 32},
		CB:      128, Seed: 42, DSEBudget: 10, KMeansIter: 10,
	}
}

// subvectorsFor picks the M that divides the dimension. The paper uses
// M=16 with CB=256 at 10^8 scale; at harness scale CB is smaller, so M is
// finer to keep the code resolution (M x log2(CB) bits) comparable.
func subvectorsFor(dim int) int {
	for _, m := range []int{32, 20, 16, 10, 8, 4, 2, 1} {
		if dim%m == 0 {
			return m
		}
	}
	return 1
}

// Runner caches datasets and indexes across experiments so the sweep suite
// stays fast.
type Runner struct {
	Scale Scale

	mu      sync.Mutex
	synths  map[string]*dataset.Synth
	indexes map[string]*ivf.Index
	gts     map[string][][]int32
}

// NewRunner builds a harness at the given scale.
func NewRunner(s Scale) *Runner {
	return &Runner{
		Scale:   s,
		synths:  make(map[string]*dataset.Synth),
		indexes: make(map[string]*ivf.Index),
		gts:     make(map[string][][]int32),
	}
}

// Dataset returns (cached) the named synthetic corpus: SIFT, DEEP, SPACEV
// or T2I shapes, generated with the query/cluster skew that drives the
// paper's load-balancing experiments.
func (r *Runner) Dataset(name string) *dataset.Synth {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.synths[name]; ok {
		return s
	}
	dims := map[string]struct {
		d    int
		seed int64
	}{
		"SIFT": {128, 0}, "DEEP": {96, 1}, "SPACEV": {100, 2}, "T2I": {200, 3},
	}
	shape, ok := dims[name]
	if !ok {
		panic(fmt.Sprintf("bench: unknown dataset %q", name))
	}
	// Latent clusters must stay at or below the smallest nlist so every IVF
	// cell subdivides one latent mode (unimodal residuals, like real data);
	// and each latent cluster should hold a few hundred points so neighbor
	// gaps stay resolvable by the quantizer at harness scale.
	nClusters := r.Scale.N / 300
	if nClusters < 32 {
		nClusters = 32
	}
	if max := r.Scale.NLists[0]; nClusters > max {
		nClusters = max
	}
	s := dataset.Generate(dataset.SynthConfig{
		Name: name, N: r.Scale.N, D: shape.d,
		NumQueries:  r.Scale.Queries,
		NumClusters: nClusters,
		ZipfS:       1.6,
		QuerySkew:   0.9,
		Hotspots:    4,
		Noise:       9,
		Seed:        r.Scale.Seed + shape.seed,
	})
	r.synths[name] = s
	return s
}

// Index returns (cached) an IVF-PQ index for the named dataset.
func (r *Runner) Index(name string, nlist, m, cb int) (*ivf.Index, error) {
	key := fmt.Sprintf("%s/%d/%d/%d", name, nlist, m, cb)
	r.mu.Lock()
	if ix, ok := r.indexes[key]; ok {
		r.mu.Unlock()
		return ix, nil
	}
	r.mu.Unlock()

	s := r.Dataset(name)
	ix, err := ivf.Build(s.Base, ivf.BuildConfig{
		NList:       nlist,
		PQ:          pq.Config{M: m, CB: cb, Iters: r.Scale.KMeansIter},
		KMeansIters: r.Scale.KMeansIter,
		TrainSample: min(s.Base.N, 20000),
		Seed:        r.Scale.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: building %s: %w", key, err)
	}
	r.mu.Lock()
	r.indexes[key] = ix
	r.mu.Unlock()
	return ix, nil
}

// GroundTruth returns (cached) exact neighbors for the named dataset.
func (r *Runner) GroundTruth(name string) [][]int32 {
	r.mu.Lock()
	if gt, ok := r.gts[name]; ok {
		r.mu.Unlock()
		return gt
	}
	r.mu.Unlock()
	s := r.Dataset(name)
	gt := dataset.GroundTruth(s.Base, s.Queries, r.Scale.K, 0)
	r.mu.Lock()
	r.gts[name] = gt
	r.mu.Unlock()
	return gt
}

// Experiment couples a paper artifact with its regeneration function.
type Experiment struct {
	ID    string
	Title string
	Run   func(*Runner) (*Table, error)
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"T1", "Large-scale ANNS datasets (Table 1)", Table1},
		{"F2", "Roofline analysis of ANNS on various platforms (Figure 2)", Figure2},
		{"F7", "End-to-end performance on SIFT100M-shaped data (Figure 7)", Figure7},
		{"F8", "End-to-end performance on DEEP100M-shaped data (Figure 8)", Figure8},
		{"F9", "PIM kernel latency breakdown (Figure 9)", Figure9},
		{"RM", "Regime map: LC/DC crossover and the bound's saving vs points per list", RegimeMap},
		{"FS", "Fleet scaling: sim QPS and scan work vs shards x replicas", FleetScaling},
		{"PA", "Price accuracy: the scheduler's task price against simulated cycles", PriceAccuracy},
		{"SS", "Shard split: size x (1 + probes) against measured cycles a list", ShardSplit},
		{"F10", "End-to-end energy comparison (Figure 10)", Figure10},
		{"F11a", "Speedup of multiplier-less (SQT) conversion (Figure 11a)", Figure11a},
		{"F11b", "Actual performance vs the performance model (Figure 11b)", Figure11b},
		{"F12a", "Accuracy/performance trade-off via DSE (Figure 12a)", Figure12a},
		{"F12b", "Speedup of WRAM buffer optimization (Figure 12b)", Figure12b},
		{"F13", "Speedup of load-balance optimization (Figure 13)", Figure13},
		{"F14a", "Cluster partition: split granularity sweep (Figure 14a)", Figure14a},
		{"F14b", "Cluster duplication: footprint sweep (Figure 14b)", Figure14b},
		{"F15", "Scalability to HBM-PIM and AiM vs CPU/GPU (Figure 15)", Figure15},
		{"T3", "Comparison with MemANNS on SIFT1B (Table 3)", Table3},
	}
}

// ByID finds an experiment by its paper artifact id (case-insensitive).
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }

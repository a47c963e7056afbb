package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"drimann/internal/core"
	"drimann/internal/dataset"
	"drimann/internal/ivf"
	"drimann/internal/pq"
)

// fixtureInfo identifies what a wall-clock mode ran on.
type fixtureInfo struct {
	N          int   `json:"n"`
	D          int   `json:"d"`
	Queries    int   `json:"queries"`
	DPUs       int   `json:"dpus"`
	Seed       int64 `json:"seed"`
	GoMaxProcs int   `json:"gomaxprocs"`
}

// report is the one JSON line a wall-clock mode ends its output with; Rows
// is the mode's table, one object per printed row.
type report struct {
	Mode    string      `json:"mode"`
	Fixture fixtureInfo `json:"fixture"`
	Rows    any         `json:"rows"`
}

// fixture is the corpus and IVF-PQ index both wall-clock modes run on: a
// synthetic SIFT-shaped set (100k x 128d, 1k queries, the engine's default
// DPU count and seed 1 unless overridden) under a 1024-list M16/CB256
// index trained briefly — the deployment BENCH_core.json's history was
// measured on, kept so the curves stay comparable with it by eye.
type fixture struct {
	info     fixtureInfo
	data     *dataset.Synth
	ix       *ivf.Index
	buildSec float64
	// engine is core's default options at the fixture's DPU count.
	engine core.Options
}

// newFixture prints the mode's heading, generates the corpus and builds the
// index.
func newFixture(cfg config, title string, out io.Writer) (*fixture, error) {
	f := &fixture{engine: core.DefaultOptions()}
	f.info = fixtureInfo{N: 100000, Queries: 1000, DPUs: f.engine.NumDPUs, Seed: 1,
		GoMaxProcs: runtime.GOMAXPROCS(0)}
	if cfg.n > 0 {
		f.info.N = cfg.n
	}
	if cfg.queries > 0 {
		f.info.Queries = cfg.queries
	}
	if cfg.dpus > 0 {
		f.info.DPUs = cfg.dpus
	}
	if cfg.seed != 0 {
		f.info.Seed = cfg.seed
	}
	f.engine.NumDPUs = f.info.DPUs
	fmt.Fprintf(out, "drim-bench %s: N=%d queries=%d DPUs=%d seed=%d\n",
		title, f.info.N, f.info.Queries, f.info.DPUs, f.info.Seed)
	f.data = dataset.SIFT(f.info.N, f.info.Queries, f.info.Seed)
	f.info.D = f.data.Base.D
	t0 := time.Now()
	ix, err := ivf.Build(f.data.Base, ivf.BuildConfig{
		NList:       1024,
		PQ:          pq.Config{M: 16, CB: 256},
		KMeansIters: 4,
		TrainSample: 8000,
		Seed:        f.info.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("building the ivf index: %w", err)
	}
	f.ix, f.buildSec = ix, time.Since(t0).Seconds()
	fmt.Fprintf(out, "  ivf index built in %.1fs\n", f.buildSec)
	return f, nil
}

// emit writes the closing JSON line.
func (f *fixture) emit(out io.Writer, mode string, rows any) error {
	line, err := json.Marshal(report{Mode: mode, Fixture: f.info, Rows: rows})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

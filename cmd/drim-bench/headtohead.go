// Head-to-head backend comparison (-headtohead). Both backends run on the
// same synthetic SIFT-shaped fixture and the same simulated PIM system size,
// and every query goes through the online serving path (the micro-batching
// server), so the numbers price the whole stack, not just the offline batch
// loop.

package main

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"drimann/internal/core"
	"drimann/internal/dataset"
	"drimann/internal/engine"
	"drimann/internal/graph"
	"drimann/internal/serve"
)

// curvePoint is one row of the head-to-head table: one backend at one value
// of its accuracy knob.
type curvePoint struct {
	Backend  string  `json:"backend"`
	Param    string  `json:"param"`
	Value    int     `json:"value"`
	Recall10 float64 `json:"recall_at_10"`
	SimQPS   float64 `json:"sim_qps"`
	WallQPS  float64 `json:"wall_qps"`
	BuildSec float64 `json:"build_s"`
}

// headToHeadGraphOptions is the graph build -headtohead compares against:
// wide enough to reach competitive recall on the 128-dimensional fixture,
// small enough to build in seconds.
func headToHeadGraphOptions(dpus int) graph.Options {
	o := graph.DefaultOptions()
	o.NumDPUs = dpus
	o.Degree = 24
	o.BuildBeam = 64
	o.K = 10
	return o
}

// serveSweep drives all queries once through a fresh server over eng (32
// concurrent callers, 1ms batching window) and returns the per-query IDs,
// the wall-clock seconds and the engine metrics the server accumulated.
func serveSweep(eng engine.Engine, qs dataset.U8Set, k int) ([][]int32, float64, engine.Metrics, error) {
	srv, err := serve.New(eng, serve.Options{MaxWait: time.Millisecond})
	if err != nil {
		return nil, 0, engine.Metrics{}, err
	}
	const clients = 32
	ids := make([][]int32, qs.N)
	var wg sync.WaitGroup
	errs := make([]error, clients)
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for qi := c; qi < qs.N; qi += clients {
				resp, err := srv.Search(context.Background(), qs.Vec(qi), k)
				if err != nil {
					errs[c] = err
					return
				}
				ids[qi] = resp.IDs
			}
		}(c)
	}
	wg.Wait()
	sec := time.Since(t0).Seconds()
	sim := srv.Metrics()
	if err := srv.Close(); err != nil {
		return nil, 0, engine.Metrics{}, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, 0, engine.Metrics{}, err
		}
	}
	return ids, sec, sim, nil
}

// runHeadToHead measures recall@10 vs simulated QPS for both backends over
// one corpus, sweeping each backend's accuracy knob (IVF: nprobe; graph:
// search beam), one table row per curve point.
func runHeadToHead(cfg config, out io.Writer) error {
	f, err := newFixture(cfg, "head-to-head", out)
	if err != nil {
		return err
	}
	qs := f.data.Queries
	gt := dataset.GroundTruth(f.data.Base, qs, 10, 0)

	var rows []curvePoint
	sweep := func(backend, param string, value int, buildSec float64, eng engine.Engine) error {
		ids, wallSec, sim, err := serveSweep(eng, qs, 10)
		if err != nil {
			return fmt.Errorf("%s %s=%d: %w", backend, param, value, err)
		}
		p := curvePoint{Backend: backend, Param: param, Value: value,
			Recall10: dataset.Recall(gt, ids, 10), SimQPS: sim.QPS,
			WallQPS: float64(qs.N) / wallSec, BuildSec: buildSec}
		rows = append(rows, p)
		fmt.Fprintf(out, "    %-5s %s=%-4d recall@10=%.3f  sim %.0f q/s  wall %.0f q/s\n",
			backend, param, value, p.Recall10, p.SimQPS, p.WallQPS)
		return nil
	}

	// IVF-PQ backend: sweep nprobe.
	for _, np := range []int{4, 8, 16, 32, 64} {
		opts := f.engine
		opts.NProbe = np
		eng, err := core.New(f.ix, dataset.U8Set{}, opts)
		if err != nil {
			return err
		}
		if err := sweep("ivf", "nprobe", np, f.buildSec, eng); err != nil {
			return err
		}
	}

	// Graph backend: one build, sweep the query-time beam width.
	t0 := time.Now()
	g, err := graph.New(f.data.Base, headToHeadGraphOptions(f.info.DPUs))
	if err != nil {
		return err
	}
	graphBuild := time.Since(t0).Seconds()
	fmt.Fprintf(out, "  graph built in %.1fs (degree=%d)\n", graphBuild, g.Options().Degree)
	for _, beam := range []int{16, 32, 64, 128} {
		eng, err := g.WithSearchOptions(func(o *graph.Options) { o.SearchBeam = beam })
		if err != nil {
			return err
		}
		if err := sweep("graph", "beam", beam, graphBuild, eng); err != nil {
			return err
		}
	}
	return f.emit(out, modeHeadToHead, rows)
}

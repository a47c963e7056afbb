package main

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"time"

	"drimann/internal/cluster"
	"drimann/internal/core"
	"drimann/internal/dataset"
	"drimann/internal/fault"
	"drimann/internal/serve"
)

// replicaRun is one row of the replica table: one closed-loop run over the
// degraded fleet, hedging off or on. The fleet and straggler settings
// repeat on both rows so each stands alone; Identical records that every
// response matched the single engine (a run that diverges aborts instead).
type replicaRun struct {
	Run              string  `json:"run"`
	Shards           int     `json:"shards"`
	Replicas         int     `json:"replicas"`
	Clients          int     `json:"clients"`
	DurSec           float64 `json:"duration_s"`
	StragglerDelayMS float64 `json:"straggler_delay_ms"`
	StragglerEvery   int     `json:"straggler_every"`
	Requests         int     `json:"requests"`
	QPS              float64 `json:"qps"`
	P50MS            float64 `json:"p50_ms"`
	P99MS            float64 `json:"p99_ms"`
	P999MS           float64 `json:"p999_ms"`
	Hedges           uint64  `json:"hedges"`
	HedgeWins        uint64  `json:"hedge_wins"`
	Identical        bool    `json:"identical_to_single_engine"`
	// The replicas' summed serve ledger after the drain; it balances when
	// Enqueued == Completed + Canceled + Failed.
	Enqueued  uint64 `json:"enqueued"`
	Completed uint64 `json:"completed"`
	Canceled  uint64 `json:"canceled"`
	Failed    uint64 `json:"failed"`
}

// replicaMaxWait is the micro-batcher window of every replica's server (its
// max batch stays the engine's batch size).
const replicaMaxWait = 200 * time.Microsecond

// runReplica is the -replicas mode: the tail-masking run over a replicated
// fleet. It deploys the fixture across cfg.shards hash-partitioned shard
// groups of cfg.replicas engine clones each, and — when -straggler is set —
// wraps the last replica of every shard in a fault-injected straggler that
// stalls every stragglerEvery-th call by stragglerDelay. A periodic
// straggler is the interesting adversary: a replica that is always slow is
// simply routed around by the load-aware pick, while one that is usually
// fast keeps earning traffic and only its occasional stalls poison the
// tail — exactly the case hedging exists for.
//
// The same closed-loop load (clients callers, serveDur window) runs twice
// over the degraded fleet — hedging disabled, then enabled — and every
// response is verified bit-identical to the unsharded single-engine
// reference.
func runReplica(cfg config, out io.Writer) error {
	shards := cfg.shards
	if shards == 0 {
		shards = 2
	}
	f, err := newFixture(cfg, "replica benchmark", out)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  %d shards x %d replicas (x%d DPUs), hash partitioning, %d clients, %s per run\n",
		shards, cfg.replicas, f.info.DPUs, cfg.clients, cfg.serveDur)
	row := replicaRun{Shards: shards, Replicas: cfg.replicas, Clients: cfg.clients, DurSec: cfg.serveDur.Seconds()}
	if cfg.straggler {
		row.StragglerDelayMS, row.StragglerEvery = cfg.stragglerDelay.Seconds()*1e3, cfg.stragglerEvery
		fmt.Fprintf(out, "  straggler: every %d-th call to the last replica of each shard stalls %s\n",
			cfg.stragglerEvery, cfg.stragglerDelay)
	}

	qs := f.data.Queries
	single, err := core.New(f.ix, dataset.U8Set{}, f.engine)
	if err != nil {
		return err
	}
	ref, err := single.SearchBatch(qs)
	if err != nil {
		return err
	}
	cl, err := cluster.New(f.ix, dataset.U8Set{}, cluster.Options{
		Shards: shards, Replicas: cfg.replicas,
		Assignment: cluster.AssignHash, Engine: f.engine,
	})
	if err != nil {
		return err
	}

	measure := func(label string, disableHedge bool) (replicaRun, error) {
		route := cluster.RouteOptions{DisableHedge: disableHedge, Seed: uint64(f.info.Seed)}
		if cfg.straggler {
			route.WrapReplica = func(shard, replica int, r cluster.Replica) cluster.Replica {
				if replica != cfg.replicas-1 {
					return r
				}
				return fault.Wrap(r, fault.Plan{Delay: cfg.stragglerDelay, DelayEvery: cfg.stragglerEvery,
					Seed: f.info.Seed + int64(shard)})
			}
		}
		srv, err := cluster.NewServerRouted(cl, serve.Options{MaxWait: replicaMaxWait}, route)
		if err != nil {
			return replicaRun{}, err
		}
		var (
			wg        sync.WaitGroup
			latMu     sync.Mutex
			latencies []time.Duration
			clientErr error
		)
		fail := func(err error) {
			latMu.Lock()
			if clientErr == nil {
				clientErr = err
			}
			latMu.Unlock()
		}
		start := time.Now()
		deadline := start.Add(cfg.serveDur)
		for c := 0; c < cfg.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				local := make([]time.Duration, 0, 4096)
				defer func() {
					latMu.Lock()
					latencies = append(latencies, local...)
					latMu.Unlock()
				}()
				for i := 0; time.Now().Before(deadline); i++ {
					qi := (i*cfg.clients + c) % qs.N
					t := time.Now()
					resp, err := srv.Search(context.Background(), qs.Vec(qi), 0)
					if err != nil {
						fail(fmt.Errorf("%s client %d: %w", label, c, err))
						return
					}
					local = append(local, time.Since(t))
					// The masking contract on the real fixture: a degraded
					// fleet still answers bit-identically to the unsharded
					// single engine.
					if !slices.Equal(resp.IDs, ref.IDs[qi]) {
						fail(fmt.Errorf("%s: query %d diverges from single engine", label, qi))
						return
					}
				}
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(start)
		if err := srv.Close(); err != nil {
			return replicaRun{}, err
		}
		if clientErr != nil {
			return replicaRun{}, clientErr
		}
		if len(latencies) == 0 {
			return replicaRun{}, fmt.Errorf("%s run completed no requests", label)
		}
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		pct := func(p float64) float64 { return serve.LatencyPercentile(latencies, p).Seconds() * 1e3 }
		st := srv.Stats()
		r := row
		r.Run, r.Identical = label, true
		r.Requests, r.QPS = len(latencies), float64(len(latencies))/elapsed.Seconds()
		r.P50MS, r.P99MS, r.P999MS = pct(0.50), pct(0.99), pct(0.999)
		r.Hedges, r.HedgeWins = st.Hedged, st.HedgeWins
		r.Enqueued, r.Completed, r.Canceled, r.Failed = st.Agg.Enqueued, st.Agg.Completed, st.Agg.Canceled, st.Agg.Failed
		fmt.Fprintf(out, "  %-9s %d requests, %.0f QPS  p50 %.3fms  p99 %.3fms  p999 %.3fms  (%d hedges, %d wins)\n",
			label+":", r.Requests, r.QPS, r.P50MS, r.P99MS, r.P999MS, r.Hedges, r.HedgeWins)
		if r.Enqueued != r.Completed+r.Canceled+r.Failed {
			return replicaRun{}, fmt.Errorf("%s: serve ledger does not balance: enqueued %d != completed %d + canceled %d + failed %d",
				label, r.Enqueued, r.Completed, r.Canceled, r.Failed)
		}
		return r, nil
	}

	unhedged, err := measure("unhedged", true)
	if err != nil {
		return err
	}
	hedged, err := measure("hedged", false)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  hedged p99 is %.1fx lower than unhedged  (results identical to single engine ✓, ledgers balance ✓)\n",
		unhedged.P99MS/hedged.P99MS)
	return f.emit(out, modeReplica, []replicaRun{unhedged, hedged})
}

package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"drimann/internal/dataset"
	"drimann/internal/engine"
	"drimann/internal/upmem"
)

// run is one invocation: one workload at one seed. It carries the inputs,
// the tracer (nil when tracing is off), the metrics gathered so far and the
// ledger of operations attempted and failed.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	z        sizes
	tr       *tracer
	root     int       // the run's root span
	tmpRoot  string    // scratch directory for on-disk stores, inside the checkout
	log      io.Writer // progress and failure messages

	// injectWrong is the test hook of the verification: the first checked
	// answer of the timed phase is corrupted before it is compared, so a
	// test can see the run fail. Never set by a measuring run.
	injectWrong bool

	mu        sync.Mutex
	metrics   map[string]metric
	samples   map[string]int // samples or segments behind a statistic
	attempted int64
	failed    int64
}

// specOf finds a metric's spec by name.
var specOf = func() map[string]metricSpec {
	m := map[string]metricSpec{}
	for _, s := range endToEnd {
		m[s.name] = s
	}
	for _, s := range perLayer {
		m[s.name] = s
	}
	return m
}()

// set records a metric; its unit comes from the spec, so a name the spec
// does not know is a bug.
func (r *run) set(name string, v float64) {
	spec, ok := specOf[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the spec")
	}
	r.mu.Lock()
	r.metrics[name] = metric{Value: v, Unit: spec.unit}
	r.mu.Unlock()
}

// add raises a metric already recorded by v.
func (r *run) add(name string, v float64) {
	r.mu.Lock()
	m := r.metrics[name]
	m.Value += v
	r.metrics[name] = m
	r.mu.Unlock()
}

// setSampled records a statistic together with the number of samples (or
// segments) it was taken over.
func (r *run) setSampled(name string, v float64, n int) {
	r.set(name, v)
	r.mu.Lock()
	r.samples[name] = n
	r.mu.Unlock()
}

// ops adds to the ledger: every search, mutation, recovery and verification
// check counts as attempted; an error, a refusal or a mismatch as failed.
func (r *run) ops(attempted, failed int64) {
	r.mu.Lock()
	r.attempted += attempted
	r.failed += failed
	r.mu.Unlock()
}

// check is one verification: it counts as an operation and, when ok is
// false, as a failed one.
func (r *run) check(ok bool, format string, args ...any) bool {
	var bad int64
	if !ok {
		bad = 1
		fmt.Fprintf(r.log, "FAIL %s: %s\n", r.workload, fmt.Sprintf(format, args...))
	}
	r.ops(1, bad)
	return ok
}

// capped is the length of a warm-up, a lead-in or the latency phase: d, cut
// down when the timed phase is too short to carry it (the smoke run and the
// tests; at BENCHMARK.json's run_seconds each runs in full).
func (r *run) capped(d time.Duration) time.Duration { return min(d, r.seconds/4) }

// timed runs fn inside a span and returns how long it took.
func (r *run) timed(name string, parent int, fn func() error) (float64, error) {
	id := r.tr.begin(name, parent, -1)
	t := time.Now()
	err := fn()
	sec := time.Since(t).Seconds()
	r.tr.end(id)
	return sec, err
}

// fixture is a run's input, made from corpusSeed and --seed and nothing else.
type fixture struct {
	base     dataset.U8Set // the corpus the index is built over; ids are positions
	reserve  dataset.U8Set // insert pool (fleet-mutate); ids continue after base
	profile  dataset.U8Set // held-out queries: the heat profile the engine deploys with
	measured dataset.U8Set // the queries that are searched and timed
	gt       [][]int32     // exact top-k of the first recallQ measured queries
}

// makeFixture generates the corpus and the query pool from corpusSeed,
// draws this run's measured queries from the pool with --seed, and computes
// ground truth. This is harness cost: it is reported (dataset.*) but is not in
// setup_s. The reserve is an evenly spread sample of the generated corpus —
// the generator stores points cluster by cluster, so a tail slice would aim
// every insert at the same few inverted lists.
func (r *run) makeFixture(n, reserve int) fixture {
	z := r.z
	var fx fixture
	sec, _ := r.timed("dataset.Generate", r.root, func() error {
		pool := z.profileQ + queryPoolX*z.measuredQ
		s := dataset.SIFT(n+reserve, pool, corpusSeed)
		d := s.Base.D
		fx.base = s.Base
		if reserve > 0 {
			total := n + reserve
			fx.base = dataset.U8Set{D: d, Data: make([]uint8, 0, n*d)}
			fx.reserve = dataset.U8Set{D: d, Data: make([]uint8, 0, reserve*d)}
			for i := 0; i < total; i++ {
				if (i+1)*reserve/total > i*reserve/total {
					fx.reserve.Data = append(fx.reserve.Data, s.Base.Vec(i)...)
					fx.reserve.N++
				} else {
					fx.base.Data = append(fx.base.Data, s.Base.Vec(i)...)
					fx.base.N++
				}
			}
		}
		// The first profileQ queries of the pool are the deployment's heat
		// profile; --seed draws the measured queries from the rest.
		fx.profile = queries(s.Queries, 0, z.profileQ)
		fx.measured = dataset.U8Set{N: z.measuredQ, D: d, Data: make([]uint8, 0, z.measuredQ*d)}
		for _, i := range rand.New(rand.NewSource(r.seed)).Perm(pool - z.profileQ)[:z.measuredQ] {
			fx.measured.Data = append(fx.measured.Data, s.Queries.Vec(z.profileQ+i)...)
		}
		return nil
	})
	r.set("dataset.generate_s", sec)
	sec, _ = r.timed("dataset.GroundTruth", r.root, func() error {
		fx.gt = dataset.GroundTruth(fx.base, queries(fx.measured, 0, z.recallQ), topK, 0)
		return nil
	})
	r.set("dataset.groundtruth_s", sec)
	return fx
}

// queries is the sub-set [lo, hi) of a query set, sharing its storage.
func queries(s dataset.U8Set, lo, hi int) dataset.U8Set {
	return dataset.U8Set{N: hi - lo, D: s.D, Data: s.Data[lo*s.D : hi*s.D]}
}

// detPass is the one deterministic offline pass over the measured queries
// on the pristine engine: the simulated clock, recall and the modelled
// hardware's counters all come from it, so they are exact at a fixed seed.
func (r *run) detPass(fx fixture, name string, parent int, search func(dataset.U8Set) (*engine.Result, error)) (*engine.Result, error) {
	var res *engine.Result
	_, err := r.timed(name, parent, func() (err error) {
		res, err = search(fx.measured)
		return err
	})
	r.ops(1, 0)
	if err != nil {
		r.ops(0, 1)
		return nil, fmt.Errorf("deterministic pass: %w", err)
	}
	m := &res.Metrics
	nq := float64(fx.measured.N)
	r.set("sim_qps", m.QPS)
	r.set("recall_at_10", dataset.Recall(fx.gt, res.IDs[:len(fx.gt)], topK))
	r.set("upmem.sim_host_s", m.HostSeconds)
	r.set("upmem.sim_pim_s", m.PIMSeconds)
	r.set("upmem.sim_xfer_s", m.XferSeconds)
	share := m.PhaseShare()
	for p, phase := range []string{"cl", "rc", "lc", "dc", "ts", "other"} {
		r.set("upmem.phase_share_"+phase, share[p])
	}
	var cycles, dmaBytes, dmaCount uint64
	for p := upmem.Phase(0); p < upmem.NumPhases; p++ {
		cycles += m.PhaseComputeCycles[p]
		dmaBytes += m.PhaseDMABytes[p]
		dmaCount += m.PhaseDMACount[p]
	}
	r.set("upmem.compute_cycles_per_query", float64(cycles)/nq)
	r.set("upmem.dma_bytes_per_query", float64(dmaBytes)/nq)
	r.set("upmem.dma_count_per_query", float64(dmaCount)/nq)
	r.set("upmem.imbalance", m.AvgImbalance())
	r.set("upmem.sqt16_hit_rate", m.SQT16HitRate())
	return res, nil
}

// sameAnswer reports whether one query's answer equals the reference.
func sameAnswer(got, want engine.QueryResult) bool {
	return slices.Equal(got.IDs, want.IDs) && slices.Equal(got.Items, want.Items)
}

// sameResults checks a whole batch against a reference batch, one check per
// query; what names the comparison in a failure message.
func (r *run) sameResults(what string, got, want *engine.Result) {
	if r.check(len(got.IDs) == len(want.IDs), "%s: %d answers, want %d", what, len(got.IDs), len(want.IDs)) {
		r.sameChunk(what, got, want, 0)
	}
}

// sameChunk checks the answers to the reference's queries lo, lo+1, ...
func (r *run) sameChunk(what string, got, want *engine.Result, lo int) {
	bad := int64(0)
	for qi := range got.IDs {
		if !sameAnswer(got.Query(qi), want.Query(lo+qi)) {
			if bad == 0 {
				fmt.Fprintf(r.log, "FAIL %s: %s: query %d differs: got %v want %v\n", r.workload, what, lo+qi, got.IDs[qi], want.IDs[lo+qi])
			}
			bad++
		}
	}
	r.ops(int64(len(got.IDs)), bad)
}

// corrupt is the injectWrong hook: it returns a copy of the answer with its
// first neighbor replaced, once per run.
func (r *run) corrupt(q engine.QueryResult) engine.QueryResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.injectWrong || len(q.IDs) == 0 {
		return q
	}
	r.injectWrong = false
	ids := slices.Clone(q.IDs)
	ids[0] ^= 1
	return engine.QueryResult{IDs: ids, Items: q.Items}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM). It is
// this sandbox's figure: the dataset and ground truth the harness holds are
// in it, beside the index, the engines and the garbage of repeated set-ups.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

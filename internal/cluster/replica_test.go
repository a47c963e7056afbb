package cluster_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drimann/internal/cluster"
	"drimann/internal/core"
	"drimann/internal/fault"
	"drimann/internal/serve"
)

// faultFleet builds the shared replicated fixture: S=2 shards x R=2
// replicas over the standard test corpus, plus the unreplicated
// single-engine reference results every masking assertion compares against.
func faultFleet(t *testing.T, n, queries int) (*cluster.Cluster, *core.Result, func(qi int) []uint8, int) {
	t.Helper()
	ix, s := testFixture(t, n, queries)
	single, err := core.New(ix, s.Queries, engineOpts())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := single.SearchBatch(s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(ix, s.Queries, cluster.Options{
		Shards: 2, Replicas: 2, Assignment: cluster.AssignHash, Engine: engineOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl, ref, s.Queries.Vec, s.Queries.N
}

// wrapper captures the fault wrapper of every (shard, replica) slot so
// tests can flip replica health mid-flight.
type wrapper struct {
	mu   sync.Mutex
	reps map[[2]int]*fault.Replica
}

func (w *wrapper) hook(plan func(shard, replica int) *fault.Plan) func(int, int, cluster.Replica) cluster.Replica {
	w.reps = map[[2]int]*fault.Replica{}
	return func(shard, replica int, r cluster.Replica) cluster.Replica {
		p := plan(shard, replica)
		if p == nil {
			return r
		}
		fr := fault.Wrap(r, *p)
		w.mu.Lock()
		w.reps[[2]int{shard, replica}] = fr
		w.mu.Unlock()
		return fr
	}
}

func (w *wrapper) get(shard, replica int) *fault.Replica {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.reps[[2]int{shard, replica}]
}

// TestReplicaFaultMasking is the fleet's availability contract: with R=2
// and replica 1 of every shard degraded — wedged forever, slow, erroring
// on every call, or killed mid-flight — every query still completes, with
// results bit-identical to the unreplicated single-engine reference,
// because hedging (for silent degradation) or failover (for loud failure)
// reroutes to the healthy replica. The healthy-fleet case pins the
// opposite edge: with hedge timers clamped far above real latency, no
// hedge ever fires.
func TestReplicaFaultMasking(t *testing.T) {
	cl, ref, vec, nq := faultFleet(t, 4000, 48)

	cases := []struct {
		name  string
		plan  *fault.Plan // applied to replica 1 of every shard
		route cluster.RouteOptions
		check func(t *testing.T, st cluster.ServerStats)
	}{
		{
			name: "wedged replica is hedged around",
			plan: &fault.Plan{WedgeFrom: 1},
			check: func(t *testing.T, st cluster.ServerStats) {
				if st.Hedged == 0 {
					t.Error("no hedge fired against a wedged replica")
				}
				if st.HedgeWins == 0 {
					t.Error("no hedge won against a wedged replica")
				}
			},
		},
		{
			name: "slow replica is hedged around",
			plan: &fault.Plan{Delay: 80 * time.Millisecond},
			check: func(t *testing.T, st cluster.ServerStats) {
				if st.Hedged == 0 {
					t.Error("no hedge fired against a slow replica")
				}
			},
		},
		{
			name: "erroring replica fails over and trips the breaker",
			plan: &fault.Plan{ErrorEvery: 1},
			check: func(t *testing.T, st cluster.ServerStats) {
				if st.Failovers == 0 {
					t.Error("no failover from an erroring replica")
				}
				if st.BreakerEjections == 0 {
					t.Error("breaker never ejected an always-erroring replica")
				}
			},
		},
		{
			name: "replica killed mid-flight fails over",
			plan: &fault.Plan{KillAfter: 3},
			check: func(t *testing.T, st cluster.ServerStats) {
				if st.Failovers == 0 {
					t.Error("no failover from a killed replica")
				}
			},
		},
		{
			name:  "healthy fleet: hedge does not fire",
			plan:  nil,
			route: cluster.RouteOptions{DisableHedge: true},
			check: func(t *testing.T, st cluster.ServerStats) {
				if st.Hedged != 0 {
					t.Errorf("%d hedges fired with hedging off", st.Hedged)
				}
				if st.Failovers != 0 || st.BreakerEjections != 0 {
					t.Errorf("failovers=%d ejections=%d in a healthy fleet", st.Failovers, st.BreakerEjections)
				}
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := &wrapper{}
			route := tc.route
			route.WrapReplica = w.hook(func(shard, replica int) *fault.Plan {
				if replica == 1 {
					return tc.plan
				}
				return nil
			})
			srv, err := cluster.NewServerRouted(cl, serve.Options{MaxBatch: 8, MaxWait: 200 * time.Microsecond}, route)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			got := make([]cluster.Response, nq)
			var wg sync.WaitGroup
			for qi := 0; qi < nq; qi++ {
				wg.Add(1)
				go func(qi int) {
					defer wg.Done()
					resp, err := srv.Search(context.Background(), vec(qi), 0)
					if err != nil {
						t.Errorf("query %d: %v", qi, err)
						return
					}
					got[qi] = resp
				}(qi)
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			for qi := range got {
				if !reflect.DeepEqual(got[qi].IDs, ref.IDs[qi]) {
					t.Fatalf("query %d IDs diverge from the healthy reference:\n  fleet  %v\n  single %v",
						qi, got[qi].IDs, ref.IDs[qi])
				}
				if !reflect.DeepEqual(got[qi].Items, ref.Items[qi]) {
					t.Fatalf("query %d Items diverge", qi)
				}
			}
			st := srv.Stats()
			if st.Completed != uint64(nq) {
				t.Fatalf("front door completed %d of %d", st.Completed, nq)
			}
			if st.Failed != 0 || st.Canceled != 0 || st.Rejected != 0 {
				t.Fatalf("degraded-replica queries leaked out of Completed: %+v", st)
			}
			tc.check(t, st)
		})
	}
}

// TestBreakerEjectProbeBack walks the breaker through its whole cycle on a
// live fleet: a replica that errors on every call is ejected after the
// failure threshold, sits out the cooldown window (during which it receives
// no traffic at all, not even hedges), then — once healed and the cooldown
// has elapsed — a probe is let through and its success closes the breaker,
// returning the replica to rotation.
func TestBreakerEjectProbeBack(t *testing.T) {
	cl, ref, vec, _ := faultFleet(t, 3000, 16)
	w := &wrapper{}
	cooldown := cluster.BreakerCooldown
	route := cluster.RouteOptions{
		WrapReplica: w.hook(func(shard, replica int) *fault.Plan {
			if replica == 1 {
				return &fault.Plan{}
			}
			return nil
		}),
	}
	srv, err := cluster.NewServerRouted(cl, serve.Options{MaxBatch: 4, MaxWait: 0}, route)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	boom := errors.New("replica sick")
	w.get(0, 1).SetErr(boom)
	w.get(1, 1).SetErr(boom)

	// Drive sequential queries until both shards' replica 1 is ejected.
	// Every query still succeeds: the sick replica's failures fail over to
	// the healthy one.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := srv.Search(context.Background(), vec(0), 0); err != nil {
			t.Fatalf("query failed while replica 1 was sick: %v", err)
		}
		st := srv.Stats()
		if st.Shards[0].Replicas[1].Ejected && st.Shards[1].Replicas[1].Ejected {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica 1 never ejected: %+v", st)
		}
	}
	ejectedAt := time.Now()
	st := srv.Stats()
	if st.BreakerEjections < 2 {
		t.Fatalf("ejections %d, want >= 2", st.BreakerEjections)
	}

	// While the cooldown runs, traffic routes around the ejected replicas
	// entirely — no pick, no hedge, no probe.
	calls01, calls11 := w.get(0, 1).Calls(), w.get(1, 1).Calls()
	for i := 0; i < 10; i++ {
		if _, err := srv.Search(context.Background(), vec(i%4), 0); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(ejectedAt); d > cooldown/2 {
		t.Skipf("machine too slow to observe the cooldown window (%v elapsed)", d)
	}
	if got := w.get(0, 1).Calls(); got != calls01 {
		t.Fatalf("ejected replica 0/1 received %d calls during cooldown", got-calls01)
	}
	if got := w.get(1, 1).Calls(); got != calls11 {
		t.Fatalf("ejected replica 1/1 received %d calls during cooldown", got-calls11)
	}

	// Heal the replicas and wait out the cooldown: the next queries claim
	// the half-open probe, route to replica 1, and the success closes the
	// breaker — visible as backend completions on the once-sick replicas.
	w.get(0, 1).SetErr(nil)
	w.get(1, 1).SetErr(nil)
	time.Sleep(cooldown + 50*time.Millisecond)
	deadline = time.Now().Add(10 * time.Second)
	for {
		resp, err := srv.Search(context.Background(), vec(1), 0)
		if err != nil {
			t.Fatalf("query failed after replica healed: %v", err)
		}
		if !reflect.DeepEqual(resp.IDs, ref.IDs[1]) {
			t.Fatal("post-heal result diverges from the healthy reference")
		}
		st = srv.Stats()
		if !st.Shards[0].Replicas[1].Ejected && !st.Shards[1].Replicas[1].Ejected &&
			st.Shards[0].Replicas[1].Completed > 0 && st.Shards[1].Replicas[1].Completed > 0 {
			break // probed back: breakers closed, replicas serving again
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica 1 never probed back: %+v", st)
		}
	}
}

// TestScatterFastFail pins the fast-fail satellite: when one shard fails,
// the front door must not wait for its siblings — a wedged sibling shard
// would otherwise hang the query forever — and the canceled siblings must
// not leak goroutines or queued work.
func TestScatterFastFail(t *testing.T) {
	ix, s := testFixture(t, 3000, 8)
	cl, err := cluster.New(ix, s.Queries, cluster.Options{Shards: 2, Engine: engineOpts()})
	if err != nil {
		t.Fatal(err)
	}
	w := &wrapper{}
	route := cluster.RouteOptions{
		WrapReplica: w.hook(func(shard, replica int) *fault.Plan { return &fault.Plan{} }),
	}
	srv, err := cluster.NewServerRouted(cl, serve.Options{MaxBatch: 4, MaxWait: 0}, route)
	if err != nil {
		t.Fatal(err)
	}

	baseline := runtime.NumGoroutine()

	// Shard 0 errors instantly; shard 1 is wedged forever. Without the
	// per-query derived context the Search would block on shard 1.
	boom := errors.New("shard down")
	w.get(0, 0).SetErr(boom)
	w.get(1, 0).Wedge()
	t0 := time.Now()
	_, err = srv.Search(context.Background(), s.Queries.Vec(0), 0)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("Search returned %v, want the shard 0 error", err)
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("fast-fail took %v; the wedged sibling was waited on", d)
	}

	// A caller-side deadline must likewise cancel both shards' work.
	w.get(0, 0).SetErr(nil)
	w.get(0, 0).Wedge()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := srv.Search(ctx, s.Queries.Vec(0), 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline Search returned %v", err)
	}

	// The canceled attempts unblock through their derived contexts: the
	// goroutine count must settle back to the baseline (and the wedges are
	// still in place, so anything stuck would be visible).
	settled := false
	for wait := time.Now().Add(5 * time.Second); time.Now().Before(wait); {
		if runtime.NumGoroutine() <= baseline+2 {
			settled = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !settled {
		t.Fatalf("goroutines leaked after fast-fail: baseline %d, now %d",
			baseline, runtime.NumGoroutine())
	}

	st := srv.Stats()
	if st.Failed != 1 {
		t.Fatalf("front door Failed = %d, want 1", st.Failed)
	}
	if st.Canceled != 1 {
		t.Fatalf("front door Canceled = %d, want 1", st.Canceled)
	}

	w.get(0, 0).Unwedge()
	w.get(1, 0).Unwedge()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for si, ss := range srv.Stats().Shards {
		tot := ss.Total()
		if tot.QueueDepth != 0 || tot.Inflight != 0 {
			t.Fatalf("shard %d left work behind after fast-fail: %+v", si, tot)
		}
	}
}

// TestStatsSnapshotNoTear is the -race regression for the snapshot-tear
// fix: Completed and the latency sum are read under one lock, so a
// snapshot taken mid-update can never divide mismatched pairs — observable
// as a completed query with a zero average latency.
func TestStatsSnapshotNoTear(t *testing.T) {
	ix, s := testFixture(t, 3000, 16)
	cl, err := cluster.New(ix, s.Queries, cluster.Options{
		Shards: 2, Replicas: 2, Engine: engineOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cluster.NewServer(cl, serve.Options{MaxBatch: 8, MaxWait: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	for p := 0; p < 2; p++ {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := srv.Stats()
				if st.Completed > 0 && st.AvgLatency <= 0 {
					t.Errorf("torn front-door snapshot: Completed=%d AvgLatency=%v",
						st.Completed, st.AvgLatency)
				}
				for si, ss := range st.Shards {
					for ri, rs := range ss.Replicas {
						if rs.Completed > 0 && rs.AvgLatency <= 0 {
							t.Errorf("torn replica snapshot %d/%d: Completed=%d AvgLatency=%v",
								si, ri, rs.Completed, rs.AvgLatency)
						}
					}
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, err := srv.Search(context.Background(), s.Queries.Vec((g*40+i)%s.Queries.N), 0); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	pollWG.Wait()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaChaos is the chaos invariant the CI stress step repeats:
// concurrent mixed-k traffic with random caller deadlines while replica 1
// of every shard is randomly wedged, errored, healed, and eventually
// killed. Every call must resolve exactly once (front-door ledger:
// Completed + Canceled + Rejected + Failed == calls), completed queries
// must be bit-identical to the unreplicated reference, no query may fail
// outright (replica 0 stays healthy, so masking must always succeed), and
// after the drain every replica's serve ledger must balance exactly once
// (Enqueued == Completed + Canceled + Failed).
func TestReplicaChaos(t *testing.T) {
	cl, ref, vec, nq := faultFleet(t, 4000, 48)
	w := &wrapper{}
	route := cluster.RouteOptions{
		WrapReplica: w.hook(func(shard, replica int) *fault.Plan {
			if replica == 1 {
				return &fault.Plan{}
			}
			return nil
		}),
	}
	srv, err := cluster.NewServerRouted(cl, serve.Options{MaxBatch: 8, MaxWait: 200 * time.Microsecond}, route)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const perG = 30
	var completed, canceled atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) * 104729))
			for i := 0; i < perG; i++ {
				qi := rng.Intn(nq)
				k := 1 + rng.Intn(cl.K())
				ctx := context.Background()
				var cancel context.CancelFunc
				if rng.Intn(5) == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(500+rng.Intn(2000))*time.Microsecond)
				}
				resp, err := srv.Search(ctx, vec(qi), k)
				if cancel != nil {
					cancel()
				}
				switch {
				case err == nil:
					want := ref.IDs[qi]
					if len(want) > k {
						want = want[:k]
					}
					if !reflect.DeepEqual(resp.IDs, want) {
						t.Errorf("query %d k=%d diverges under chaos", qi, k)
					}
					completed.Add(1)
				case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
					canceled.Add(1)
				default:
					t.Errorf("query failed under chaos (replica 0 healthy): %v", err)
				}
			}
		}(g)
	}

	// The chaos monkey: flip replica 1 of a random shard between wedged,
	// erroring and healthy; kill one of them outright partway through.
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		rng := rand.New(rand.NewSource(31337))
		sick := errors.New("chaos error")
		for i := 0; i < 60; i++ {
			fr := w.get(rng.Intn(2), 1)
			switch rng.Intn(4) {
			case 0:
				fr.Wedge()
			case 1:
				fr.Unwedge()
			case 2:
				fr.SetErr(sick)
			case 3:
				fr.SetErr(nil)
			}
			if i == 30 {
				w.get(0, 1).Kill()
			}
			time.Sleep(time.Millisecond)
		}
		// Heal everything that survives so the drain is clean.
		for sh := 0; sh < 2; sh++ {
			w.get(sh, 1).Unwedge()
			w.get(sh, 1).SetErr(nil)
		}
	}()
	wg.Wait()
	<-chaosDone
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	if got := completed.Load() + canceled.Load(); got != goroutines*perG {
		t.Fatalf("outcomes %d != %d calls", got, goroutines*perG)
	}
	st := srv.Stats()
	if st.Failed != 0 {
		t.Fatalf("%d queries failed outright with replica 0 healthy", st.Failed)
	}
	if total := st.Completed + st.Canceled + st.Rejected + st.Failed; total != goroutines*perG {
		t.Fatalf("front-door ledger %d+%d+%d+%d != %d calls",
			st.Completed, st.Canceled, st.Rejected, st.Failed, goroutines*perG)
	}
	for si, ss := range st.Shards {
		for ri, rs := range ss.Replicas {
			if rs.Enqueued != rs.Completed+rs.Canceled+rs.Failed {
				t.Fatalf("replica %d/%d ledger unbalanced after drain: %+v", si, ri, rs.Stats)
			}
			if rs.QueueDepth != 0 || rs.Inflight != 0 {
				t.Fatalf("replica %d/%d still busy after drain: %+v", si, ri, rs.Stats)
			}
		}
	}
}

// TestReplicatedOfflineEquivalence pins that replication is invisible to
// the offline scatter-gather path: a replicated cluster's SearchBatch
// (replica 0) stays bit-identical to the unreplicated fleet and the single
// engine.
func TestReplicatedOfflineEquivalence(t *testing.T) {
	ix, s := testFixture(t, 4000, 24)
	single, err := core.New(ix, s.Queries, engineOpts())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := single.SearchBatch(s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(ix, s.Queries, cluster.Options{
		Shards: 3, Replicas: 2, Engine: engineOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for si, sh := range cl.Shards() {
		if len(sh.Engines) != 2 || sh.Engines[0] != sh.Engine {
			t.Fatalf("shard %d replica wiring wrong: %d engines", si, len(sh.Engines))
		}
	}
	got, err := cl.SearchBatch(s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range ref.IDs {
		if !reflect.DeepEqual(got.IDs[qi], ref.IDs[qi]) {
			t.Fatalf("query %d diverges under replication", qi)
		}
	}
}

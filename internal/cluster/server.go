// ClusterServer: one online front door over a sharded, replicated fleet.
// Every shard is served by R interchangeable replicas, each a full
// internal/serve micro-batching server over its own engine clone (the
// per-replica batching policy is exactly the single-engine one — deadline
// EWMA, bounded admission queue, draining Close).
//
// The front door validates once, copies the query once, runs coarse locate
// once, and scatters the query to the shards owning its probed clusters
// concurrently under a per-query derived context. Within a shard the query
// is routed to one replica by power-of-two-choices on the replicas'
// instantaneous load (queued + in-launch, serve.Server.Load); if
// the chosen replica has not answered within a hedge delay derived from the
// sibling replicas' p99 latency digests, the request is re-issued to a
// second replica and the first reply wins (the loser is canceled through
// the per-query context). A replica that fails outright is retried on
// another replica immediately (failover), and a breaker ejects a replica
// after consecutive failures, letting a probe through per cooldown window
// until a success closes it — so a slow, wedged, erroring or dead replica
// is masked instead of dominating the merge, and the query completes with
// the same bit-identical merged result whenever any replica of each shard
// answers. The scatter itself fast-fails: the first shard whose every
// usable replica has failed cancels its siblings' in-flight work and fails
// the query.

package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"drimann/internal/core"
	"drimann/internal/dataset"
	"drimann/internal/serve"
	"drimann/internal/topk"
)

// ReplicaStats is one replica's serving ledger plus the routing state the
// front door keeps about it.
type ReplicaStats struct {
	serve.Stats
	// Load is the instantaneous queued+in-launch gauge routing compares.
	Load int
	// P99 is the latency-digest estimate hedge delays derive from (0 while
	// the digest is empty).
	P99 time.Duration
	// Ejected reports whether the breaker currently holds the replica out
	// of normal rotation; ConsecutiveFails its current failure streak.
	Ejected          bool
	ConsecutiveFails int
}

// ShardStats groups the replica ledgers of one shard.
type ShardStats struct {
	Replicas []ReplicaStats
}

// statsSum folds replica serve ledgers into one: counters sum, AvgLatency
// and MeanBatch are completed-weighted means, and Sim is the replicas'
// parallel metrics view (core.Metrics.MergeParallel).
type statsSum struct {
	t                serve.Stats
	latSum, batchSum float64
}

func (a *statsSum) add(rs *serve.Stats) {
	a.t.Enqueued += rs.Enqueued
	a.t.Completed += rs.Completed
	a.t.Canceled += rs.Canceled
	a.t.Failed += rs.Failed
	a.t.Rejected += rs.Rejected
	a.t.Batches += rs.Batches
	a.t.QueueDepth += rs.QueueDepth
	a.t.Inflight += rs.Inflight
	a.latSum += float64(rs.AvgLatency) * float64(rs.Completed)
	a.batchSum += rs.MeanBatch * float64(rs.Completed)
	a.t.Sim.MergeParallel(&rs.Sim)
}

func (a *statsSum) total() serve.Stats {
	if a.t.Completed > 0 {
		a.t.AvgLatency = time.Duration(a.latSum / float64(a.t.Completed))
		a.t.MeanBatch = a.batchSum / float64(a.t.Completed)
	}
	return a.t
}

// Total sums the shard's per-replica serve ledgers.
func (ss ShardStats) Total() serve.Stats {
	var sum statsSum
	for i := range ss.Replicas {
		sum.add(&ss.Replicas[i].Stats)
	}
	return sum.total()
}

// ServerStats is a point-in-time snapshot of a ClusterServer's serving
// metrics: the front door's scatter-gather ledger, the replication
// machinery's counters, and the per-shard, per-replica serve ledgers.
type ServerStats struct {
	// Completed counts scatter-gather queries answered with results;
	// Canceled counts queries lost to the caller's context (canceled or
	// deadline-exceeded); Rejected counts refusals — bad argument at the
	// front door, or the fleet already closed (serve.ErrClosed); Failed
	// counts queries where every usable replica of some shard returned a
	// genuine engine/launch error.
	Completed uint64
	Canceled  uint64
	Rejected  uint64
	Failed    uint64
	// AvgLatency is the mean front-door latency of completed queries
	// (slowest-shard wall time: a query is done when its last shard is).
	AvgLatency time.Duration

	// Hedged counts hedge attempts issued (the timer fired and a second
	// replica was asked); HedgeWins those whose answer arrived first.
	// Failovers counts attempts re-issued after a replica error;
	// BreakerEjections counts breaker open transitions.
	Hedged           uint64
	HedgeWins        uint64
	Failovers        uint64
	BreakerEjections uint64

	// Route is the cluster's routing view (fan-out distribution, front-door
	// CL cost) — shared with the offline Cluster.SearchBatch accumulator,
	// since both drive the same front door.
	Route RouteStats

	// Shards holds each shard's per-replica ledgers. A front-door query
	// appears once in exactly one replica of every shard it was routed to
	// (plus hedges/failovers).
	Shards []ShardStats
	// Agg sums every replica's ledger — except Agg.Sim, which is the
	// cross-replica parallel metrics view (core.Metrics.MergeParallel):
	// counters sum, wall-like durations are max-over-engines.
	Agg serve.Stats
}

// Response is one query's merged answer from the fleet.
type Response struct {
	// IDs are the global neighbor ids in the deterministic (distance, id)
	// order, truncated to the requested k; Items the scored candidates
	// behind them.
	IDs   []int32
	Items []topk.Item[uint32]
	// Latency is the front-door wall time: the slowest shard's
	// queueing + batching + launch, plus the merge.
	Latency time.Duration
	// MaxShardBatch is the largest micro-batch any shard served this query
	// in (the per-shard BatchSize, maxed over shards).
	MaxShardBatch int
	// Hedged reports whether any shard of this query issued a hedge
	// attempt.
	Hedged bool
	// ShardsContacted is this query's scatter fan-out: how many shards the
	// front door actually sent it to — the number of shards owning its
	// probed clusters (usually < S under AssignKMeans, close to S under
	// AssignHash, where every list is spread over all shards).
	ShardsContacted int
}

// Server is the sharded, replicated online serving layer. Construct with
// NewServer or NewServerRouted; all methods are safe for concurrent use.
type Server struct {
	cl     *Cluster
	opt    RouteOptions
	groups [][]*replicaHandle // [shard][replica]

	// servers retains the raw per-shard serve.Servers behind the Replica
	// wrappers: mutations quiesce the real batchers, and the fault-injection
	// wrap hook decorates only the query path.
	servers [][]*serve.Server
	// mutMu serializes fleet-wide mutations: two concurrent exclusiveAll
	// calls parking the same batchers in different orders would deadlock.
	mutMu sync.Mutex

	choice atomic.Uint64 // power-of-two-choices pick stream

	canceled  atomic.Uint64
	rejected  atomic.Uint64
	failed    atomic.Uint64
	hedged    atomic.Uint64
	hedgeWins atomic.Uint64
	failovers atomic.Uint64
	ejections atomic.Uint64

	// Completed and its latency sum snapshot under one mutex so AvgLatency
	// never divides a torn pair.
	doneMu    sync.Mutex
	completed uint64
	latencyNS int64
}

// NewServer starts one serve.Server per shard replica (all with the same
// options) behind a scatter-gather front door with default routing. The
// fleet becomes the engines' only driver: do not call the shard engines or
// Cluster.SearchBatch concurrently with a live server.
func NewServer(cl *Cluster, opt serve.Options) (*Server, error) {
	return NewServerRouted(cl, opt, RouteOptions{})
}

// NewServerRouted is NewServer with explicit replica-routing options
// (hedging policy, breaker thresholds, the fault-injection wrap hook).
func NewServerRouted(cl *Cluster, opt serve.Options, route RouteOptions) (*Server, error) {
	if cl == nil {
		return nil, fmt.Errorf("cluster: nil cluster")
	}
	route.defaults()
	s := &Server{
		cl:      cl,
		opt:     route,
		groups:  make([][]*replicaHandle, len(cl.shards)),
		servers: make([][]*serve.Server, len(cl.shards)),
	}
	s.choice.Store(route.Seed)
	for si, sh := range cl.shards {
		s.groups[si] = make([]*replicaHandle, len(sh.Engines))
		s.servers[si] = make([]*serve.Server, len(sh.Engines))
		for ri, eng := range sh.Engines {
			srv, err := serve.New(eng, opt)
			if err != nil {
				s.closeStarted()
				return nil, fmt.Errorf("cluster: shard %d replica %d server: %w", si, ri, err)
			}
			s.servers[si][ri] = srv
			var rep Replica = srv
			if route.WrapReplica != nil {
				rep = route.WrapReplica(si, ri, rep)
			}
			s.groups[si][ri] = &replicaHandle{rep: rep}
		}
	}
	return s, nil
}

// closeStarted closes whatever replicas a failed constructor already
// started.
func (s *Server) closeStarted() {
	for _, g := range s.groups {
		for _, h := range g {
			if h != nil {
				h.rep.Close()
			}
		}
	}
}

// pick selects a replica for the next attempt. An untried ejected replica
// whose cooldown has elapsed claims the half-open probe and is routed to
// first — probe-back must happen even while healthy siblings could serve
// the query, or an ejected replica never rejoins. Otherwise the pick is
// power-of-two-choices on Load among breaker-closed untried replicas.
// With no closed replica left, lastResort selects any untried replica —
// for the primary attempt and failovers a known-bad replica is still
// better than certain failure — while a hedge (lastResort false) is an
// optimization that declines instead. Reports false when no replica is
// eligible.
func (s *Server) pick(g []*replicaHandle, tried uint64, lastResort bool) (int, bool) {
	n := len(g)
	first := -1 // first untried replica, the last-resort fallback
	cand := make([]int, 0, n)
	now := time.Now()
	for i := 0; i < n; i++ {
		if tried&(1<<uint(i)) != 0 {
			continue
		}
		if first < 0 {
			first = i
		}
		if g[i].brk.closed() {
			cand = append(cand, i)
		} else if g[i].brk.tryProbe(now, s.opt.BreakerCooldown) {
			return i, true
		}
	}
	if first < 0 {
		return 0, false
	}
	switch len(cand) {
	case 0:
		if !lastResort {
			return 0, false
		}
		return first, true
	case 1:
		return cand[0], true
	default:
		// Power of two choices: sample two distinct candidates from the
		// deterministic choice stream, route to the less loaded one (ties
		// alternate so neither replica is systematically preferred).
		r := splitmix64(s.choice.Add(1))
		a := int(r % uint64(len(cand)))
		b := int((r >> 32) % uint64(len(cand)-1))
		if b >= a {
			b++
		}
		ca, cb := cand[a], cand[b]
		la, lb := g[ca].rep.Load(), g[cb].rep.Load()
		switch {
		case la < lb:
			return ca, true
		case lb < la:
			return cb, true
		case r&(1<<16) == 0:
			return ca, true
		default:
			return cb, true
		}
	}
}

// hedgeDelay derives the hedge timer for a query routed to g[primary]: the
// smallest p99 estimate among the sibling replicas the hedge could go to
// (if a sibling is likely to answer within d, waiting longer than d on a
// silent primary is wasted tail), clamped to [HedgeMin, HedgeMax], with
// HedgeGuess standing in while the digests are empty.
func (s *Server) hedgeDelay(g []*replicaHandle, primary int) time.Duration {
	best := time.Duration(0)
	for i, h := range g {
		if i == primary || !h.brk.closed() {
			continue
		}
		if p := h.dig.P99(); p > 0 && (best == 0 || p < best) {
			best = p
		}
	}
	if best == 0 {
		best = s.opt.HedgeGuess
	}
	if best < s.opt.HedgeMin {
		best = s.opt.HedgeMin
	}
	if best > s.opt.HedgeMax {
		best = s.opt.HedgeMax
	}
	return best
}

// attemptResult is one replica attempt's outcome.
type attemptResult struct {
	idx   int
	resp  serve.Response
	err   error
	dur   time.Duration
	hedge bool
}

// searchShard answers one query on one shard: route to a replica, hedge if
// it stalls, fail over if it errors, and return the first reply. Every
// attempt goes through the replica's SearchProbedOwned with the shard's
// share of the probe list and its CL distances (the front door already ran
// CL). Loser attempts are canceled through the attempt context when the
// function returns. An error return means the caller's context died, the
// fleet closed, or every usable replica failed.
func (s *Server) searchShard(qctx context.Context, g []*replicaHandle, q []uint8, k int, probes []int32, dists []uint32) (serve.Response, bool, error) {
	actx, acancel := context.WithCancel(qctx)
	defer acancel()

	results := make(chan attemptResult, len(g))
	var tried uint64
	inflight := 0
	launch := func(idx int, hedge bool) {
		tried |= 1 << uint(idx)
		inflight++
		go func() {
			t0 := time.Now()
			resp, err := g[idx].rep.SearchProbedOwned(actx, q, k, probes, dists)
			results <- attemptResult{idx: idx, resp: resp, err: err, dur: time.Since(t0), hedge: hedge}
		}()
	}

	primary, ok := s.pick(g, tried, true)
	if !ok {
		return serve.Response{}, false, fmt.Errorf("cluster: shard has no replicas")
	}
	launch(primary, false)

	hedgedAny := false
	var hedgeC <-chan time.Time
	if !s.opt.DisableHedge && len(g) > 1 {
		timer := time.NewTimer(s.hedgeDelay(g, primary))
		defer timer.Stop()
		hedgeC = timer.C
	}

	var lastErr error
	for {
		select {
		case <-qctx.Done():
			return serve.Response{}, hedgedAny, qctx.Err()
		case <-hedgeC:
			hedgeC = nil
			if idx, ok := s.pick(g, tried, false); ok {
				s.hedged.Add(1)
				hedgedAny = true
				launch(idx, true)
			}
		case r := <-results:
			inflight--
			if r.err == nil {
				g[r.idx].dig.record(r.dur)
				g[r.idx].brk.success()
				if r.hedge {
					s.hedgeWins.Add(1)
				}
				return r.resp, hedgedAny, nil
			}
			if err := qctx.Err(); err != nil {
				return serve.Response{}, hedgedAny, err
			}
			if errors.Is(r.err, serve.ErrClosed) {
				// The fleet is shutting down; no replica will do better.
				return serve.Response{}, hedgedAny, r.err
			}
			// Genuine replica failure: charge the breaker and fail over to
			// an untried replica immediately.
			if g[r.idx].brk.fail(s.opt.BreakerFailures, s.opt.BreakerCooldown, time.Now()) {
				s.ejections.Add(1)
			}
			lastErr = r.err
			if idx, ok := s.pick(g, tried, true); ok {
				s.failovers.Add(1)
				launch(idx, false)
			} else if inflight == 0 {
				return serve.Response{}, hedgedAny, lastErr
			}
		}
	}
}

// Search locates the query once, submits it concurrently to every shard
// owning one of its probed clusters — each shard routes it to one of its
// replicas, hedging and failing over as needed — and blocks until the
// merged answer is ready, ctx is done, or the fleet closes. The argument
// contract matches serve.Server.Search: q must have the index
// dimensionality (copied once at the front door), k <= 0 selects the
// engines' configured K, larger k is an error. The scatter fast-fails:
// the first shard to fail cancels its siblings' in-flight work through the
// per-query derived context (serve.ErrClosed is surfaced as such via
// errors.Is).
func (s *Server) Search(ctx context.Context, q []uint8, k int) (Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(q) != s.cl.Dim() {
		s.rejected.Add(1)
		return Response{}, fmt.Errorf("cluster: query dim %d != index dim %d", len(q), s.cl.Dim())
	}
	if k <= 0 {
		k = s.cl.K()
	} else if k > s.cl.K() {
		s.rejected.Add(1)
		return Response{}, fmt.Errorf("cluster: k %d exceeds engine K %d", k, s.cl.K())
	}
	// One copy at the front door; the per-replica servers use the no-copy
	// SearchProbedOwned hook against it (immutable until the last reply).
	owned := append([]uint8(nil), q...)

	t0 := time.Now()

	// Run coarse locate once here, split the probe list by owning shard, and
	// contact only those shards — each replica then skips its CL stage via
	// SearchProbedOwned.
	ps := s.cl.loc.Probes(dataset.U8Set{N: 1, D: s.cl.Dim(), Data: owned})
	perShard, shardDists, contacted := s.cl.probesByShard(ps.Clusters, ps.Dists)
	// Every contacted shard engine cuts its own waves, so each runs the
	// query's first wave unbounded.
	s.cl.recordRoute([]int{contacted}, []int{contacted}, time.Since(t0).Seconds(), s.cl.loc.CLSeconds(1))
	if contacted == 0 {
		// Every probed cluster is empty fleet-wide: the answer is empty,
		// no shard needs to hear about it. Non-nil empty IDs and nil Items
		// match the single engine's empty-result convention bit for bit.
		return s.complete(t0, Response{IDs: []int32{}}), nil
	}

	// The per-query context: canceling it aborts every in-flight replica
	// attempt of every shard, which is how the first failing shard stops
	// its siblings from finishing work nobody will merge.
	qctx, qcancel := context.WithCancel(ctx)
	defer qcancel()

	type shardResult struct {
		shard  int
		resp   serve.Response
		hedged bool
		err    error
	}
	results := make(chan shardResult, len(s.groups))
	for si, g := range s.groups {
		if len(perShard[si]) == 0 {
			continue // no probed cluster lives on this shard
		}
		go func(si int, g []*replicaHandle) {
			resp, hedged, err := s.searchShard(qctx, g, owned, k, perShard[si], shardDists[si])
			results <- shardResult{shard: si, resp: resp, hedged: hedged, err: err}
		}(si, g)
	}

	// Gather: remap each reply into global IDs as it arrives. The merge
	// orders by (dist, id) and ids are unique across shards, so arrival
	// order does not matter.
	parts := make([][]topk.Item[uint32], 0, contacted)
	maxBatch := 0
	hedgedAny := false
	for i := 0; i < contacted; i++ {
		r := <-results
		if r.err == nil {
			core.RemapItems(r.resp.Items, s.cl.shards[r.shard].GlobalIDs())
			parts = append(parts, r.resp.Items)
			maxBatch = max(maxBatch, r.resp.BatchSize)
			hedgedAny = hedgedAny || r.hedged
			continue
		}
		// Fast-fail: cancel sibling shards' in-flight work and classify.
		// Contract errors pass through unwrapped so callers can errors.Is
		// them exactly as with a single serve.Server: closed fleets are
		// refusals, lost contexts are cancellations, only genuine replica
		// errors count as failures.
		qcancel()
		switch {
		case errors.Is(r.err, serve.ErrClosed):
			s.rejected.Add(1)
			return Response{}, r.err
		case errors.Is(r.err, context.Canceled), errors.Is(r.err, context.DeadlineExceeded):
			s.canceled.Add(1)
			return Response{}, r.err
		default:
			s.failed.Add(1)
			return Response{}, fmt.Errorf("cluster: shard %d: %w", r.shard, r.err)
		}
	}
	ids, items := core.MergeShardTopK(k, parts)
	return s.complete(t0, Response{
		IDs: ids, Items: items,
		MaxShardBatch: maxBatch, Hedged: hedgedAny, ShardsContacted: contacted,
	}), nil
}

// complete stamps resp with the front-door latency since t0 and books it in
// the completed ledger.
func (s *Server) complete(t0 time.Time, resp Response) Response {
	resp.Latency = time.Since(t0)
	s.doneMu.Lock()
	s.completed++
	s.latencyNS += int64(resp.Latency)
	s.doneMu.Unlock()
	return resp
}

// exclusiveAll parks every replica batcher in the fleet at a launch
// boundary simultaneously (rendezvous through each serve.Server.Exclusive),
// runs fn while all engines are quiescent, then releases them. Replicas of
// one shard share their engine's index and placement, so a mutation is only
// safe once every batcher that could launch over that state is parked. If
// any replica has closed, fn is skipped and ErrClosed returned; the batchers
// that did park are released unharmed.
func (s *Server) exclusiveAll(fn func() error) error {
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	n := 0
	for _, g := range s.servers {
		n += len(g)
	}
	acks := make(chan bool, n)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for _, g := range s.servers {
		for _, srv := range g {
			wg.Add(1)
			go func(srv *serve.Server) {
				defer wg.Done()
				err := srv.Exclusive(func() error {
					acks <- true
					<-release
					return nil
				})
				if err != nil {
					// ErrClosed: Exclusive never accepted fn, so no true ack
					// was (or will be) sent for this server.
					acks <- false
				}
			}(srv)
		}
	}
	ok := true
	for i := 0; i < n; i++ {
		if !<-acks {
			ok = false
		}
	}
	var err error
	if ok {
		err = fn()
	} else {
		err = serve.ErrClosed
	}
	close(release)
	wg.Wait()
	return err
}

// Insert adds points to the live fleet (Cluster.Insert semantics: global
// ids, build-identical shard routing, owner map updated) with every replica
// batcher quiesced for the duration — queries admitted before the call are
// answered before or after the mutation, never during, and every query
// batched after the call returns sees the new points.
func (s *Server) Insert(vecs dataset.U8Set, ids []int32) error {
	return s.exclusiveAll(func() error { return s.cl.Insert(vecs, ids) })
}

// Delete removes global ids from the live fleet under the same fleet-wide
// quiescence as Insert.
func (s *Server) Delete(ids []int32) error {
	return s.exclusiveAll(func() error { return s.cl.Delete(ids) })
}

// Close seals every replica server (concurrently) and waits for each to
// drain. Safe to call multiple times and concurrently.
func (s *Server) Close() error {
	var wg sync.WaitGroup
	errs := make([]error, len(s.groups))
	for si, g := range s.groups {
		wg.Add(1)
		go func(si int, g []*replicaHandle) {
			defer wg.Done()
			var first error
			for _, h := range g {
				if err := h.rep.Close(); err != nil && first == nil {
					first = err
				}
			}
			errs[si] = first
		}(si, g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Stats snapshots the fleet's serving metrics.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		Canceled:         s.canceled.Load(),
		Rejected:         s.rejected.Load(),
		Failed:           s.failed.Load(),
		Hedged:           s.hedged.Load(),
		HedgeWins:        s.hedgeWins.Load(),
		Failovers:        s.failovers.Load(),
		BreakerEjections: s.ejections.Load(),
		Shards:           make([]ShardStats, len(s.groups)),
	}
	st.Route = s.cl.Stats().Route
	s.doneMu.Lock()
	st.Completed = s.completed
	if s.completed > 0 {
		st.AvgLatency = time.Duration(s.latencyNS / int64(s.completed))
	}
	s.doneMu.Unlock()
	var agg statsSum
	for si, g := range s.groups {
		st.Shards[si].Replicas = make([]ReplicaStats, len(g))
		for ri, h := range g {
			rs := ReplicaStats{
				Stats: h.rep.Stats(),
				Load:  h.rep.Load(),
				P99:   h.dig.P99(),
			}
			rs.ConsecutiveFails, rs.Ejected = h.brk.snapshot()
			st.Shards[si].Replicas[ri] = rs
			agg.add(&rs.Stats)
		}
	}
	st.Agg = agg.total()
	return st
}

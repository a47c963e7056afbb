// Package serve is DRIM-ANN's online serving layer: a concurrent,
// deadline-aware dynamic micro-batcher over any backend implementing the
// engine.Engine contract (the pipelined IVF-PQ engine of internal/core,
// the beam-search graph engine of internal/graph).
//
// The engine's SearchBatch is an offline primitive — one caller, one
// pre-assembled query set. Real ANN traffic (the paper's target workload)
// arrives as single queries from many concurrent callers, and on DRAM-PIM
// systems the batching policy around the kernel determines end-to-end QPS
// as much as the kernel itself: a launch has fixed scheduling and transfer
// overheads that amortize over the batch, while every query the batch waits
// for adds queueing latency. The Server navigates that trade-off.
//
// # Batcher states
//
// A single batcher goroutine owns the engine (SearchBatch is not safe for
// concurrent use — the engine pools per-launch state) and cycles through
// three states:
//
//	idle       — no pending queries; blocked on the arrival queue.
//	collecting — a batch is open: the first query's arrival started a
//	             max-wait countdown, and queries are absorbed until the
//	             batch reaches MaxBatch, the countdown expires, or a
//	             member's deadline demands an early launch.
//	launching  — the batch runs through Engine.SearchBatch; results are
//	             demultiplexed to each caller via Result.Query.
//
// # Deadline semantics
//
// A request's context deadline participates in the launch policy: the
// batcher tracks an EWMA of recent launch service times and launches early
// once now + estimated service time reaches the earliest deadline in the
// open batch, giving that request its best chance of answering in time.
// Cancellation is honored while a request is queued (it is dropped from the
// batch and fails with ctx.Err()); once its launch starts, the result is
// computed and delivered regardless — the caller may have stopped
// listening, which is its prerogative; delivery never blocks the batcher.
//
// # Backpressure and shutdown
//
// The arrival queue is bounded (Options.QueueLimit). When it is full,
// Search blocks — honoring its context — so overload turns into caller-side
// latency instead of unbounded memory growth. Close stops admission
// (subsequent Search calls fail fast with ErrClosed), then drains: every
// request already admitted is still launched and answered, so no response
// is ever lost. Requests racing with Close either get admitted and served
// or fail with ErrClosed — exactly one of the two.
//
// # Equivalence, mutation and durability
//
// Per-query results are bit-identical to a single SearchBatch over the same
// queries, however arrivals split into micro-batches (the equivalence suite
// pins this). Insert, and any mutation handed to Exclusive, runs on the
// batcher goroutine between launches — no hot-path locking; queries admitted
// before the call are answered before or after the mutation, never during —
// and Insert returns ErrUnsupported on a backend without the capability. The
// server knows nothing of durability: over an engine with a store attached
// (core.Engine.CreateStore, core.Recover) every mutation it applies is logged
// by the engine, and the caller closes the store after the server.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"drimann/internal/dataset"
	"drimann/internal/engine"
	"drimann/internal/topk"
)

// ErrUnsupported is returned when an operation needs a backend capability
// (mutation, probed search) the served engine does not implement.
var ErrUnsupported = errors.New("serve: backend does not support this operation")

// ErrClosed is returned by Search once Close has stopped admission.
var ErrClosed = errors.New("serve: server closed")

// Options configures a Server; zero values select defaults.
type Options struct {
	// MaxBatch caps queries per launch. Default: the engine's scheduling
	// batch size (larger launches would be split into several scheduling
	// batches inside the engine anyway).
	MaxBatch int
	// MaxWait bounds how long the first query of a batch waits for company
	// before the batch launches anyway. 0 launches immediately with
	// whatever is queued at that instant (pure dynamic batching).
	MaxWait time.Duration
	// QueueLimit bounds the pending-request queue; a full queue blocks
	// Search (backpressure). Default 4*MaxBatch.
	QueueLimit int
	// ServiceTimeGuess seeds the launch-duration EWMA the deadline-aware
	// early-launch policy uses before the first real measurement. Default
	// 1ms.
	ServiceTimeGuess time.Duration
}

func (o *Options) defaults(eng engine.Engine) {
	// Clamp to the engine's scheduling batch size: a larger MaxBatch would
	// silently split each launch into several scheduling batches inside the
	// engine, so the "launch" the deadline EWMA and the BatchSize stats
	// describe would no longer be the unit the batcher thinks it is timing.
	if o.MaxBatch <= 0 || o.MaxBatch > eng.MaxBatch() {
		o.MaxBatch = eng.MaxBatch()
	}
	if o.MaxWait < 0 {
		o.MaxWait = 0
	}
	if o.QueueLimit <= 0 {
		o.QueueLimit = 4 * o.MaxBatch
	}
	if o.ServiceTimeGuess <= 0 {
		o.ServiceTimeGuess = time.Millisecond
	}
}

// Response is one query's answer.
type Response struct {
	// IDs are the neighbor ids in the deterministic (distance, id) order,
	// truncated to the requested k.
	IDs []int32
	// Items carries the scored candidates behind IDs.
	Items []topk.Item[uint32]
	// Latency is enqueue-to-demux time: queueing + batching + launch.
	Latency time.Duration
	// BatchSize is the number of queries in the launch this one rode in.
	BatchSize int
}

// Stats is a point-in-time snapshot of the server's serving metrics.
type Stats struct {
	Enqueued  uint64 // requests admitted to the queue
	Completed uint64 // requests answered with results
	Canceled  uint64 // requests dropped while queued (context canceled)
	Failed    uint64 // requests answered with an engine launch error
	Rejected  uint64 // Search calls refused (closed, bad argument, ctx)
	Batches   uint64 // launches executed

	// The ledger balances: once the server has drained, Enqueued ==
	// Completed + Canceled + Failed (every admitted request is answered
	// exactly once).

	QueueDepth int // requests currently queued (admitted, not yet picked up)
	Inflight   int // requests currently inside a running engine launch

	// MeanBatch is Completed-weighted mean launch size.
	MeanBatch float64
	// AvgLatency is the mean enqueue-to-demux latency of completed requests.
	AvgLatency time.Duration

	// Sim aggregates the engine's simulated metrics over every launch this
	// server issued (engine.Metrics.Merge), so AvgImbalance, PhaseShare and
	// friends work on the lifetime view.
	Sim engine.Metrics
}

type reply struct {
	resp Response
	err  error
}

// mutation is a unit of work the batcher runs between launches on behalf of
// Exclusive; done (buffered 1) carries fn's error back to the caller.
type mutation struct {
	fn   func() error
	done chan error
}

type request struct {
	ctx   context.Context
	q     []uint8
	k     int
	enq   time.Time
	reply chan reply // buffered(1): delivery never blocks the batcher

	// probed requests carry a pre-resolved probe list (shard-local cluster
	// IDs, ascending distance order) from a sharded front door; the batcher
	// then skips the engine's CL stage (SearchBatchProbed); dists holds the
	// probes' CL distances, or nothing. Both are frozen under the same
	// contract as q.
	probes []int32
	dists  []uint32
	probed bool
}

// Server coalesces concurrent single-query Search calls into dynamic
// micro-batches over one backend engine. Construct with New; all methods
// are safe for concurrent use.
type Server struct {
	eng engine.Engine
	opt Options

	// Optional backend capabilities, discovered once at construction; nil
	// when the backend doesn't implement them.
	probed engine.ProbedSearcher
	mut    engine.Mutable

	pending chan *request
	// mutate is the Exclusive hand-off: unbuffered, so a mutation is only
	// accepted when the batcher is parked in its select — between launches,
	// never during one.
	mutate chan *mutation

	// admission guards the closed flag against in-flight sends: Search
	// holds it in read mode across its queue send, Close takes it in write
	// mode to flip closed, so after Close returns from the critical section
	// no sender can still be inside the select and the queue is final.
	admission sync.RWMutex
	closed    bool
	closeCh   chan struct{} // closed after admission is sealed
	loopDone  chan struct{}

	// Batcher-owned scratch (no locking: single goroutine).
	batchBuf []*request
	qbuf     []uint8
	psOff    []int32 // pooled ProbeSet storage for all-probed launches
	psClu    []int32
	psDist   []uint32
	est      time.Duration // EWMA of launch service time

	enqueued   atomic.Uint64
	canceled   atomic.Uint64
	failed     atomic.Uint64
	rejected   atomic.Uint64
	batches    atomic.Uint64
	queueDepth atomic.Int64
	inflight   atomic.Int64

	// The completion triple updates and snapshots under one mutex: Completed
	// and the latency/size sums it averages must come from the same instant,
	// or Stats can divide mismatched pairs under concurrent load.
	doneMu    sync.Mutex
	completed uint64
	sizeSum   uint64
	latencyNS int64

	simMu sync.Mutex
	sim   engine.Metrics
}

// New starts a server over eng — any backend implementing engine.Engine.
// The server becomes the engine's only driver: do not call eng.SearchBatch
// concurrently with a live server. Optional capabilities (probed search,
// mutation) are discovered by type assertion; operations needing a missing
// one fail with ErrUnsupported.
func New(eng engine.Engine, opt Options) (*Server, error) {
	if eng == nil {
		return nil, fmt.Errorf("serve: nil engine")
	}
	opt.defaults(eng)
	probed, _ := eng.(engine.ProbedSearcher)
	mut, _ := eng.(engine.Mutable)
	s := &Server{
		eng:      eng,
		probed:   probed,
		mut:      mut,
		opt:      opt,
		pending:  make(chan *request, opt.QueueLimit),
		mutate:   make(chan *mutation),
		closeCh:  make(chan struct{}),
		loopDone: make(chan struct{}),
		est:      opt.ServiceTimeGuess,
	}
	go s.loop()
	return s, nil
}

// Options reports the server's resolved configuration.
func (s *Server) Options() Options { return s.opt }

// Search submits one query and blocks until its micro-batch has been
// served, ctx is done, or the server closes. q must have the engine's
// dimensionality and must not be mutated until Search returns (it is
// copied at admission). k <= 0 selects the engine's configured K; k larger
// than that is an error (the engine computes exactly K candidates).
func (s *Server) Search(ctx context.Context, q []uint8, k int) (Response, error) {
	return s.search(ctx, q, k, true, nil, nil, false)
}

// SearchProbedOwned is Search with the CL stage pre-resolved and without the
// admission copy of q: probes carries this query's cluster list in the
// engine's (shard-local) ID space, ascending distance order, dists the CL
// distance of each (or nothing: the engine then computes them), and the
// batcher launches the micro-batch through Engine.SearchBatchProbed — no
// per-shard CL, no CL charge in this server's simulated metrics (the front
// door that resolved the probes accounts that phase once).
//
// The caller promises q, probes and dists stay valid and unmutated until the
// request's reply has been delivered. Note that this is a stronger promise
// than "until the call returns": a call abandoned on context cancellation can
// return while the request is still queued, and the batcher may read the
// buffers when it launches the batch later. Callers must therefore never
// mutate or recycle them after an error return either — treat them as frozen
// for as long as the server lives. The hook exists for fan-out layers that
// already copied the query once at their own front door and keep that copy
// alive (the sharded cluster server submits one immutable copy to S
// per-shard servers); everything else about the serving contract is
// identical. An empty probe list is valid and yields an empty
// response. If a launch mixes probed and unprobed requests the batcher
// falls back to the engine's own CL for the whole batch — results are
// identical (the probes came from the same locator over the same shared
// directory), only the CL attribution differs for that launch.
func (s *Server) SearchProbedOwned(ctx context.Context, q []uint8, k int, probes []int32, dists []uint32) (Response, error) {
	if s.probed == nil {
		s.rejected.Add(1)
		return Response{}, fmt.Errorf("serve: probed search on backend %T: %w", s.eng, ErrUnsupported)
	}
	if len(dists) != 0 && len(dists) != len(probes) {
		s.rejected.Add(1)
		return Response{}, fmt.Errorf("serve: %d probe distances for %d probes", len(dists), len(probes))
	}
	nlist := s.probed.NumClusters()
	for _, c := range probes {
		if c < 0 || int(c) >= nlist {
			s.rejected.Add(1)
			return Response{}, fmt.Errorf("serve: probe cluster %d outside [0, %d)", c, nlist)
		}
	}
	return s.search(ctx, q, k, false, probes, dists, true)
}

func (s *Server) search(ctx context.Context, q []uint8, k int, copyQ bool, probes []int32, dists []uint32, probed bool) (Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(q) != s.eng.Dim() {
		s.rejected.Add(1)
		return Response{}, fmt.Errorf("serve: query dim %d != index dim %d", len(q), s.eng.Dim())
	}
	if k <= 0 {
		k = s.eng.K()
	} else if k > s.eng.K() {
		s.rejected.Add(1)
		return Response{}, fmt.Errorf("serve: k %d exceeds engine K %d", k, s.eng.K())
	}
	if copyQ {
		q = append([]uint8(nil), q...)
	}
	r := &request{
		ctx:    ctx,
		q:      q,
		k:      k,
		enq:    time.Now(),
		reply:  make(chan reply, 1),
		probes: probes,
		dists:  dists,
		probed: probed,
	}

	// Holding the admission read lock across the send means closeCh cannot
	// close mid-select (Close takes the write lock first), so a sender that
	// got past the closed check always either completes its send — the
	// batcher keeps consuming until closeCh — or bails on its own context.
	s.admission.RLock()
	if s.closed {
		s.admission.RUnlock()
		s.rejected.Add(1)
		return Response{}, ErrClosed
	}
	// Counters are bumped before the send (and rolled back on the ctx
	// branch, where the send did not happen) so that once the batcher has
	// answered a request its admission is already on the ledger.
	s.queueDepth.Add(1)
	s.enqueued.Add(1)
	select {
	case s.pending <- r:
		s.admission.RUnlock()
	case <-ctx.Done():
		s.admission.RUnlock()
		s.queueDepth.Add(-1)
		s.enqueued.Add(^uint64(0))
		s.rejected.Add(1)
		return Response{}, ctx.Err()
	}

	select {
	case rep := <-r.reply:
		return rep.resp, rep.err
	case <-ctx.Done():
		// The batcher will still deliver into the buffered channel (or has
		// already); the caller just stops waiting.
		return Response{}, ctx.Err()
	}
}

// Exclusive runs fn on the batcher goroutine, between launches: when fn
// executes, no engine launch is in flight on this server and none starts
// until fn returns. This is the serialization point for live index
// mutations — the engine's Insert/Delete/Compact are not safe concurrently
// with SearchBatch, and running them here needs no locking on the query hot
// path. Exclusive blocks until fn has run (waiting out an in-flight launch
// first) and returns fn's error, or ErrClosed if the server closed before
// fn was accepted. Queries admitted before the call are answered before fn
// runs or after it — never during.
func (s *Server) Exclusive(fn func() error) error {
	m := &mutation{fn: fn, done: make(chan error, 1)}
	// Same admission discipline as search: holding the read lock across the
	// send means Close (write lock) cannot seal admission mid-send, so the
	// batcher is still consuming and the send always completes.
	s.admission.RLock()
	if s.closed {
		s.admission.RUnlock()
		return ErrClosed
	}
	s.mutate <- m
	s.admission.RUnlock()
	return <-m.done
}

// Insert routes the backend's Insert through Exclusive: the new points are
// PQ-encoded into their clusters' append segments between launches and are
// visible to every query batched after the call returns. A backend with a
// durable store attached has logged them by then (core.Engine.CreateStore).
func (s *Server) Insert(vecs dataset.U8Set, ids []int32) error {
	return s.exclusiveMut("insert", func(m engine.Mutable) error { return m.Insert(vecs, ids) })
}

// exclusiveMut runs fn on the Mutable backend through Exclusive, or fails
// with ErrUnsupported when the backend is not Mutable.
func (s *Server) exclusiveMut(op string, fn func(engine.Mutable) error) error {
	if s.mut == nil {
		return fmt.Errorf("serve: %s on backend %T: %w", op, s.eng, ErrUnsupported)
	}
	return s.Exclusive(func() error { return fn(s.mut) })
}

// Close seals admission, waits for every already-admitted request to be
// answered, and stops the batcher. Safe to call multiple times and
// concurrently; later calls wait for the first to finish draining. A
// durable store attached to the backend stays open: its owner closes it.
func (s *Server) Close() error {
	s.admission.Lock()
	if s.closed {
		s.admission.Unlock()
		<-s.loopDone
		return nil
	}
	s.closed = true
	s.admission.Unlock()
	// No Search call can be inside its queue send now (they hold the
	// admission read lock across the select), so the queue is final.
	close(s.closeCh)
	<-s.loopDone
	return nil
}

// Stats snapshots the server's serving metrics.
func (s *Server) Stats() Stats {
	st := Stats{
		Enqueued:   s.enqueued.Load(),
		Canceled:   s.canceled.Load(),
		Failed:     s.failed.Load(),
		Rejected:   s.rejected.Load(),
		Batches:    s.batches.Load(),
		QueueDepth: int(s.queueDepth.Load()),
		Inflight:   int(s.inflight.Load()),
	}
	s.doneMu.Lock()
	st.Completed = s.completed
	if s.completed > 0 {
		st.MeanBatch = float64(s.sizeSum) / float64(s.completed)
		st.AvgLatency = time.Duration(s.latencyNS / int64(s.completed))
	}
	s.doneMu.Unlock()
	s.simMu.Lock()
	st.Sim = s.sim
	s.simMu.Unlock()
	return st
}

// Load is the server's instantaneous request load — queued plus in-launch
// queries. It is the cheap gauge replica routers compare (power-of-two
// choices picks the less loaded of two replicas).
func (s *Server) Load() int {
	return int(s.queueDepth.Load() + s.inflight.Load())
}

// Metrics returns the aggregated simulated engine metrics of every launch
// this server issued.
func (s *Server) Metrics() engine.Metrics {
	s.simMu.Lock()
	defer s.simMu.Unlock()
	return s.sim
}

// LatencyPercentile returns the p-th (0..1) nearest-rank percentile of
// sorted (ascending) latencies — index ceil(p*n)-1, so p=1 is the max and
// small samples don't under-report the tail — or 0 for an empty slice.
// Shared by the load-generator tools that report p50/p95/p99 of Search
// latencies.
func LatencyPercentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// loop is the batcher goroutine: idle -> collecting -> launching, then the
// final drain once admission is sealed.
func (s *Server) loop() {
	defer close(s.loopDone)
	// Go 1.23+ timer semantics: Stop/Reset drain the channel, so the old
	// `if !Stop() { <-C }` idiom is unnecessary (and would deadlock).
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	for {
		select {
		case first := <-s.pending:
			s.queueDepth.Add(-1)
			s.launch(s.collect(first, timer))
		case m := <-s.mutate:
			m.done <- m.fn()
		case <-s.closeCh:
			// Exclusive holds the admission read lock across its send, so once
			// closeCh is closed no mutation can still be in flight: drain only
			// has queries to answer.
			s.drain()
			return
		}
	}
}

// drain empties the (now final) queue, launching full batches without
// waiting, so Close never strands an admitted request.
func (s *Server) drain() {
	for {
		batch := s.batchBuf[:0]
		for len(batch) < s.opt.MaxBatch {
			select {
			case r := <-s.pending:
				s.queueDepth.Add(-1)
				batch = append(batch, r)
			default:
				s.launch(batch)
				return
			}
		}
		s.launch(batch)
	}
}

// collect absorbs queued requests into first's batch until it is full, the
// max-wait countdown expires, a member's deadline demands an early launch,
// or the server starts closing (the remaining queue is handled by drain).
func (s *Server) collect(first *request, timer *time.Timer) []*request {
	batch := s.batchBuf[:0]
	launchAt := time.Now().Add(s.opt.MaxWait)
	// absorb answers an already-dead request right here — it must not
	// occupy a batch slot or drag launchAt into the past, which would
	// systematically under-batch live traffic when clients use aggressive
	// timeouts — and otherwise admits it, letting its deadline tighten the
	// launch window.
	absorb := func(r *request) {
		if err := r.ctx.Err(); err != nil {
			s.canceled.Add(1)
			r.reply <- reply{err: err}
			return
		}
		batch = append(batch, r)
		if d, ok := r.ctx.Deadline(); ok {
			if early := d.Add(-s.est); early.Before(launchAt) {
				launchAt = early
			}
		}
	}
	absorb(first)
	if s.opt.MaxBatch == 1 || len(batch) == 0 {
		// A dead first request leaves nothing to wait for: hand back to
		// the idle state rather than holding an empty window open.
		return batch
	}
	for len(batch) < s.opt.MaxBatch {
		// Fast path: absorb whatever is already queued before arming a
		// timer at all (with MaxWait 0 this is the whole policy).
		select {
		case r := <-s.pending:
			s.queueDepth.Add(-1)
			absorb(r)
			continue
		default:
		}
		wait := time.Until(launchAt)
		if wait <= 0 {
			break
		}
		timer.Reset(wait)
		select {
		case r := <-s.pending:
			timer.Stop()
			s.queueDepth.Add(-1)
			absorb(r)
		case <-timer.C:
			return batch
		case <-s.closeCh:
			return batch
		}
	}
	return batch
}

// launch runs one micro-batch through the engine and demultiplexes the
// per-query results. Requests whose context ended while they were queued
// are dropped here with their context error.
func (s *Server) launch(batch []*request) {
	s.batchBuf = batch // retain capacity for the next collect
	// Nil out the slots once every reply is delivered: the retained
	// capacity must not pin served requests (copied queries, reply
	// channels, caller contexts) until some later batch happens to
	// overwrite them.
	defer clear(s.batchBuf[:len(batch)])
	live := 0
	for _, r := range batch {
		if err := r.ctx.Err(); err != nil {
			s.canceled.Add(1)
			r.reply <- reply{err: err}
			continue
		}
		batch[live] = r
		live++
	}
	batch = batch[:live]
	if live == 0 {
		return
	}
	s.inflight.Store(int64(live))
	defer s.inflight.Store(0)

	dim := s.eng.Dim()
	s.qbuf = s.qbuf[:0]
	allProbed := true
	for _, r := range batch {
		s.qbuf = append(s.qbuf, r.q...)
		allProbed = allProbed && r.probed
	}
	qs := dataset.U8Set{N: live, D: dim, Data: s.qbuf}

	t0 := time.Now()
	var res *engine.Result
	var err error
	if allProbed && s.probed != nil {
		// Every member carries front-door probes: pack them (in batch order,
		// each list already ascending-distance) and skip the CL stage.
		s.psOff = append(s.psOff[:0], 0)
		s.psClu, s.psDist = s.psClu[:0], s.psDist[:0]
		for _, r := range batch {
			s.psClu, s.psDist = append(s.psClu, r.probes...), append(s.psDist, r.dists...)
			s.psOff = append(s.psOff, int32(len(s.psClu)))
		}
		ps := engine.ProbeSet{Offsets: s.psOff, Clusters: s.psClu, Dists: s.psDist}
		if len(ps.Dists) != len(ps.Clusters) { // some member came without: the engine fills the column
			ps.Dists = nil
		}
		res, err = s.probed.SearchBatchProbed(qs, ps, false)
	} else {
		res, err = s.eng.SearchBatch(qs)
	}
	dur := time.Since(t0)
	// EWMA (7/8 history) of launch service time for the deadline policy.
	s.est += (dur - s.est) / 8
	s.batches.Add(1)

	if err != nil {
		// Engine-level failure: fan the error to every member.
		for _, r := range batch {
			s.failed.Add(1)
			r.reply <- reply{err: fmt.Errorf("serve: launch: %w", err)}
		}
		return
	}

	s.simMu.Lock()
	s.sim.Merge(&res.Metrics)
	s.simMu.Unlock()

	for i, r := range batch {
		qr := res.Query(i)
		ids, items := qr.IDs, qr.Items
		if len(ids) > r.k {
			ids, items = ids[:r.k], items[:r.k]
		}
		// Copy at the demux boundary: the engine owns the Result storage,
		// and nothing in the serving contract stops a future engine from
		// pooling those buffers across launches. A Response must stay valid
		// for as long as the caller holds it, so it never aliases engine
		// memory (TestServeResponseDoesNotAliasEngine pins this).
		if len(ids) > 0 {
			ids = append([]int32(nil), ids...)
			items = append([]topk.Item[uint32](nil), items...)
		}
		lat := time.Since(r.enq)
		s.doneMu.Lock()
		s.completed++
		s.sizeSum += uint64(live)
		s.latencyNS += int64(lat)
		s.doneMu.Unlock()
		r.reply <- reply{resp: Response{
			IDs:       ids,
			Items:     items,
			Latency:   lat,
			BatchSize: live,
		}}
	}
}

// Package fault wraps a serving replica with injectable failure behaviors —
// delays (stragglers), wedges (calls that block forever), errors, and kills
// (a replica that dies permanently, releasing anything wedged inside it).
//
// The wrapper exists so the replication layer's tail-masking machinery
// (hedged requests, breakers, load-aware routing in internal/cluster) can be
// exercised against every replica failure mode the fleet claims to survive,
// both in the test suite and in `drim-bench -replicas R -straggler`.
//
// Scheduled behaviors are deterministic: each call atomically takes the next
// call number n (1-based), the plan decides from n alone whether the call is
// delayed, errored or wedged, and jitter is a pure hash of (Seed, n). Two
// runs over the same call sequence inject identically. Manual controls
// (Wedge/Unwedge/Kill/SetErr) layer on top for tests that need to flip a
// replica's health mid-flight.
package fault

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"drimann/internal/serve"
)

// ErrInjected is the error an error-scheduled call (Plan.ErrorEvery,
// Plan.FailFirst) fails with.
var ErrInjected = errors.New("fault: injected error")

// ErrKilled is returned by every call — including calls already wedged or
// sleeping — once the replica has been killed.
var ErrKilled = errors.New("fault: replica killed")

// Backend is the replica contract the wrapper interposes on; *serve.Server
// satisfies it, as does another *Replica (wrappers nest).
type Backend interface {
	SearchProbedOwned(ctx context.Context, q []uint8, k int, probes []int32, dists []uint32) (serve.Response, error)
	Load() int
	Stats() serve.Stats
	Close() error
}

// Plan is a deterministic injection schedule, keyed on the wrapper's own
// 1-based call counter. The zero Plan injects nothing.
type Plan struct {
	// Delay stalls matching calls for Delay (+ seeded jitter in
	// [0, DelayJitter)) before forwarding — the straggler behavior. A delayed
	// call still honors its context and a kill.
	Delay       time.Duration
	DelayJitter time.Duration
	// DelayEvery selects which calls stall: every DelayEvery-th call
	// (n % DelayEvery == 0). 0 or 1 delays every call (when Delay > 0).
	DelayEvery int
	// WedgeFrom > 0 wedges every call numbered >= WedgeFrom: it blocks until
	// its context dies or the replica is killed, and never reaches the
	// backend — the wedged-forever replica.
	WedgeFrom int
	// ErrorEvery > 0 fails every ErrorEvery-th call with ErrInjected before
	// it reaches the backend.
	ErrorEvery int
	// FailFirst > 0 fails calls 1..FailFirst with ErrInjected — a replica
	// that comes up sick and then recovers (the breaker probe-back case).
	FailFirst int
	// KillAfter > 0 kills the replica permanently once KillAfter calls have
	// been accepted: call KillAfter+1 and everything after it — and any call
	// still wedged or sleeping inside the wrapper — fails with ErrKilled.
	// The mid-flight kill: the backend below may be healthy, the replica is
	// gone regardless.
	KillAfter int
	// Seed feeds the jitter hash; 0 is a valid (and distinct) seed.
	Seed int64
}

// Replica wraps a Backend with a Plan. Construct with Wrap; all methods are
// safe for concurrent use.
type Replica struct {
	inner Backend
	plan  Plan

	calls   atomic.Uint64
	blocked atomic.Int64 // calls stalled inside the wrapper (wedge/delay)

	killOnce sync.Once
	killed   chan struct{}

	mu      sync.Mutex
	wedgeCh chan struct{} // non-nil while manually wedged; closed by Unwedge
	errInj  error         // manual SetErr override
}

// Wrap interposes plan on inner.
func Wrap(inner Backend, plan Plan) *Replica {
	return &Replica{inner: inner, plan: plan, killed: make(chan struct{})}
}

// Wedge manually wedges the replica: subsequent calls block until Unwedge,
// their context dies, or the replica is killed. Idempotent.
func (r *Replica) Wedge() {
	r.mu.Lock()
	if r.wedgeCh == nil {
		r.wedgeCh = make(chan struct{})
	}
	r.mu.Unlock()
}

// Unwedge releases a manual Wedge; calls blocked in it proceed normally.
func (r *Replica) Unwedge() {
	r.mu.Lock()
	if r.wedgeCh != nil {
		close(r.wedgeCh)
		r.wedgeCh = nil
	}
	r.mu.Unlock()
}

// Kill kills the replica permanently: every current and future call fails
// with ErrKilled, including calls blocked in a wedge or delay. Idempotent.
func (r *Replica) Kill() { r.killOnce.Do(func() { close(r.killed) }) }

// Killed reports whether Kill has fired (by schedule or by hand).
func (r *Replica) Killed() bool {
	select {
	case <-r.killed:
		return true
	default:
		return false
	}
}

// SetErr sets (err != nil) or clears (err == nil) a manual error override:
// while set, every call fails with it before reaching the backend.
func (r *Replica) SetErr(err error) {
	r.mu.Lock()
	r.errInj = err
	r.mu.Unlock()
}

// Calls reports how many calls the wrapper has accepted.
func (r *Replica) Calls() int { return int(r.calls.Load()) }

// splitmix64 hashes the (seed, call-number) pair into the jitter stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SearchProbedOwned applies the injection schedule, then forwards the routed
// probe list to the backend. The wrapped call keeps the serve.Server
// contract: it honors ctx, and the buffers handed in must stay frozen as long
// as the backend lives.
func (r *Replica) SearchProbedOwned(ctx context.Context, q []uint8, k int, probes []int32, dists []uint32) (serve.Response, error) {
	if err := r.admit(ctx); err != nil {
		return serve.Response{}, err
	}
	return r.inner.SearchProbedOwned(ctx, q, k, probes, dists)
}

// admit runs one call through the injection schedule: it takes the next
// call number and applies kill, manual error, fail-first/error-every,
// wedges and delays. A nil return means the call reaches the backend.
func (r *Replica) admit(ctx context.Context) error {
	n := r.calls.Add(1)
	if r.plan.KillAfter > 0 && n > uint64(r.plan.KillAfter) {
		r.Kill()
	}
	if r.Killed() {
		return ErrKilled
	}
	r.mu.Lock()
	errInj := r.errInj
	wedgeCh := r.wedgeCh
	r.mu.Unlock()
	if errInj != nil {
		return errInj
	}
	if r.plan.FailFirst > 0 && n <= uint64(r.plan.FailFirst) {
		return ErrInjected
	}
	if r.plan.ErrorEvery > 0 && n%uint64(r.plan.ErrorEvery) == 0 {
		return ErrInjected
	}
	if r.plan.WedgeFrom > 0 && n >= uint64(r.plan.WedgeFrom) {
		// Wedged forever: only the caller's context or a kill gets out.
		r.blocked.Add(1)
		defer r.blocked.Add(-1)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-r.killed:
			return ErrKilled
		}
	}
	if wedgeCh != nil {
		r.blocked.Add(1)
		select {
		case <-ctx.Done():
			r.blocked.Add(-1)
			return ctx.Err()
		case <-r.killed:
			r.blocked.Add(-1)
			return ErrKilled
		case <-wedgeCh:
			r.blocked.Add(-1)
		}
	}
	if r.plan.Delay > 0 && (r.plan.DelayEvery <= 1 || n%uint64(r.plan.DelayEvery) == 0) {
		d := r.plan.Delay
		if r.plan.DelayJitter > 0 {
			d += time.Duration(splitmix64(uint64(r.plan.Seed)^n) % uint64(r.plan.DelayJitter))
		}
		r.blocked.Add(1)
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			r.blocked.Add(-1)
			return ctx.Err()
		case <-r.killed:
			t.Stop()
			r.blocked.Add(-1)
			return ErrKilled
		case <-t.C:
			r.blocked.Add(-1)
		}
	}
	return nil
}

// Load reports the backend's load plus calls currently stalled inside the
// wrapper, so load-aware routers see a wedged or delayed replica as busy.
func (r *Replica) Load() int { return r.inner.Load() + int(r.blocked.Load()) }

// Stats forwards to the backend: the wrapper injects failures before
// admission, so its victims never appear in the serve ledger.
func (r *Replica) Stats() serve.Stats { return r.inner.Stats() }

// Close closes the backend. It does not release wedged calls — those belong
// to callers whose contexts the serving layer cancels; Kill releases them.
func (r *Replica) Close() error { return r.inner.Close() }

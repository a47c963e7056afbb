// Replica routing: the per-replica state the sharded Server routes with —
// a latency digest (the p99 estimate hedge timers derive from), a
// consecutive-failure breaker (eject and probe back), and the Replica
// contract itself, which is what fault injection wraps.

package cluster

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"drimann/internal/serve"
)

// Replica is one interchangeable copy of a shard's serving stack. A
// *serve.Server satisfies it; internal/fault wraps one with injectable
// wedge/delay/error/kill behaviors. The contract is serve.Server's:
// SearchProbedOwned honors ctx, the q buffer stays frozen while the replica
// lives, Load is the instantaneous queued+in-launch gauge routing compares.
type Replica interface {
	// SearchProbedOwned is the selective-scatter entry point: the front door
	// already resolved this query's probe list (cluster IDs, ascending
	// distance order), so the replica's engine skips its CL stage.
	// dists holds the probes' CL distances; both are frozen under the same
	// contract as q.
	SearchProbedOwned(ctx context.Context, q []uint8, k int, probes []int32, dists []uint32) (serve.Response, error)
	Load() int
	Stats() serve.Stats
	Close() error
}

var _ Replica = (*serve.Server)(nil)

// RouteOptions configures replica routing, hedging and the breaker; zero
// values select defaults. It only matters when the cluster was built with
// Replicas > 1 (a single replica leaves nothing to route between).
type RouteOptions struct {
	// DisableHedge turns hedged requests off: a query waits for its chosen
	// replica no matter how slow it is (the breaker still ejects replicas
	// that fail outright).
	DisableHedge bool
	// Seed feeds the deterministic power-of-two-choices pick stream.
	Seed uint64
	// WrapReplica, when set, interposes on each replica as the server is
	// built — the fault-injection hook (shard and replica identify the
	// slot). Returning r unchanged is valid.
	WrapReplica func(shard, replica int, r Replica) Replica
}

func (o *RouteOptions) defaults() {
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// The hedge timer and the breaker.
const (
	// hedgeMin and hedgeMax clamp the p99-derived hedge delay.
	hedgeMin = 250 * time.Microsecond
	hedgeMax = 100 * time.Millisecond
	// hedgeGuess seeds the hedge delay while a replica's latency digest is
	// still empty.
	hedgeGuess = 2 * time.Millisecond
	// breakerFailures is the consecutive-failure count that ejects a
	// replica.
	breakerFailures = 3
	// breakerCooldown is how long an ejected replica sits out before the
	// router lets one probe request through (half-open).
	breakerCooldown = 250 * time.Millisecond
)

// digestWindow is the per-replica latency sample window. Small enough that
// the p99 estimate tracks regime changes (a replica that turns slow) within
// ~a hundred requests, large enough that one outlier is not the p99.
const digestWindow = 128

// latDigest estimates a replica's p99 completion latency from a sliding
// window of samples. Recording is O(1) amortized: the nearest-rank p99 of
// the window is recomputed every 16 samples and cached atomically, so the
// hot routing path reads one atomic.
type latDigest struct {
	mu   sync.Mutex
	ring [digestWindow]int64
	n    int
	p99  atomic.Int64
}

func (d *latDigest) record(lat time.Duration) {
	d.mu.Lock()
	d.ring[d.n%digestWindow] = int64(lat)
	d.n++
	// Recompute eagerly while the window fills so the first samples replace
	// the cold-start guess quickly, then settle to every 16th sample.
	if d.n <= 16 || d.n%16 == 0 {
		filled := d.n
		if filled > digestWindow {
			filled = digestWindow
		}
		buf := make([]int64, filled)
		copy(buf, d.ring[:filled])
		sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
		idx := (filled*99+99)/100 - 1 // nearest-rank p99, clamped
		if idx < 0 {
			idx = 0
		}
		if idx >= filled {
			idx = filled - 1
		}
		d.p99.Store(buf[idx])
	}
	d.mu.Unlock()
}

// P99 returns the cached estimate, or 0 while no sample has been recorded.
func (d *latDigest) P99() time.Duration { return time.Duration(d.p99.Load()) }

// breaker ejects a replica after consecutive genuine failures and lets one
// probe through per cooldown window until a success closes it again.
type breaker struct {
	mu        sync.Mutex
	fails     int
	openUntil time.Time // zero while closed
}

// closed reports whether the breaker admits traffic freely.
func (b *breaker) closed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.openUntil.IsZero()
}

// tryProbe claims the half-open probe of an open breaker whose cooldown has
// elapsed. Claiming starts the next cooldown window, so at most one probe is
// admitted per window no matter what becomes of it — an abandoned probe (its
// query's context died before the attempt resolved) simply lets the next
// window probe again instead of wedging the breaker half-open forever.
func (b *breaker) tryProbe(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.openUntil.IsZero() || now.Before(b.openUntil) {
		return false
	}
	b.openUntil = now.Add(breakerCooldown)
	return true
}

// success closes the breaker.
func (b *breaker) success() {
	b.mu.Lock()
	b.fails, b.openUntil = 0, time.Time{}
	b.mu.Unlock()
}

// fail records a genuine replica failure; crossing breakerFailures (or
// failing a probe) re-opens the breaker for breakerCooldown. Reports whether
// this call newly ejected the replica.
func (b *breaker) fail(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.fails >= breakerFailures && b.openUntil.IsZero() {
		b.openUntil = now.Add(breakerCooldown)
		return true
	}
	if !b.openUntil.IsZero() {
		// Already open (a failed probe): push the cooldown out again.
		b.openUntil = now.Add(breakerCooldown)
	}
	return false
}

// snapshot reports (consecutive fails, ejected) for Stats.
func (b *breaker) snapshot() (int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fails, !b.openUntil.IsZero()
}

// replicaHandle is one routable replica: the serving stack plus the routing
// state the front door keeps about it.
type replicaHandle struct {
	rep Replica
	dig latDigest
	brk breaker
}

// Backend-contract bindings: the IVF-PQ engine's shared types (Metrics,
// Result, ProbeSet) now live in internal/engine so every backend — and the
// whole serving stack — shares one vocabulary. The aliases below keep this
// package's historical surface intact (core.Metrics IS engine.Metrics, not
// a copy, so existing callers, tests and the bit-identity suites are
// untouched), and the assertions pin that *Engine implements the full
// capability set the stack can discover.

package core

import "drimann/internal/engine"

// Metrics, Result and ProbeSet are the contract types shared by every
// backend; see internal/engine.
type (
	Metrics  = engine.Metrics
	Result   = engine.Result
	ProbeSet = engine.ProbeSet
)

// The IVF engine implements the mandatory contract and every optional
// capability the serving stack knows about.
var (
	_ engine.Engine         = (*Engine)(nil)
	_ engine.ProbedSearcher = (*Engine)(nil)
	_ engine.Mutable        = (*Engine)(nil)
)

// NumClusters returns the probe-ID domain of SearchBatchProbed — the
// index's nlist (engine.ProbedSearcher).
func (e *Engine) NumClusters() int { return e.ix.NList }

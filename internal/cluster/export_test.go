package cluster

import (
	"drimann/internal/core"
	"drimann/internal/ivf"
)

// Locator exposes the front-door CL stage (shared with shard 0's engine;
// stateless per call, safe for concurrent use).
func (cl *Cluster) Locator() *core.Locator { return cl.loc }

// OwnerShards returns the shards owning cluster c's inverted list or append
// segment (view into the current copy-on-write owner map, not a copy; empty
// for an empty cluster). Safe for concurrent use with mutations.
func (cl *Cluster) OwnerShards(c int32) []int32 { return cl.ownersView()[c] }

// Index returns the index carrying the fleet's shared quantizers: the
// unsharded index New partitioned, or a quantizer-only view (empty lists)
// after RecoverCluster.
func (cl *Cluster) Index() *ivf.Index { return cl.ix }

// Compact folds every shard's mutation overlay back into its packed layout
// (Cluster.Compact) under fleet-wide quiescence; from the next batch on,
// merged results are bit-identical to a freshly built fleet.
func (s *Server) Compact() error {
	return s.exclusiveAll(func() error { return s.cl.Compact() })
}

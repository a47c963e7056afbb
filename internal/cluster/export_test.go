package cluster

import (
	"reflect"

	"drimann/internal/core"
	"drimann/internal/ivf"
)

// BreakerCooldown is how long an ejected replica sits out before the router
// lets one probe through.
const BreakerCooldown = breakerCooldown

// Locator exposes the front-door CL stage (shared with shard 0's engine;
// stateless per call, safe for concurrent use).
func (cl *Cluster) Locator() *core.Locator { return cl.loc }

// OwnerShards returns the shards owning cluster c's inverted list or append
// segment (view into the current copy-on-write owner map, not a copy; empty
// for an empty cluster). Safe for concurrent use with mutations.
func (cl *Cluster) OwnerShards(c int32) []int32 { return cl.ownersView()[c] }

// Index returns the index carrying the fleet's shared quantizers, a
// quantizer-only view with empty lists.
func (cl *Cluster) Index() *ivf.Index { return cl.ix }

// Compact folds every shard's mutation overlay back into its packed layout
// (Cluster.Compact) under fleet-wide quiescence; from the next batch on,
// merged results are bit-identical to a freshly built fleet.
func (s *Server) Compact() error {
	return s.exclusiveAll(func() error { return s.cl.Compact() })
}

// LUTOf returns the LUT term table engine e reads (nil without one). The
// engine keeps it unexported; the tests that check a fleet builds one table
// for all its shards read the field by reflection.
func LUTOf(e *core.Engine) *ivf.LUTBuilder {
	return (*ivf.LUTBuilder)(reflect.ValueOf(e).Elem().FieldByName("lut").UnsafePointer())
}

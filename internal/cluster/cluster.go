// Package cluster is DRIM-ANN's sharding layer: it partitions one IVF-PQ
// corpus across S independent core.Engines (one simulated PIM system each —
// the rack-scale deployment the paper targets, where a billion-point corpus
// spans many UPMEM ranks), locates every query once at the front door, sends
// each shard only the probes it owns, and merges the per-shard partial top-k
// lists into a global result.
//
// # IVF-only, by decision
//
// The fleet type is *core.Engine, not engine.Engine. Everything this layer
// decides — which shard holds a point, which shards a query must reach, how a
// live insert is placed, what a shard checkpoint contains — is a function of
// the inverted-list structure: the coarse centroid directory, probe lists and
// list ownership. A graph index has none of these; partitioning it means
// cutting the graph and building per-part subgraphs, which belongs inside
// internal/graph (across its DPUs first), not behind a sharding interface
// with one real implementation. A generic layer would have to hide all of the
// above behind capabilities only the IVF engine could provide, so it would
// cost more code than the type assertions it removed.
//
// # Partitioning is placement only
//
// All shards share the index's quantizers — the coarse centroid directory
// and the PQ codebooks are small and replicated, exactly as every rank of a
// real deployment holds the full (tiny) directory — while the inverted
// lists are partitioned. The Assignment policy decides where points live and
// nothing else; both policies are searched through the same routed path:
//
//   - AssignHash spreads each cluster's points across shards by a
//     deterministic point-ID hash, so every shard holds a statistical 1/S
//     of every inverted list. Per-query work is near-perfectly balanced
//     across shards, at the cost of every probed cluster having up to S
//     owners (fan-out close to S).
//   - AssignKMeans assigns whole coarse (k-means) clusters to shards with
//     a balanced k-means over the centroid vectors themselves (capacity-
//     capped, weighted by measured cycles), so each inverted list lives
//     wholly on one shard and spatially neighboring lists share a shard.
//     Because a query's probes are spatial neighbors, the mean fan-out stays well
//     below S — the cross-rank partition UpANNS-style systems use to cut
//     fan-out traffic.
//
// # One routed search path
//
// The front door runs coarse locate (CL) once, through a Locator shared with
// shard 0's engine, and splits each query's probe list by the owner map:
// owners[c] lists the shards that hold points of cluster c (one shard under
// AssignKMeans, up to S under AssignHash). A shard with no owned probe is not
// contacted, and a contacted shard never runs CL. The offline
// Cluster.SearchBatch and the online Server.Search both work this way and
// record into one RouteStats.
//
// Each shard's engine runs in a compact local ID space (0..n_s-1): its
// sub-index lists the shard's points under local IDs, and the layer keeps a
// strictly increasing local→global table per shard (plus the per-shard
// global-ID offset of its first point, for the common contiguous prefix).
// Because the table is monotone, the deterministic (dist, id) order of a
// shard's results is preserved by the remap, and because the shards
// partition the corpus and share every quantizer table, the merged global
// top-k is bit-identical to a single unsharded engine's SearchBatch — the
// equivalence suite pins this for S ∈ {1, 2, 7} under both policies.
//
// # One staged scan, fleet-wide
//
// An offline batch is not S engines each running their own bound-forwarded
// staged scan (package core): the shards never talking, every shard a query
// reaches would repeat the query's unbounded first wave and prune against its
// own k-th distance only. The front door holds each query's whole probe list,
// so it cuts the waves itself, and the step loop the engine runs over itself
// (core.Steps) runs over the fleet: the shards' partial top-k merge into one
// bound per query at the barrier after every round, and every shard scans its
// later probes under the k-th distance found anywhere (SearchBatch has the
// rounds and why the answers cannot change). Within a round a shard's
// requests are spread over all R of its replicas at the scheduler's task
// price, so standby replicas scan offline batches too. The online Server sends
// single queries to shard engines directly; each then cuts its own waves.
//
// # Metrics
//
// The merged core.Metrics sums counters over every engine that ran
// (core.Metrics.MergeParallel) and takes PIM and transfer seconds from the
// slowest; SimSeconds adds up, round by round, the slowest engine of each
// round and the merges the next round had to wait for (core.Steps).
//
// Attribution follows the hardware: per-shard metrics carry no CL cost, and
// the merged metrics charge the front-door CL and the gather merges to
// HostSeconds — and to SimSeconds only where a launch had to wait for them,
// the engine's own host/PIM overlap accounting. Stats reports the routing
// view (per-query fan-out mean, max and histogram; front-door CL cost) and
// replica-aware memory: replicas of a shard share read-only state (index,
// codebooks, layout, locator), so a shard costs SharedBytes + R x
// PerReplicaBytes, not R times everything.
//
// # Online serving, mutation and durability
//
// Server puts one internal/serve micro-batcher in front of every replica of
// every shard behind one Search front door; Response.ShardsContacted is the
// query's fan-out. Replicas mask the tail — power-of-two-choices routing,
// hedging after a delay derived from the siblings' p99 (clamped by
// RouteOptions.HedgeMin and HedgeMax), failover and a breaker (server.go) —
// as long as any replica of each shard answers; internal/fault injects the
// failure modes that pin this, and `drim-bench -replicas R -straggler` prints
// hedged against unhedged tail latency over a fault-injected fleet.
// Insert, Delete and Compact quiesce every replica batcher of every shard at a
// launch boundary, apply the mutation through the global-ID routing
// (mutate.go) and release the fleet; CreateFleetStore and RecoverCluster give
// the fleet the engine's crash contract (durable.go).
package cluster

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"drimann/internal/core"
	"drimann/internal/dataset"
	"drimann/internal/ivf"
	"drimann/internal/vecmath"
)

// Assignment selects the shard-partitioning policy.
type Assignment string

const (
	// AssignHash spreads points across shards by a deterministic ID hash.
	AssignHash Assignment = "hash"
	// AssignKMeans assigns whole coarse clusters to shards by a balanced
	// k-means over the centroid vectors (spatial grouping under a capacity
	// cap), which keeps the routed fan-out well below S.
	AssignKMeans Assignment = "kmeans"
)

// Options configures a Cluster.
type Options struct {
	// Shards is the number of independent partitions; default 2.
	Shards int
	// Replicas is the number of identical engines per shard (R-way
	// replication); default 1. Engine construction is deterministic, so the
	// replicas of a shard answer bit-identically — the serving layer
	// (NewServer) exploits that to route each query to any one replica,
	// hedge stragglers, and mask dead replicas, and the offline
	// Cluster.SearchBatch to spread every shard's work over all of them.
	// At most 64: the routed Server tracks a query's tried replicas in one
	// uint64.
	Replicas int
	// Assignment picks the partitioning policy; default AssignHash.
	Assignment Assignment
	// Engine configures every per-shard engine (NumDPUs is per shard, so a
	// fleet of S shards simulates S x NumDPUs devices per replica).
	Engine core.Options
}

func (o *Options) defaults() error {
	if o.Shards <= 0 {
		o.Shards = 2
	}
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	if o.Replicas > 64 {
		return fmt.Errorf("cluster: %d replicas per shard, at most 64", o.Replicas)
	}
	switch o.Assignment {
	case "":
		o.Assignment = AssignHash
	case AssignHash, AssignKMeans:
	default:
		return fmt.Errorf("cluster: unknown assignment %q", o.Assignment)
	}
	return nil
}

// Shard is one partition: its replica engines over the shard's slice of
// the corpus plus the monotone local→global ID table.
type Shard struct {
	// Engine is replica 0: the engine whose state (live counts, modelled
	// probe cost) speaks for the shard, and the one batches too small to
	// spread run on.
	Engine *core.Engine
	// Engines holds every replica engine (Engines[0] == Engine). Replicas
	// are built from the same deployment with the same options, so they are
	// interchangeable: any replica's answer is the shard's answer.
	Engines []*core.Engine
	// table maps shard-local point IDs to corpus-global IDs. It is
	// copy-on-write behind an atomic pointer: the routed front door remaps
	// merged results on caller goroutines concurrently with live mutations,
	// and a reader holding the previous table stays self-consistent (results
	// it merges were produced under that table). Strictly increasing at
	// build time and after every Compact; between compactions appends may
	// break monotonicity, which only the bit-identity guarantee (not
	// findability) depends on.
	table atomic.Pointer[[]int32]
	// owned lists, ascending, the clusters this shard holds points of — or
	// has held since the last Compact: a live insert marks its cluster owned
	// even if the point is later deleted, which index contents alone cannot
	// reproduce, so checkpoints carry the list. The fleet's owner map is
	// derived from these (deriveOwners). Guarded by Cluster.mu.
	owned []int32
	// Points is the number of corpus points this shard owns.
	Points int
}

// GlobalIDs returns the shard's current local→global ID table (an immutable
// snapshot — mutations install a fresh table rather than editing this one).
func (sh *Shard) GlobalIDs() []int32 { return *sh.table.Load() }

func (sh *Shard) setTable(t []int32) { sh.table.Store(&t) }

// IVF returns the shard's replica-0 engine (inspection and tests).
func (sh *Shard) IVF() *core.Engine { return sh.Engine }

// growReplicas builds the shard's replica set around Engine: further
// replicas share replica 0's deployment (layout, decomposition terms,
// locator) read-only and only add private simulated hardware and scratch,
// instead of cloning the deployment R times.
func (sh *Shard) growReplicas(replicas int) error {
	sh.Engines = []*core.Engine{sh.Engine}
	for r := 1; r < replicas; r++ {
		rep, err := core.NewReplica(sh.Engine)
		if err != nil {
			return fmt.Errorf("replica %d engine: %w", r, err)
		}
		sh.Engines = append(sh.Engines, rep)
	}
	return nil
}

// Cluster is a fleet of shard engines behind one routed front door.
type Cluster struct {
	shards []*Shard
	opt    Options
	// ix carries the shared quantizers (the unsharded index New was given,
	// or a quantizer-only view after recovery); its lists are never read
	// after the build.
	ix *ivf.Index

	// loc is the front-door CL stage (borrowed from shard 0's engine — all
	// shard engines share the full centroid directory and the same options,
	// so their locators produce identical probes). owners[c] lists, ascending,
	// the shards that own cluster c (see Shard.owned): exactly one shard
	// under AssignKMeans, potentially all under AssignHash. Together they
	// route every query. The owner map is copy-on-write behind an atomic
	// pointer: the front door reads it per probe on caller goroutines,
	// concurrently with mutations that make previously-empty clusters
	// non-empty.
	loc    *core.Locator
	owners atomic.Pointer[[][]int32]

	routeMu sync.Mutex
	route   RouteStats

	// mu serializes mutations (Insert/Delete/Compact) with each other and
	// with Stats snapshots, so a snapshot never mixes pre- and
	// post-compaction shard views. The search path never takes it.
	mu sync.Mutex
	// shardOfCluster is the authoritative cluster→shard routing under
	// AssignKMeans (nil under AssignHash): inserts into cluster c land on
	// shardOfCluster[c] even when the cluster is currently empty.
	shardOfCluster []int32
	// g2l[s] maps global id → shard-local id for shard s, built lazily at
	// the first mutation (O(N) once) to route deletes and reject duplicate
	// inserts.
	g2l []map[int32]int32
	// esc is the encode scratch for front-door insert assignment; guarded
	// by mu.
	esc *ivf.EncodeScratch
	// fstore, when attached (CreateFleetStore / RecoverCluster), makes
	// every mutation durable: Insert/Delete log applied sub-batches to
	// the owning shards' WALs before acknowledging, Compact checkpoints
	// every shard. Guarded by mu.
	fstore *FleetStore
}

// RouteStats aggregates the routing behavior of every front-door batch
// (offline SearchBatch and the routed Server alike record here): how many
// shards each query actually touched, and what the front-door CL phase cost.
type RouteStats struct {
	// RoutedQueries counts queries routed through the front door.
	RoutedQueries int
	// Batches counts front-door CL invocations.
	Batches int
	// FanoutSum totals shards contacted over all routed queries;
	// FanoutSum/RoutedQueries is the mean scatter fan-out. MaxFanout is the
	// worst query's fan-out, and FanoutHist[f] counts queries that touched
	// exactly f shards (length S+1).
	FanoutSum  int64
	MaxFanout  int
	FanoutHist []int
	// LeadFanoutSum totals the shards that ran an unbounded first wave for a
	// query: in an offline SearchBatch those owning its leading probes (the
	// other shards it contacts scan under the merged bound), behind the
	// routed Server every shard contacted — a shard engine called directly
	// cuts its own waves.
	LeadFanoutSum int64
	// FrontCLWallSeconds is real time spent in front-door CL;
	// FrontCLSimSeconds is its modeled (simulated) host cost.
	FrontCLWallSeconds float64
	FrontCLSimSeconds  float64
}

// MeanFanout returns the average shards contacted per routed query (0 when
// nothing was routed).
func (r *RouteStats) MeanFanout() float64 {
	if r.RoutedQueries == 0 {
		return 0
	}
	return float64(r.FanoutSum) / float64(r.RoutedQueries)
}

// ShardMemStats is one shard's memory accounting: the read-only deployment
// bytes shared by all its replicas plus each replica's private bytes.
type ShardMemStats struct {
	Points          int
	Replicas        int
	SharedBytes     int64
	PerReplicaBytes int64
	// TotalBytes = SharedBytes + Replicas*PerReplicaBytes — what the shard
	// actually costs, versus Replicas*(Shared+PerReplica) for the naive
	// clone-everything replication this accounting replaced.
	TotalBytes int64
}

// Stats is the cluster-level observability snapshot: per-shard memory and
// the routing behavior of the front door.
type Stats struct {
	Shards []ShardMemStats
	Route  RouteStats
}

// Stats snapshots the cluster's memory and routing statistics. The shard
// sweep runs under the mutation mutex, so a snapshot taken while another
// goroutine inserts, deletes or compacts never mixes pre- and
// post-mutation shard views (MemoryFootprint reads the live
// append-segment/tombstone bytes, which only change under that mutex).
func (cl *Cluster) Stats() Stats {
	st := Stats{Shards: make([]ShardMemStats, len(cl.shards))}
	cl.mu.Lock()
	for s, sh := range cl.shards {
		mf := sh.Engine.MemoryFootprint()
		r := len(sh.Engines)
		st.Shards[s] = ShardMemStats{
			Points:          sh.Points,
			Replicas:        r,
			SharedBytes:     mf.SharedBytes,
			PerReplicaBytes: mf.PerReplicaBytes,
			TotalBytes:      mf.SharedBytes + int64(r)*mf.PerReplicaBytes,
		}
	}
	cl.mu.Unlock()
	cl.routeMu.Lock()
	st.Route = cl.route
	st.Route.FanoutHist = append([]int(nil), cl.route.FanoutHist...)
	cl.routeMu.Unlock()
	return st
}

// ownersView returns the current owner map snapshot (one atomic load; the
// per-probe loops index into it without re-loading).
func (cl *Cluster) ownersView() [][]int32 { return *cl.owners.Load() }

// deriveOwners derives the cluster→shards owner map from every shard's owned
// list and installs it (a fresh map each time, so readers of the previous
// one are undisturbed). Callers hold cl.mu or are the only goroutine.
func (cl *Cluster) deriveOwners() {
	owners := make([][]int32, cl.ix.NList)
	for s, sh := range cl.shards {
		for _, c := range sh.owned {
			owners[c] = append(owners[c], int32(s)) // shard-ascending: rows stay sorted
		}
	}
	cl.owners.Store(&owners)
}

// ownPackedLists resets every shard's owned list to its non-empty packed
// inverted lists — exact when no engine has a mutation overlay, i.e. after
// the build and after Compact — and rederives the owner map.
func (cl *Cluster) ownPackedLists() {
	for _, sh := range cl.shards {
		sh.owned = nil
		for c, list := range sh.Engine.Index().Lists {
			if len(list) > 0 {
				sh.owned = append(sh.owned, int32(c))
			}
		}
	}
	cl.deriveOwners()
}

// quantizerView returns an index sharing ix's quantizer state (centroids,
// codebooks, rotation, SQT) by reference, with empty inverted lists.
func quantizerView(ix *ivf.Index) *ivf.Index {
	return &ivf.Index{
		Dim: ix.Dim, NList: ix.NList, M: ix.M, CB: ix.CB,
		Centroids:   ix.Centroids,
		CentroidsU8: ix.CentroidsU8,
		PQ:          ix.PQ,
		IntCB:       ix.IntCB,
		OPQ:         ix.OPQ,
		SQT:         ix.SQT,
		Lists:       make([][]int32, ix.NList),
		Codes:       make([][]uint16, ix.NList),
	}
}

// recordRoute folds one front-door batch into the cluster's RouteStats.
// fanouts[i] is query i's shards-contacted count, leads[i] how many of them
// its unbounded first wave reached; wall is the real time the front-door CL
// took, sim its modeled host cost.
func (cl *Cluster) recordRoute(fanouts, leads []int, wall, sim float64) {
	cl.routeMu.Lock()
	defer cl.routeMu.Unlock()
	r := &cl.route
	if r.FanoutHist == nil {
		r.FanoutHist = make([]int, len(cl.shards)+1)
	}
	r.Batches++
	r.RoutedQueries += len(fanouts)
	for i, f := range fanouts {
		r.FanoutSum += int64(f)
		r.LeadFanoutSum += int64(leads[i])
		if f > r.MaxFanout {
			r.MaxFanout = f
		}
		r.FanoutHist[f]++
	}
	r.FrontCLWallSeconds += wall
	r.FrontCLSimSeconds += sim
}

// splitmix64 is the deterministic point-ID hash of AssignHash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// shardOfPoints computes each corpus point's shard under the configured
// assignment. nPoints is the corpus size (max list ID + 1); weight is the
// per-cluster weight the kmeans balance levels (see listWeights). It also
// returns the cluster→shard map under AssignKMeans (nil under AssignHash) —
// the routing live inserts follow, including into clusters that own no points
// yet.
func shardOfPoints(ix *ivf.Index, nPoints int, weight []float64, opt Options) ([]int32, []int32) {
	owner := make([]int32, nPoints)
	if opt.Assignment == AssignHash {
		for i := range owner {
			owner[i] = int32(splitmix64(uint64(i)) % uint64(opt.Shards))
		}
		return owner, nil
	}
	shardOfCluster := assignClustersKMeans(ix, opt.Shards, weight, core.PointCapacity(ix, opt.Engine))
	for c, list := range ix.Lists {
		for _, id := range list {
			owner[id] = shardOfCluster[c]
		}
	}
	return owner, shardOfCluster
}

// listWeights is each coarse cluster's expected query-time work — the weight
// the kmeans assignment balances across shards. With a profile workload it is
// measured: one throwaway engine over the whole index, a shard's DPUs with the
// fleet's MRAM, answers the profile, and a list weighs the simulated cycles
// its scans cost (core.ListCycles). A scan builds LUT entries, which grow
// slower than the list, and a bound prunes far probes harder than near ones, so
// no closed form of size and probe count tracks what a lane will spend. Memory
// follows the cost split, as it did under size x (1 + probes) — bounded by what
// a shard's engine can hold (assignClustersKMeans), not levelled. Without a
// profile every cluster weighs its list size: memory balance.
func listWeights(ix *ivf.Index, profile dataset.U8Set, opt Options) ([]float64, error) {
	if profile.N > 0 && opt.Assignment == AssignKMeans {
		return core.ListCycles(ix, profile, opt.Engine, opt.Shards)
	}
	weight := make([]float64, ix.NList)
	for c := range weight {
		weight[c] = float64(ix.ListLen(c))
	}
	return weight, nil
}

// assignClustersKMeans maps whole coarse clusters to shards by a balanced
// k-means over the centroid vectors themselves: S meta-centroids are seeded
// by farthest-point and refined by capacity-constrained Lloyd iterations
// weighted by heat (listWeights). Spatial grouping is what makes selective
// scatter pay off — a query's NProbe nearest clusters are spatial neighbors, so
// when neighboring clusters share a shard the probe list concentrates on few
// shards and the mean scatter fan-out drops well below S — while the
// capacity cap (~6% slack over perfect) keeps the heat split balanced
// enough that the fleet's max-over-shards latency doesn't pay for the
// locality, and pointCap (the points one shard's engine has MRAM for) keeps
// the lists no query of the profile probed from piling onto one shard.
// Deterministic: seeding, iteration order and tie-breaks are all fixed by the
// index and profile.
func assignClustersKMeans(ix *ivf.Index, shards int, heat []float64, pointCap int) []int32 {
	shardOfCluster := make([]int32, ix.NList)
	if shards <= 1 {
		return shardOfCluster
	}
	type cl struct {
		id     int
		weight float64
	}
	clusters := make([]cl, ix.NList)
	total := 0.0
	for c := range clusters {
		clusters[c] = cl{id: c, weight: heat[c]}
		total += heat[c]
	}
	// Deterministic heaviest-first order (ties by cluster id): hot clusters
	// place while capacity is plentiful, so the cap never strands them far
	// from their spatial home.
	sort.Slice(clusters, func(i, j int) bool {
		if clusters[i].weight != clusters[j].weight {
			return clusters[i].weight > clusters[j].weight
		}
		return clusters[i].id < clusters[j].id
	})

	// Farthest-point seeding from the heaviest cluster's centroid.
	dim := ix.Dim
	metas := make([][]float32, 0, shards)
	minD := make([]float32, ix.NList)
	seed := clusters[0].id
	metas = append(metas, append([]float32(nil), ix.Centroid(seed)...))
	for c := 0; c < ix.NList; c++ {
		minD[c] = vecmath.L2SquaredF32(ix.Centroid(c), metas[0])
	}
	for len(metas) < shards {
		far := 0
		for c := 1; c < ix.NList; c++ {
			if minD[c] > minD[far] {
				far = c
			}
		}
		metas = append(metas, append([]float32(nil), ix.Centroid(far)...))
		for c := 0; c < ix.NList; c++ {
			if d := vecmath.L2SquaredF32(ix.Centroid(c), metas[len(metas)-1]); d < minD[c] {
				minD[c] = d
			}
		}
	}

	capLimit := total/float64(shards)*(1+1.0/16) + 1
	load, held := make([]float64, shards), make([]int, shards)
	const iters = 8
	for it := 0; it < iters; it++ {
		// Capacity-constrained assignment: each cluster goes to the nearest
		// meta-centroid with room, for its heat under the cap and for its
		// points in the shard's MRAM (a measured heat is zero on every list the
		// profile never probed, and those lists still take memory); with
		// every shard full, the lightest takes it (the balance backstop).
		for s := range load {
			load[s], held[s] = 0, 0
		}
		for _, c := range clusters {
			best, bestD := -1, float32(0)
			light := 0
			for s := 0; s < shards; s++ {
				if load[s] < load[light] {
					light = s
				}
				if load[s]+c.weight > capLimit || held[s]+ix.ListLen(c.id) > pointCap {
					continue
				}
				d := vecmath.L2SquaredF32(ix.Centroid(c.id), metas[s])
				if best < 0 || d < bestD {
					best, bestD = s, d
				}
			}
			if best < 0 {
				best = light
			}
			shardOfCluster[c.id] = int32(best)
			load[best], held[best] = load[best]+c.weight, held[best]+ix.ListLen(c.id)
		}
		if it == iters-1 {
			break
		}
		// Lloyd step: each meta-centroid moves to the heat-weighted mean of
		// its clusters' centroids (empty shards keep their seed).
		sums := make([][]float64, shards)
		weight := make([]float64, shards)
		for s := range sums {
			sums[s] = make([]float64, dim)
		}
		for _, c := range clusters {
			if c.weight == 0 {
				continue
			}
			s := shardOfCluster[c.id]
			cen := ix.Centroid(c.id)
			for j := 0; j < dim; j++ {
				sums[s][j] += c.weight * float64(cen[j])
			}
			weight[s] += c.weight
		}
		for s := 0; s < shards; s++ {
			if weight[s] == 0 {
				continue
			}
			for j := 0; j < dim; j++ {
				metas[s][j] = float32(sums[s][j] / weight[s])
			}
		}
	}
	return shardOfCluster
}

// New partitions ix across opt.Shards engines. The profile workload (may be
// empty) drives each shard's layout heat profiling, exactly as in core.New,
// and under AssignKMeans also weights the shard assignment itself (see
// listWeights): shards balance measured query-time work, not just points.
// The shared quantizer state (centroids, codebooks, SQT) is referenced, not
// copied; only the inverted lists and codes are split. Like core.New, it
// refuses an index with uncompacted mutations: only the packed lists are
// partitioned, so live inserts would be dropped and tombstoned points
// resurrected.
func New(ix *ivf.Index, profile dataset.U8Set, opt Options) (*Cluster, error) {
	return NewWeighted(ix, profile, opt, nil)
}

// NewWeighted is New with the per-cluster weights the AssignKMeans split
// levels given by the caller (nil: New's own, see listWeights). It exists for
// drim-bench -exp SS and the tests that compare split rules on one corpus; the
// public package does not expose it.
func NewWeighted(ix *ivf.Index, profile dataset.U8Set, opt Options, weight []float64) (*Cluster, error) {
	if err := opt.defaults(); err != nil {
		return nil, err
	}
	if ix.HasMutations() {
		return nil, fmt.Errorf("cluster: index has uncompacted mutations; Compact it before deploying")
	}
	if weight == nil {
		var err error
		if weight, err = listWeights(ix, profile, opt); err != nil {
			return nil, fmt.Errorf("cluster: measuring list cost: %w", err)
		}
	} else if len(weight) != ix.NList {
		return nil, fmt.Errorf("cluster: %d weights for %d clusters", len(weight), ix.NList)
	}
	nPoints := 0
	for _, list := range ix.Lists {
		for _, id := range list {
			if int(id) >= nPoints {
				nPoints = int(id) + 1
			}
		}
	}
	owner, shardOfCluster := shardOfPoints(ix, nPoints, weight, opt)

	// Local ID spaces: enumerate each shard's points in ascending global ID
	// order, so the local→global table is strictly increasing and the remap
	// preserves the deterministic (dist, id) order.
	localOf := make([]int32, nPoints)
	tables := make([][]int32, opt.Shards)
	for id := 0; id < nPoints; id++ {
		s := owner[id]
		localOf[id] = int32(len(tables[s]))
		tables[s] = append(tables[s], int32(id))
	}

	cl := &Cluster{opt: opt, ix: ix, shards: make([]*Shard, opt.Shards), shardOfCluster: shardOfCluster}
	for s := 0; s < opt.Shards; s++ {
		sub := quantizerView(ix)
		for c, list := range ix.Lists {
			codes := ix.Codes[c]
			for pos, id := range list {
				if owner[id] != int32(s) {
					continue
				}
				sub.Lists[c] = append(sub.Lists[c], localOf[id])
				sub.Codes[c] = append(sub.Codes[c], codes[pos*ix.M:(pos+1)*ix.M]...)
			}
		}
		if err := core.ValidateRemapTable(tables[s]); err != nil {
			return nil, err
		}
		eng, err := core.New(sub, profile, opt.Engine)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d engine: %w", s, err)
		}
		sh := &Shard{Engine: eng, Points: len(tables[s])}
		sh.setTable(tables[s])
		if err := sh.growReplicas(opt.Replicas); err != nil {
			return nil, fmt.Errorf("cluster: shard %d %w", s, err)
		}
		cl.shards[s] = sh
	}
	cl.ownPackedLists()
	cl.loc = cl.shards[0].Engine.Locator()
	return cl, nil
}

// probesByShard splits one query's probe list, and the CL distances beside
// it, by the owner map: each shard's list keeps the ascending-distance order,
// so a shard engine cuts its waves, prices and schedules as it would after
// running CL itself. It also returns the query's scatter fan-out; a shard with
// an empty list is not contacted.
func (cl *Cluster) probesByShard(probes []int32, dists []uint32) (perShard [][]int32, shardDists [][]uint32, fanout int) {
	perShard, shardDists = make([][]int32, len(cl.shards)), make([][]uint32, len(cl.shards))
	owners := cl.ownersView()
	for i, c := range probes {
		for _, s := range owners[c] {
			if perShard[s] == nil {
				fanout++
			}
			perShard[s], shardDists[s] = append(perShard[s], c), append(shardDists[s], dists[i])
		}
	}
	return perShard, shardDists, fanout
}

// Shards exposes the fleet (for inspection, serving and tests).
func (cl *Cluster) Shards() []*Shard { return cl.shards }

// K reports the per-shard engines' configured neighbors-per-query.
func (cl *Cluster) K() int { return cl.shards[0].Engine.K() }

// Dim reports the vector dimensionality queries must match.
func (cl *Cluster) Dim() int { return cl.ix.Dim }

// SearchBatch answers the query batch with one bound-forwarded staged scan
// (see package core) run by the whole fleet. The front door locates every
// query once and, holding its probes in ascending distance, cuts each
// scheduling batch into waves with the engine's own rule (core.Steps.Cut), a
// cluster's live points summed over the shards that hold it; core.Steps — the
// loop a single engine runs over itself — launches them on every replica of
// every shard. A round is a step: it scatters a batch's first wave to the
// shards owning those probes together with the second wave of the batch
// before, under the bounds the last barrier merged, and at the barrier that
// ends it the shards' partial top-k — remapped to global ids — fold into one
// heap and one bound per query. So no shard repeats a query's unbounded first
// wave, every shard prunes against the k-th distance found anywhere, and a
// call of B batches takes B + 1 rounds, plus drain rounds while tasks stay
// postponed; every round spreads a shard's requests over all its replicas (a
// batch too small to split runs on replica 0, whatever shares its round) at
// the scheduler's own task price: the probes carry their CL distances, so a
// request costs what its list's distance from the query's bound lets survive
// (core.Engine.ProbeCycles).
//
// Answers are bit-identical to a single engine's SearchBatch over the
// unsharded corpus. A forwarded bound is the k-th best distance among points
// already merged, so it is no smaller than the final one; a scan drops only
// points strictly above its bound; and the merge orders whatever arrives by
// (distance, global id). Replicas hold the same data, so which replica scans a
// query changes what its DPUs' own heaps prune, never what survives to the
// merge.
//
// Simulated time is barrier by barrier (core.Steps); the front-door CL is
// charged once for the whole call and — exactly as the engine's own pipeline
// model treats its CL stage — overlapped with the scattered work.
func (cl *Cluster) SearchBatch(queries dataset.U8Set) (*core.Result, error) {
	if queries.D != cl.Dim() {
		return nil, fmt.Errorf("cluster: query dim %d != index dim %d", queries.D, cl.Dim())
	}
	start := time.Now()
	ps := cl.loc.Probes(queries)
	clWall := time.Since(start).Seconds()

	S, batch := len(cl.shards), cl.shards[0].Engine.MaxBatch()
	fleet, tables := make([][]*core.Engine, S), make([][]int32, S)
	for s, sh := range cl.shards {
		fleet[s], tables[s] = sh.Engines, sh.GlobalIDs()
	}
	st := core.NewSteps(queries, fleet, tables, cl.loc)
	owners := cl.ownersView()
	ownersOf := func(c int32) []int32 { return owners[c] }

	fanouts, leads := make([]int, queries.N), make([]int, queries.N)
	for lo := 0; lo < queries.N; lo += batch {
		hi := min(lo+batch, queries.N)
		for qi := lo; qi < hi; qi++ {
			fanouts[qi], leads[qi] = st.Cut(qi, ps.Of(qi), ps.DistsOf(qi), ownersOf)
		}
		if !st.Step(0) {
			copy(leads[lo:hi], fanouts[lo:hi]) // one wave, all of it unbounded
		}
	}
	clSim := cl.loc.CLSeconds(queries.N)
	cl.recordRoute(fanouts, leads, clWall, clSim)
	return st.Finish(clSim), nil
}

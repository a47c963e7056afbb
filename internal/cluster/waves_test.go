package cluster_test

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"drimann/internal/cluster"
	"drimann/internal/core"
	"drimann/internal/dataset"
	"drimann/internal/durable"
	"drimann/internal/engine"
)

func sameAnswers(t *testing.T, what string, got, want *core.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.IDs, want.IDs) || !reflect.DeepEqual(got.Items, want.Items) {
		t.Fatalf("%s: answers differ", what)
	}
}

func computeCycles(m *core.Metrics) (sum uint64) {
	for _, c := range m.PhaseComputeCycles {
		sum += c
	}
	return sum
}

// TestFleetOfOneIsTheEngine: the front door cuts the waves, merges between
// them and drains with the engine's own rules, so a fleet of one shard and one
// replica runs launch for launch what the engine runs when handed the same
// probes — equal answers and equal Metrics, field by field. Only the clock
// differs, by what the front door adds: its CL (the probed engine charged
// none) and its merges of the shard's partials, of which the ones between a
// batch's rounds delay the next launch. Tasks are postponed eagerly, so they
// ride across waves and batches and are left to drain at the end; 98 queries
// end in a batch too small to split, 96 in a full one. Under the measured task
// price the launches of the 96 are level within 0.2%, so Th3 = 1.005 postpones
// nothing there any more (it did under the flat bounded price: that row stays,
// with what it reads now) and a third row at 1.001 drains a full last batch.
func TestFleetOfOneIsTheEngine(t *testing.T) {
	ix, s := testFixture(t, 6000, 98)
	for _, tc := range []struct {
		th3    float64
		nq     int
		drains bool
	}{{1.005, 98, true}, {1.005, 96, false}, {1.001, 96, true}} {
		nq := tc.nq
		opts := engineOpts()
		opts.BatchSize = 48
		opts.Th3 = tc.th3
		opts.SplitThreshold = 397 // one list cut in two: the launches the Th3 rows were pinned on
		single, err := core.New(ix, s.Queries, opts)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(ix, s.Queries, cluster.Options{Shards: 1, Engine: opts})
		if err != nil {
			t.Fatal(err)
		}
		queries := dataset.U8Set{N: nq, D: s.Queries.D, Data: s.Queries.Data[:nq*s.Queries.D]}
		want, err := single.SearchBatchProbed(queries, single.Locator().Probes(queries), false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cl.SearchBatch(queries)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswers(t, "S=1 fleet vs probed engine", got, want)
		g, w := got.Metrics, want.Metrics
		// A step a full batch and one more for the last one's second wave,
		// which the two queries left over ride.
		if drained := w.Launches - (nq/opts.BatchSize + 1); (w.Postponed > 0 && drained > 0) != tc.drains {
			t.Fatalf("Th3 %v, %d queries: %d launches with %d tasks postponed, want drains: %v", tc.th3, nq, w.Launches, w.Postponed, tc.drains)
		}

		clSim := cl.Locator().CLSeconds(nq)
		front := g.HostSeconds - w.HostSeconds - clSim
		// Every launch hands the front door at most K items a query.
		if most := engine.HostMergeSeconds(w.Launches*opts.BatchSize*opts.K, opts.K); front <= 0 || front > most {
			t.Fatalf("front-door merges cost %.3gs, want within (0, %.3g]", front, most)
		}
		if late := g.SimSeconds - w.SimSeconds; late <= 0 || late > front {
			t.Fatalf("the fleet of one ran %.3gs behind the engine, its front-door merges cost %.3gs", late, front)
		}
		g.HostSeconds, g.SimSeconds, g.QPS = w.HostSeconds, w.SimSeconds, w.QPS
		if g != w {
			t.Fatalf("Metrics differ beyond the clock:\nfleet  %+v\nengine %+v", g, w)
		}
	}
}

// TestShardingCostsNoWork: a query's first wave runs once fleet-wide, not once
// a shard, and every shard prunes against the bound merged over all of them,
// so a sharded fleet spends about the single engine's cycles on the same
// points: 1.00x at S = 2 and at S = 7 here, where shards cutting their
// own waves spent 1.17x and 1.72x. What is left is per DPU — more DPUs each
// hold fewer of a query's points, so their own heaps bound later. The layout is
// the default one: a shard's optimizer prices a split at the LUT entries every
// slice builds again, so holding a smaller share of the lists no longer makes
// it split finer (under the old threshold search the same fleets read 1.34x and
// 1.24x unless split and copies were switched off).
func TestShardingCostsNoWork(t *testing.T) {
	ix, s := testFixture(t, 6000, 64)
	opts := engineOpts()
	single, err := core.New(ix, s.Queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.SearchBatch(s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 7} {
		cl, err := cluster.New(ix, s.Queries, cluster.Options{Shards: shards, Assignment: cluster.AssignKMeans, Engine: opts})
		if err != nil {
			t.Fatal(err)
		}
		got, err := cl.SearchBatch(s.Queries)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswers(t, "sharded vs single", got, want)
		if got.Metrics.PointsScanned != want.Metrics.PointsScanned {
			t.Fatalf("S=%d scanned %d points, the single engine %d", shards, got.Metrics.PointsScanned, want.Metrics.PointsScanned)
		}
		ratio := float64(computeCycles(&got.Metrics)) / float64(computeCycles(&want.Metrics))
		t.Logf("S=%d: %.3fx the single engine's compute cycles", shards, ratio)
		if ratio > 1.10 {
			t.Fatalf("S=%d fleet spent %.3fx the single engine's compute cycles, want at most 1.10x", shards, ratio)
		}
		rt := cl.Stats().Route
		if rt.LeadFanoutSum < int64(rt.RoutedQueries) || rt.LeadFanoutSum > rt.FanoutSum {
			t.Fatalf("S=%d: first-wave fan-out %d outside [queries %d, fan-out %d]", shards, rt.LeadFanoutSum, rt.RoutedQueries, rt.FanoutSum)
		}
	}
}

// TestReplicaSpread: every round of a fleet search spreads each shard's
// requests over all the shard's replicas. Replicas hold the same data, so
// R ∈ {1, 2, 3} fleets answer bit for bit alike and scan the same points —
// pristine, under live mutations (append segments and tombstones the standbys
// must see), recovered from their stores (the front door then holds a
// quantizer-only index: live counts have to come from the shard engines) and
// compacted (which replaces the placement the load estimate reads) — and more
// replicas never make the fleet slower.
func TestReplicaSpread(t *testing.T) {
	const n, base = 6000, 5600
	ix, s := mutClusterFixture(t, n, base, 64)
	fleets := make([]*cluster.Cluster, 3)
	stores := make([]*cluster.FleetStore, len(fleets))
	fss := make([]*durable.MemFS, len(fleets))
	copt := func(r int) cluster.Options {
		return cluster.Options{Shards: 3, Replicas: r + 1, Assignment: cluster.AssignKMeans, Engine: engineOpts()}
	}
	for r := range fleets {
		cl, err := cluster.New(ix, s.Queries, copt(r))
		if err != nil {
			t.Fatal(err)
		}
		fss[r] = durable.NewMemFS(durable.FaultPlan{})
		if stores[r], err = cluster.CreateFleetStore(cl, durable.Options{Dir: "fleet", FS: fss[r]}); err != nil {
			t.Fatal(err)
		}
		fleets[r] = cl
	}
	var prevStage *core.Result
	check := func(stage string, sameAsPrev bool) {
		t.Helper()
		var one *core.Result
		for r, cl := range fleets {
			res, err := cl.SearchBatch(s.Queries)
			if err != nil {
				t.Fatal(err)
			}
			if r == 0 {
				one = res
				continue
			}
			sameAnswers(t, stage, res, one)
			// What is scanned is the probes' doing and must match; what a
			// staged scan builds and gathers of it follows each DPU's own
			// heap too, which holds other queries' tasks on another replica.
			if res.Metrics.PointsScanned != one.Metrics.PointsScanned || res.Metrics.Queries != s.Queries.N {
				t.Fatalf("%s: R=%d scanned %d points for %d queries, R=1 %d", stage, r+1,
					res.Metrics.PointsScanned, res.Metrics.Queries, one.Metrics.PointsScanned)
			}
			if res.Metrics.SimSeconds > one.Metrics.SimSeconds {
				t.Fatalf("%s: R=%d took %.6fs, R=1 %.6fs", stage, r+1, res.Metrics.SimSeconds, one.Metrics.SimSeconds)
			}
			if res.Metrics.Launches <= one.Metrics.Launches {
				t.Fatalf("%s: R=%d ran %d launches, R=1 %d: the standbys did not scan", stage, r+1, res.Metrics.Launches, one.Metrics.Launches)
			}
		}
		if sameAsPrev {
			sameAnswers(t, stage+" vs the stage before", one, prevStage)
		}
		prevStage = one
	}
	check("pristine", false)

	ids := make([]int32, n-base)
	vecs := dataset.U8Set{N: len(ids), D: s.Base.D, Data: s.Base.Data[base*s.Base.D:]}
	for i := range ids {
		ids[i] = int32(base + i)
	}
	for _, cl := range fleets {
		if err := cl.Insert(vecs, ids); err != nil {
			t.Fatal(err)
		}
		if err := cl.Delete(ids[:len(ids)/2]); err != nil {
			t.Fatal(err)
		}
	}
	check("mutated", false)
	for r := range fleets {
		if err := stores[r].Close(); err != nil {
			t.Fatal(err)
		}
		var err error
		if fleets[r], _, err = cluster.RecoverCluster(durable.Options{Dir: "fleet", FS: fss[r]}, s.Queries, copt(r)); err != nil {
			t.Fatal(err)
		}
	}
	check("recovered", true)
	for _, cl := range fleets {
		if err := cl.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	check("compacted", true)
}

// TestFleetBoundTieKeepsSmallerID is core's TestBoundTieKeepsSmallerID across
// shards: the point that holds a query's merged bound after wave 1 lives on
// one shard, and wave 2 finds a point at exactly that distance, under a
// smaller global id, on another. The forwarded bound must let it through and
// the front-door merge must give it the k-th place. Two clusters get the same
// centroid, so a code has the same distance in both; the later one holds a
// single point, a copy of the code that is k-th best in the earlier one.
func TestFleetBoundTieKeepsSmallerID(t *testing.T) {
	base, s := testFixture(t, 6000, 64)
	o := engineOpts()
	o.NProbe = 2
	const fill = 16 * 10 // waveFill x K

	var q []uint8
	a, b := -1, -1
	for qi := 0; qi < s.Queries.N && a < 0; qi++ {
		q = s.Queries.Vec(qi)
		if c := int(base.LocateInt(q, 1)[0].ID); base.ListLen(c) >= fill && c+1 < base.NList {
			a, b = c, c+1
		}
	}
	if a < 0 {
		t.Fatal("fixture has no query whose nearest cluster fills a first wave")
	}
	kth := base.SearchInt(q, 1, o.K)[o.K-1] // the bound after wave 1, and who holds it
	pos := slices.Index(base.Lists[a], kth.ID)

	// Hash placement puts an id on shard splitmix(id) mod 2: try holders until
	// one lands across from the twin.
	twin := int32(s.Base.N + 1)
	for holder := twin + 1; holder < twin+32; holder++ {
		clone := *base
		ix := &clone
		ix.Lists, ix.Codes = slices.Clone(base.Lists), slices.Clone(base.Codes)
		ix.CentroidsU8, ix.Centroids = slices.Clone(base.CentroidsU8), slices.Clone(base.Centroids)
		copy(ix.CentroidU8(b), ix.CentroidU8(a))
		copy(ix.Centroid(b), ix.Centroid(a))
		ix.Lists[a] = slices.Clone(ix.Lists[a])
		ix.Lists[a][pos] = holder
		ix.Lists[b] = []int32{twin}
		ix.Codes[b] = slices.Clone(ix.Codes[a][pos*ix.M : (pos+1)*ix.M])

		cl, err := cluster.New(ix, dataset.U8Set{}, cluster.Options{Shards: 2, Assignment: cluster.AssignHash, Engine: o})
		if err != nil {
			t.Fatal(err)
		}
		if shardHolds(cl, 0, holder) == shardHolds(cl, 0, twin) {
			continue
		}
		want := ix.SearchInt(q, o.NProbe, o.K)
		if last := want[o.K-1]; last.ID != twin || last.Dist != kth.Dist {
			t.Fatalf("construction failed: k-th is %+v, want id %d at distance %d", last, twin, kth.Dist)
		}
		// The query rides in a batch big enough to be split into waves.
		batch := dataset.U8Set{N: s.Queries.N + 1, D: ix.Dim, Data: append(slices.Clone(q), s.Queries.Data...)}
		res, err := cl.SearchBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics.PointsPruned == 0 {
			t.Fatal("batch was not split into waves: nothing pruned")
		}
		if !slices.Equal(res.Items[0], want) {
			t.Fatalf("tie lost:\n got %v\nwant %v", res.Items[0], want)
		}
		if slices.Contains(res.IDs[0], holder) || res.IDs[0][o.K-1] != twin {
			t.Fatalf("the smaller id must take the k-th place: %v", res.IDs[0])
		}
		return
	}
	t.Fatal("no holder id landed on the other shard")
}

func shardHolds(cl *cluster.Cluster, shard int, id int32) bool {
	_, ok := cl.Shards()[shard].IVF().Index().WhereIs(id)
	return ok
}

// TestLoneQueryPaysNoBarrier: a batch with under two tasks per DPU fleet-wide
// is not split, so a lone query costs one launch on each shard it contacts —
// on one replica of it — and the fleet's time is that of the slowest launch.
// The front door's work is on the host's books: its CL, and its gather.
func TestLoneQueryPaysNoBarrier(t *testing.T) {
	ix, s := testFixture(t, 6000, 64)
	cl, err := cluster.New(ix, s.Queries, cluster.Options{Shards: 3, Replicas: 2, Assignment: cluster.AssignKMeans, Engine: engineOpts()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.SearchBatch(dataset.U8Set{N: 1, D: s.Queries.D, Data: s.Queries.Vec(0)})
	if err != nil {
		t.Fatal(err)
	}
	m, rt := &res.Metrics, cl.Stats().Route
	if int64(m.Launches) != rt.FanoutSum || rt.LeadFanoutSum != rt.FanoutSum {
		t.Fatalf("%d launches for a lone query contacting %d shards (%d in its first wave)", m.Launches, rt.FanoutSum, rt.LeadFanoutSum)
	}
	if want := math.Max(m.PIMSeconds, m.XferSeconds); m.SimSeconds != want {
		t.Fatalf("lone query took %.3gs, its slowest launch %.3gs", m.SimSeconds, want)
	}
	if m.HostSeconds <= rt.FrontCLSimSeconds {
		t.Fatalf("HostSeconds %.3g does not exceed the front-door CL's %.3g: the gather is not charged", m.HostSeconds, rt.FrontCLSimSeconds)
	}
}

// TestFleetRollsWaves: the fleet runs the engine's step loop, so a call of B
// scheduling batches is B + 1 rounds — every round but the first carrying the
// second wave of the batch before beside the first wave of its own — and the
// answers stay the single engine's: on a pristine fleet, under live mutations
// and recovered from its stores, for one replica a shard and for two. A
// one-shard fleet shows the rounds in its launch count (every replica launches
// in every round); the second waves ran under bounds, or the fleet would not
// prune what the engine prunes.
func TestFleetRollsWaves(t *testing.T) {
	const n, base = 6000, 5600
	ix, s := mutClusterFixture(t, n, base, 64)
	opts := engineOpts()
	opts.BatchSize, opts.Th3 = 16, 0 // four batches, no drain rounds
	// Lists cut at 73 points, as the finest shard's were when this test was
	// written: a batch's 128 probes are then some 220 tasks, the two a DPU
	// under which the six-lane fleet would not cut a batch into waves at all.
	opts.SplitThreshold = 73
	single, err := core.New(ix, s.Queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	type deployed struct {
		cl   *cluster.Cluster
		fs   *durable.MemFS
		st   *cluster.FleetStore
		copt cluster.Options
	}
	var fleets []*deployed
	for _, shards := range []int{1, 3} {
		for _, replicas := range []int{1, 2} {
			d := &deployed{fs: durable.NewMemFS(durable.FaultPlan{}), copt: cluster.Options{
				Shards: shards, Replicas: replicas, Assignment: cluster.AssignKMeans, Engine: opts,
			}}
			if d.cl, err = cluster.New(ix, s.Queries, d.copt); err != nil {
				t.Fatal(err)
			}
			if d.st, err = cluster.CreateFleetStore(d.cl, durable.Options{Dir: "fleet", FS: d.fs}); err != nil {
				t.Fatal(err)
			}
			fleets = append(fleets, d)
		}
	}
	check := func(stage string) {
		t.Helper()
		want, err := single.SearchBatch(s.Queries)
		if err != nil {
			t.Fatal(err)
		}
		w := &want.Metrics
		if w.Batches != 4 || w.Launches != w.Batches+1 {
			t.Fatalf("%s: the engine ran %d launches over %d batches", stage, w.Launches, w.Batches)
		}
		for _, d := range fleets {
			got, err := d.cl.SearchBatch(s.Queries)
			if err != nil {
				t.Fatal(err)
			}
			S, R := d.copt.Shards, d.copt.Replicas
			sameAnswers(t, fmt.Sprintf("%s, S=%d R=%d vs single engine", stage, S, R), got, want)
			g := &got.Metrics
			rounds := g.Batches + 1
			if g.Batches != w.Batches || g.Launches > S*R*rounds || (S == 1 && g.Launches != R*rounds) {
				t.Fatalf("%s, S=%d R=%d: %d launches over %d batches, want %d rounds on every replica", stage, S, R, g.Launches, g.Batches, rounds)
			}
			if g.PointsScanned != w.PointsScanned || float64(g.PointsPruned) < 0.9*float64(w.PointsPruned) {
				t.Fatalf("%s, S=%d R=%d: scanned %d points and pruned %d, the engine %d and %d", stage, S, R,
					g.PointsScanned, g.PointsPruned, w.PointsScanned, w.PointsPruned)
			}
		}
	}
	check("pristine")

	ids := make([]int32, n-base)
	vecs := dataset.U8Set{N: len(ids), D: s.Base.D, Data: s.Base.Data[base*s.Base.D:]}
	for i := range ids {
		ids[i] = int32(base + i)
	}
	if err := single.Insert(vecs, ids); err != nil {
		t.Fatal(err)
	}
	if err := single.Delete(ids[:len(ids)/2]); err != nil {
		t.Fatal(err)
	}
	for _, d := range fleets {
		if err := d.cl.Insert(vecs, ids); err != nil {
			t.Fatal(err)
		}
		if err := d.cl.Delete(ids[:len(ids)/2]); err != nil {
			t.Fatal(err)
		}
	}
	check("mutated")
	for _, d := range fleets {
		if err := d.st.Close(); err != nil {
			t.Fatal(err)
		}
		if d.cl, _, err = cluster.RecoverCluster(durable.Options{Dir: "fleet", FS: d.fs}, s.Queries, d.copt); err != nil {
			t.Fatal(err)
		}
	}
	check("recovered")
}

// TestFleetDrainsEveryReplica: with scheduling batches near two tasks a DPU,
// split and unsplit batches alternate, so a replica that postponed tasks of a
// spread second wave is handed nothing by the unsplit batches that follow —
// through the end of the call, for some query counts. At an overheat threshold
// that postpones, the fleet still scans every point the single engine scans
// and returns its answers.
func TestFleetDrainsEveryReplica(t *testing.T) {
	ix, s := testFixture(t, 6000, 64)
	opts := engineOpts()
	opts.BatchSize, opts.Th3 = 7, 1.005
	opts.SplitThreshold = 102 // some 100 slices of the 64 lists, which is what puts a batch near two tasks a DPU
	single, err := core.New(ix, s.Queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(ix, s.Queries, cluster.Options{Shards: 2, Replicas: 2, Assignment: cluster.AssignKMeans, Engine: opts})
	if err != nil {
		t.Fatal(err)
	}
	for _, nq := range []int{36, 43, 50, 57, 64} {
		queries := dataset.U8Set{N: nq, D: s.Queries.D, Data: s.Queries.Data[:nq*s.Queries.D]}
		want, err := single.SearchBatch(queries)
		if err != nil {
			t.Fatal(err)
		}
		before := cl.Stats().Route
		got, err := cl.SearchBatch(queries)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("%d queries in batches of %d, S=2 R=2 vs single engine", nq, opts.BatchSize)
		sameAnswers(t, what, got, want)
		g, rt := &got.Metrics, cl.Stats().Route
		lead, fanout := rt.LeadFanoutSum-before.LeadFanoutSum, rt.FanoutSum-before.FanoutSum
		if g.Postponed == 0 || lead == fanout {
			t.Fatalf("%s: %d tasks postponed, %d of %d shard contacts unbounded: no batch was split and spread", what, g.Postponed, lead, fanout)
		}
		if g.PointsScanned != want.Metrics.PointsScanned {
			t.Fatalf("%s: scanned %d points, the engine %d: postponed tasks were dropped", what, g.PointsScanned, want.Metrics.PointsScanned)
		}
	}
}

// TestMeasuredSplitLevelsLanes: the AssignKMeans split levels what a list's
// scans cost on the simulator (core.ListCycles over the profile), not list
// size x (1 + profile probes). Searched with that profile, the lanes' simulated
// cycles — every group scan on a shard's engines — spread no wider under the
// measured weight than under the old one, stay within the split's cap (a
// sixteenth over the mean, and the slack of one list), and the answers are the
// same points either way; a weight list of the wrong length is refused.
func TestMeasuredSplitLevelsLanes(t *testing.T) {
	ix, s := testFixture(t, 6000, 64)
	copt := cluster.Options{Shards: 3, Replicas: 2, Assignment: cluster.AssignKMeans, Engine: engineOpts()}
	old := make([]float64, ix.NList)
	for c := range old {
		old[c] = float64(ix.ListLen(c))
	}
	for qi := 0; qi < s.Queries.N; qi++ {
		for _, p := range ix.LocateInt(s.Queries.Vec(qi), copt.Engine.NProbe) {
			old[p.ID] += float64(ix.ListLen(int(p.ID)))
		}
	}
	spread := func(weight []float64) (*core.Result, float64) {
		cl, err := cluster.NewWeighted(ix, s.Queries, copt, weight)
		if err != nil {
			t.Fatal(err)
		}
		scans := make([][]core.ScanSample, len(cl.Shards())*copt.Replicas)
		for si, sh := range cl.Shards() {
			for r, e := range sh.Engines {
				e.RecordScans(&scans[si*copt.Replicas+r])
			}
		}
		res, err := cl.SearchBatch(s.Queries)
		if err != nil {
			t.Fatal(err)
		}
		var worst, sum float64
		for si := range cl.Shards() {
			var lane float64
			for _, log := range scans[si*copt.Replicas : (si+1)*copt.Replicas] {
				for _, sm := range log {
					lane += sm.Cycles
				}
			}
			worst, sum = max(worst, lane), sum+lane
		}
		return res, worst * float64(len(cl.Shards())) / sum
	}
	want, oldSpread := spread(old)
	got, newSpread := spread(nil)
	sameAnswers(t, "measured split vs size x (1 + probes) split", got, want)
	t.Logf("lanes' cycles max/mean: %.3f under size x (1 + probes), %.3f under measured cycles", oldSpread, newSpread)
	if newSpread > oldSpread || newSpread > 1.10 {
		t.Fatalf("lanes' cycles max/mean %.3f under the measured weight, %.3f under size x (1 + probes)", newSpread, oldSpread)
	}
	if _, err := cluster.NewWeighted(ix, s.Queries, copt, old[:1]); err == nil {
		t.Fatal("one weight for 64 clusters was accepted")
	}
}

// TestSplitFitsTheShards: a measured weight is zero on every list the profile
// never probed, so on a profile of a few hot queries the heat cap alone lets one
// shard collect most of the corpus; the split also keeps every shard's points
// within what its engine's MRAM holds (core.PointCapacity), and the measuring
// engine has the fleet's MRAM, not one shard's. With banks that hold a quarter
// over a shard's even share — a single engine could not hold half the corpus —
// the fleet deploys, every shard within its capacity, and answers what an
// engine with room for everything answers.
func TestSplitFitsTheShards(t *testing.T) {
	ix, s := testFixture(t, 6000, 64)
	opts := engineOpts()
	opts.NumDPUs, opts.NProbe, opts.CopyFootprint = 4, 4, 0 // no copies: a bank holds list data only
	roomy, err := core.New(ix, s.Queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	for opts.MRAMBytes = 1 << 10; core.PointCapacity(ix, opts) < 6000/shards*5/4; opts.MRAMBytes += 1 << 10 {
	}
	if _, err := core.New(ix, s.Queries, opts); err == nil {
		t.Fatal("fixture: the whole index fits one shard's engine")
	}
	hot := dataset.U8Set{N: 6, D: s.Queries.D, Data: s.Queries.Data[:6*s.Queries.D]}
	cl, err := cluster.New(ix, hot, cluster.Options{Shards: shards, Assignment: cluster.AssignKMeans, Engine: opts})
	if err != nil {
		t.Fatal(err)
	}
	for si, sh := range cl.Shards() {
		if sh.Points > core.PointCapacity(ix, opts) {
			t.Fatalf("shard %d holds %d points, its engine has MRAM for %d", si, sh.Points, core.PointCapacity(ix, opts))
		}
	}
	want, err := roomy.SearchBatch(s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.SearchBatch(s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, "fleet of small banks vs one roomy engine", got, want)
}

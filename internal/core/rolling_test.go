package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"drimann/internal/dataset"
	"drimann/internal/sched"
	"drimann/internal/testutil"
)

// TestRollingWavesMatchOneBatch: cutting a call into scheduling batches — and
// launching each batch's second wave beside the next batch's first — changes
// no answer and no scanned point. On the engine and the per-op reference,
// pipelined and serial (SearchBatchProbed handed the call's probes), over
// UseSQT x UseWRAM, a mutated index and an overheat threshold low enough
// that bounded tasks are postponed and drained, a call of four batches returns
// what the same queries return as one batch and what one heap over whole
// distances returns; it takes one launch more than it has batches (plus
// drains); and a call of at most one batch is two launches, or one when it is
// too small to split.
func TestRollingWavesMatchOneBatch(t *testing.T) {
	f := getFixture(t)
	type variant struct {
		name string
		set  func(*Options)
	}
	variants := []variant{
		{"default", func(*Options) {}},
		{"mul", func(o *Options) { o.UseSQT = false }},
		{"nowram", func(o *Options) { o.UseWRAM = false }},
		{"mul_nowram", func(o *Options) { o.UseSQT, o.UseWRAM = false, false }},
		{"th3=1.005", func(o *Options) { o.Th3 = 1.005 }},
	}
	run := func(name string, o Options, serial bool, deploy func(o Options) (*Engine, dataset.U8Set)) {
		t.Run(name, func(t *testing.T) {
			search := func(e *Engine, q dataset.U8Set) *Result {
				t.Helper()
				var res *Result
				var err error
				if serial {
					res, err = e.SearchBatchProbed(q, e.Locator().Probes(q), true)
				} else {
					res, err = e.SearchBatch(q)
				}
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			o.BatchSize = 16
			e, queries := deploy(o)
			rolled := search(e, queries)
			requireOneHeap(t, e, queries, rolled, name)
			o.BatchSize = queries.N
			whole, _ := deploy(o)
			one := search(whole, queries)
			requireSameResults(t, rolled, one, "rolled vs one batch")
			m, w := &rolled.Metrics, &one.Metrics
			if m.PointsScanned != w.PointsScanned {
				t.Fatalf("rolled scanned %d points, one batch %d", m.PointsScanned, w.PointsScanned)
			}
			if m.Batches < 3 || w.Batches != 1 || m.PointsPruned == 0 {
				t.Fatalf("%d and %d batches, %d points pruned: the test does not roll", m.Batches, w.Batches, m.PointsPruned)
			}
			// Only bounded tasks are ever postponed, so without drains every
			// step but the first carried a second wave.
			if o.Th3 == 1.005 {
				if m.Postponed == 0 || m.Launches <= m.Batches+1 {
					t.Fatalf("%d tasks postponed, %d launches over %d batches: nothing drained", m.Postponed, m.Launches, m.Batches)
				}
			} else if m.Postponed != 0 || m.Launches != m.Batches+1 || w.Launches != 2 {
				t.Fatalf("%d launches over %d batches (%d postponed), %d for one batch", m.Launches, m.Batches, m.Postponed, w.Launches)
			}

			// Gather tables live for one launch block: the engine keeps at
			// most a block's worth, not the call's (none on the fallback,
			// which the reference runs on).
			if tables, perBlock := gatherTables(e); tables > perBlock || (tables == 0) != (e.lut == nil) {
				t.Fatalf("%d gather tables after %d queries in batches of %d, %d a block", tables, queries.N, o.BatchSize, perBlock)
			}

			// At most one batch: lead, then rest; a lone query's probes do not
			// fill the DPUs twice over and go out together.
			for nq, launches := range map[int]int{16: 2, 1: 1} {
				res := search(e, dataset.U8Set{N: nq, D: queries.D, Data: queries.Data[:nq*queries.D]})
				if rm := &res.Metrics; rm.Batches != 1 || rm.Launches < launches || (rm.Launches > launches) != (rm.Postponed > 0) {
					t.Fatalf("%d queries: %d launches (%d tasks postponed), want %d plus drains", nq, rm.Launches, rm.Postponed, launches)
				}
				requireSameResults(t, res, &Result{IDs: one.IDs[:nq], Items: one.Items[:nq]}, fmt.Sprintf("first %d queries alone", nq))
			}
		})
	}
	for _, v := range variants {
		for _, perOp := range []bool{false, true} {
			for _, serial := range []bool{false, true} {
				o := testOptions()
				if v.name != "th3=1.005" {
					o.Th3 = 0
				}
				v.set(&o)
				run(fmt.Sprintf("%s_perOp=%v_serial=%v", v.name, perOp, serial), o, serial, func(o Options) (*Engine, dataset.U8Set) {
					return newEngine(t, f.ix, dataset.U8Set{}, o, perOp), f.s.Queries
				})
			}
		}
	}
	for _, th3 := range []float64{0, 1.005} {
		o := testOptions()
		o.Th3 = th3
		run(fmt.Sprintf("mutated_th3=%v", th3), o, false, func(o Options) (*Engine, dataset.U8Set) { return mutatedEngine(t, o, false) })
	}

	// No bound ever forms with K at the corpus size: the arena still holds
	// one block's tables.
	o := testOptions()
	o.BatchSize, o.K = 8, f.s.Base.N
	e, err := New(f.ix, dataset.U8Set{}, o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.SearchBatch(f.s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if tables, perBlock := gatherTables(e); res.Metrics.PointsPruned != 0 || res.Metrics.Batches != 8 || tables > perBlock {
		t.Fatalf("unbounded call: %d points pruned, %d batches, %d gather tables, %d a block", res.Metrics.PointsPruned, res.Metrics.Batches, tables, perBlock)
	}
}

// gatherTables returns how many gather tables e's arena holds and how many one
// launch block may.
func gatherTables(e *Engine) (tables, perBlock int) {
	_, perBlock = e.blockCap()
	return len(e.groups.qe) / (e.ix.M * e.ix.CB), perBlock
}

// TestGatherArenaHoldsOneBlock: at the benchmark's table shapes, M16 and M32
// at CB256, a launch block holds the gather tables of qeBlockBudget's worth of
// queries, 32 and 16, so a call of several batches of 64 queries cuts every
// launch into blocks by query, and the arena ends the call one block's tables
// long. The cut changes nothing: answers and every metric equal the per-op
// reference's, whose fallback arenas are cut by groups alone.
func TestGatherArenaHoldsOneBlock(t *testing.T) {
	for _, m := range []int{16, 32} {
		t.Run(fmt.Sprintf("M%d", m), func(t *testing.T) {
			ix, s := testutil.Fixture(t, testutil.FixtureSpec{
				N: 4000, D: 128, Queries: 200, NumClusters: 24, Seed: 5, Noise: 10,
				NList: 32, M: m, CB: 256, BuildSeed: 3,
			})
			o := testOptions()
			o.BatchSize = 64
			e := newEngine(t, ix, dataset.U8Set{}, o, false)
			res, err := e.SearchBatch(s.Queries)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := newEngine(t, ix, dataset.U8Set{}, o, true).SearchBatch(s.Queries)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResults(t, res, ref, "blocks vs reference")
			if res.Metrics != ref.Metrics {
				t.Fatalf("metrics diverge:\nblocks:    %+v\nreference: %+v", res.Metrics, ref.Metrics)
			}
			tables, perBlock := gatherTables(e)
			if want := 512 << 10 / (m * 256 * 4); perBlock != want || res.Metrics.Batches < 3 {
				t.Fatalf("%d tables a block over %d batches, want %d over several", perBlock, res.Metrics.Batches, want)
			}
			if tables != perBlock {
				t.Fatalf("%d gather tables after the call, one block holds %d", tables, perBlock)
			}
		})
	}
}

// TestMixedLaunchPricesEachTask: a step holds second-wave tasks, whose
// queries carry bounds, beside first-wave tasks, whose queries do not. The
// scheduler must see each at its own price — a DPU's heat is its bounded
// tasks' share of their no-prune price plus the whole no-prune price of the
// others — and may postpone only the bounded ones.
func TestMixedLaunchPricesEachTask(t *testing.T) {
	f := getFixture(t)
	o := testOptions()
	o.Th3 = 1.001 // greedy + rebalance level this fixture to within half a percent
	e, err := New(f.ix, dataset.U8Set{}, o)
	if err != nil {
		t.Fatal(err)
	}
	nq := f.s.Queries.N
	bounds := make([]uint32, nq)
	bounded := func(q int32) bool { return q < int32(nq/2) } // the batch before
	var reqs []sched.Request
	for qi := range bounds {
		if bounds[qi] = math.MaxUint32; bounded(int32(qi)) {
			bounds[qi] = 1 << 20
		}
		for _, p := range f.ix.LocateInt(f.s.Queries.Vec(qi), o.NProbe) {
			reqs = append(reqs, sched.Request{Query: int32(qi), Cluster: p.ID, Dist: p.Dist})
		}
	}
	ln := e.newLane(bounds)
	sched.GreedyInto(&ln.sb, reqs, nil, e.pl, ln.scfg)

	var mixed, flat float64
	for d, tasks := range ln.sb.PerDPU {
		var want float64
		for _, task := range tasks {
			if _, deferrable := ln.scfg.Cost(task); deferrable != bounded(task.Query) {
				t.Fatalf("task %+v deferrable=%v", task, deferrable)
			}
			want += e.lc.heat[task.Slice] * e.Share(task.Dist, bounds[task.Query])
			flat += e.lc.heat[task.Slice]
		}
		if math.Abs(ln.sb.Heat[d]-want) > 1e-9*want {
			t.Fatalf("DPU %d heat %v, its tasks' own prices sum to %v", d, ln.sb.Heat[d], want)
		}
		mixed += want
	}
	if mixed >= 0.9*flat {
		t.Fatalf("bounded tasks are not priced below unbounded ones: %v against %v all unbounded", mixed, flat)
	}
	if len(ln.sb.Postponed) == 0 {
		t.Fatal("nothing postponed: the exemption is not exercised")
	}
	for _, task := range ln.sb.Postponed {
		if !bounded(task.Query) {
			t.Fatalf("task %+v of a query with no bound was postponed", task)
		}
	}
}

// TestSecondWaveWaitsForItsBound watches the steps of a call on a one-shard
// fleet of two replicas (the engine and a replica of it, behind a front door,
// so the front-door merge runs): in the step that brings a batch in,
// only its queries' leading probes launch, and without a bound; every other
// task of the step — the batch before's remaining probes, postponed tasks —
// launches under the finite bound the last barrier merged. No probe is
// scanned twice and the answers are the engine's own.
func TestSecondWaveWaitsForItsBound(t *testing.T) {
	f := getFixture(t)
	o := testOptions()
	o.BatchSize, o.Th3 = 16, 1.005
	e, err := New(f.ix, dataset.U8Set{}, o)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplica(e)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.SearchBatch(f.s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	ps := e.loc.Probes(f.s.Queries)
	st := NewSteps(f.s.Queries, [][]*Engine{{e, rep}}, e.loc)
	type scan struct{ q, c int32 }
	scanned := map[scan]int{} // tasks launched per (query, cluster)
	bounded, postponed := 0, 0
	for lo, step := 0, 0; lo < f.s.Queries.N; lo, step = lo+o.BatchSize, step+1 {
		for qi := lo; qi < lo+o.BatchSize; qi++ {
			st.Cut(qi, ps.Of(qi), ps.DistsOf(qi), func(int32) []int32 { return []int32{0} })
		}
		before := append([]uint32(nil), st.bounds...)
		if !st.Step(0) {
			t.Fatalf("batch %d was not split", step)
		}
		if len(st.active) != 2 {
			t.Fatalf("step %d launched on %d of 2 replicas", step, len(st.active))
		}
		for _, ln := range st.active {
			postponed += len(ln.sb.Postponed)
			for _, tasks := range ln.sb.PerDPU {
				for _, task := range tasks {
					scanned[scan{task.Query, task.Cluster}]++
					rank := slices.Index(ps.Of(int(task.Query)), task.Cluster)
					first := rank < leadProbes(ps.Of(int(task.Query)), o.K, e.LiveLen)
					own := int(task.Query)/o.BatchSize == step
					if unbounded := before[task.Query] == math.MaxUint32; unbounded != (own && first) || own != first {
						t.Fatalf("step %d launched task %+v (probe rank %d, first wave %v) with bound %d", step, task, rank, first, before[task.Query])
					}
					if !own {
						bounded++
					}
				}
			}
		}
	}
	got := st.Finish(0)
	requireSameResults(t, got, want, "watched steps vs SearchBatch")
	if bounded == 0 || postponed == 0 {
		t.Fatalf("%d second-wave tasks watched, %d postponed: the test does not bite", bounded, postponed)
	}
	for sc, n := range scanned { // a task still postponed, or of the last second wave, is Finish's
		if n > len(e.pl.ByCluster[sc.c]) {
			t.Fatalf("query %d cluster %d: %d tasks launched, the placement has %d slices", sc.q, sc.c, n, len(e.pl.ByCluster[sc.c]))
		}
	}
}

// TestPostponedTasksOutliveUnsplitSteps: a replica other than 0 that postponed
// tasks of a spread second wave launches them in the next step even when that
// step brings it nothing — the batches after are too small to split and run on
// replica 0 — and Finish drains what any replica still holds. One split batch,
// then two lone queries, on a one-shard fleet of two replicas.
func TestPostponedTasksOutliveUnsplitSteps(t *testing.T) {
	f := getFixture(t)
	o := testOptions()
	o.BatchSize, o.Th3 = 16, 1.005
	e, err := New(f.ix, dataset.U8Set{}, o)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplica(e)
	if err != nil {
		t.Fatal(err)
	}
	queries := dataset.U8Set{N: 18, D: f.s.Queries.D, Data: f.s.Queries.Data[:18*f.s.Queries.D]}
	want, err := e.SearchBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	ps := e.loc.Probes(queries)
	st := NewSteps(queries, [][]*Engine{{e, rep}}, e.loc)
	for i, b := range [][2]int{{0, 16}, {16, 17}, {17, 18}} {
		for qi := b[0]; qi < b[1]; qi++ {
			st.Cut(qi, ps.Of(qi), ps.DistsOf(qi), func(int32) []int32 { return []int32{0} })
		}
		if split := st.Step(0); split != (i == 0) {
			t.Fatalf("batch %d: split = %v", i, split)
		}
		if held := len(st.shards[0][1].carried); i == 1 && held == 0 {
			t.Fatal("replica 1 postponed nothing of the spread second wave: the test does not bite")
		} else if i == 2 && held != 0 && !st.pending {
			t.Fatalf("replica 1 holds %d postponed tasks the call does not know of", held)
		}
	}
	got := st.Finish(0)
	requireSameResults(t, got, want, "fleet of two replicas vs the engine")
	if g, w := got.Metrics.PointsScanned, want.Metrics.PointsScanned; g != w {
		t.Fatalf("scanned %d points, the engine %d: postponed tasks were dropped", g, w)
	}
}

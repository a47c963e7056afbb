package graph

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"drimann/internal/dataset"
	"drimann/internal/engine"
	"drimann/internal/testutil"
	"drimann/internal/topk"
	"drimann/internal/upmem"
	"drimann/internal/vecmath"
)

// refBeamSearch is the traversal from entry with full distances: every
// evaluation sums every dimension and probes the pool. It returns the final
// pool, every evaluation in visiting order, and the hops.
func refBeamSearch(e *Engine, sc *searchScratch, q []uint8, entry int32, beam int) ([]topk.Item[uint32], []topk.Item[uint32], int) {
	var evaluated []topk.Item[uint32]
	hops := 0
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.visited)
		sc.epoch = 1
	}
	sc.pool = sc.pool[:0]
	sc.expanded = sc.expanded[:0]
	insert := func(it topk.Item[uint32]) {
		lo, hi := 0, len(sc.pool)
		for lo < hi {
			mid := (lo + hi) / 2
			if topk.Less(sc.pool[mid], it) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo >= beam {
			return
		}
		sc.pool = slices.Insert(sc.pool, lo, it)
		sc.expanded = slices.Insert(sc.expanded, lo, false)
		if len(sc.pool) > beam {
			sc.pool = sc.pool[:beam]
			sc.expanded = sc.expanded[:beam]
		}
	}
	eval := func(id int32) {
		sc.visited[id] = sc.epoch
		it := topk.Item[uint32]{ID: id, Dist: vecmath.L2SquaredU8(q, e.base.Vec(int(id)))}
		evaluated = append(evaluated, it)
		insert(it)
	}
	eval(entry)
	for {
		next := slices.Index(sc.expanded, false)
		if next < 0 {
			break
		}
		sc.expanded[next] = true
		hops++
		for _, nb := range e.nbrs[sc.pool[next].ID] {
			if sc.visited[nb] != sc.epoch {
				eval(nb)
			}
		}
	}
	return slices.Clone(sc.pool), evaluated, hops
}

// refCharge is the DPU charge of a full-distance traversal: every
// evaluation pays every dimension and a pool probe.
func refCharge(e *Engine, t *upmem.Tally, hops, evals int) {
	for h := 0; h < hops; h++ {
		t.DMA(upmem.PhaseRC, uint64((1+e.opts.Degree)*4))
	}
	scanned := uint64(hops * e.opts.Degree)
	t.Charge(upmem.PhaseRC, upmem.OpLoad, scanned)
	t.Charge(upmem.PhaseRC, upmem.OpCmp, scanned)
	for ev := 0; ev < evals; ev++ {
		t.DMA(upmem.PhaseDC, uint64(e.base.D))
	}
	t.ChargeCycles(upmem.PhaseDC, uint64(evals)*uint64(e.base.D)*(2+sqtAccessCycles))
	t.ChargeCycles(upmem.PhaseTS, uint64(evals)*(uint64(engine.Log2Ceil(e.opts.SearchBeam))+2))
}

// refTraverse is beamSearch one distance at a time, the oracle for its
// eight-row passes: each unvisited neighbour, in list order, is
// L2SquaredU8Bounded at the bound that stands at its turn (keep's worst in
// the build, the pool's in a query, none while either is short).
func refTraverse(e *Engine, sc *searchScratch, q []uint8, entry int32, beam int, keep *topk.Heap[uint32]) beamStats {
	var st beamStats
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.visited)
		sc.epoch = 1
	}
	sc.pool = sc.pool[:0]
	sc.expanded = sc.expanded[:0]
	insert := func(it topk.Item[uint32]) {
		lo, hi := 0, len(sc.pool)
		for lo < hi {
			mid := (lo + hi) / 2
			if topk.Less(sc.pool[mid], it) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo >= beam {
			return
		}
		sc.pool = slices.Insert(sc.pool, lo, it)
		sc.expanded = slices.Insert(sc.expanded, lo, false)
		if len(sc.pool) > beam {
			sc.pool = sc.pool[:beam]
			sc.expanded = sc.expanded[:beam]
		}
	}
	eval := func(id int32) {
		sc.visited[id] = sc.epoch
		st.evals++
		it := topk.Item[uint32]{ID: id}
		bound, bounded := uint32(0), len(sc.pool) == beam
		if keep != nil {
			bound, bounded = keep.Threshold()
		} else if bounded {
			bound = sc.pool[beam-1].Dist
		}
		if !bounded {
			it.Dist = vecmath.L2SquaredU8(q, e.base.Vec(int(id)))
			st.dims += len(q)
		} else {
			var dims int
			it.Dist, dims = vecmath.L2SquaredU8Bounded(q, e.base.Vec(int(id)), bound)
			st.dims += dims
			st.checks += (dims + vecmath.AbandonStride - 1) / vecmath.AbandonStride
			if it.Dist > bound {
				return
			}
		}
		if keep != nil {
			keep.Push(id, it.Dist)
		}
		st.probes++
		insert(it)
	}
	eval(entry)
	for {
		next := slices.Index(sc.expanded, false)
		if next < 0 {
			break
		}
		sc.expanded[next] = true
		st.hops++
		for _, nb := range e.nbrs[sc.pool[next].ID] {
			if sc.visited[nb] != sc.epoch {
				eval(nb)
			}
		}
	}
	return st
}

// refPrune is robustPrune one distance at a time: after each pick, every
// live candidate after it is L2SquaredU8Bounded under its own alpha bound.
func refPrune(e *Engine, p int32, cands []topk.Item[uint32], out []int32) []int32 {
	const dead = math.MinInt64
	bound := make([]int64, len(cands))
	for i, c := range cands {
		bound[i] = dead
		if c.ID != p {
			bound[i] = pruneBound(alpha, c.Dist)
		}
	}
	for pick := 0; len(out) < e.opts.Degree; pick++ {
		for pick < len(cands) && bound[pick] == dead {
			pick++
		}
		if pick == len(cands) {
			break
		}
		out = append(out, cands[pick].ID)
		vk := e.base.Vec(int(cands[pick].ID))
		for i := pick + 1; i < len(cands); i++ {
			if bound[i] < 0 {
				continue
			}
			if d, _ := vecmath.L2SquaredU8Bounded(vk, e.base.Vec(int(cands[i].ID)), uint32(bound[i])); int64(d) <= bound[i] {
				bound[i] = dead
			}
		}
	}
	return out
}

// refBacklink is addBacklink one distance at a time.
func refBacklink(e *Engine, j, from int32) {
	if slices.Contains(e.nbrs[j], from) {
		return
	}
	e.nbrs[j] = append(e.nbrs[j], from)
	if len(e.nbrs[j]) <= e.opts.Degree {
		return
	}
	qj := e.base.Vec(int(j))
	cands := make([]topk.Item[uint32], 0, len(e.nbrs[j]))
	for _, x := range e.nbrs[j] {
		cands = append(cands, topk.Item[uint32]{ID: x, Dist: vecmath.L2SquaredU8(qj, e.base.Vec(int(x)))})
	}
	topk.SortItems(cands)
	e.nbrs[j] = refPrune(e, j, cands, e.nbrs[j][:0])
}

// refBuild is the serial build one distance at a time, the oracle the
// pipelined build is held to: each point's candidate search (refTraverse),
// pruning and backlinks run to completion before the next point's search
// starts.
func refBuild(e *Engine) {
	n := e.base.N
	e.nbrs = make([][]int32, n)
	sc := &searchScratch{visited: make([]uint32, n)}
	keep := topk.NewHeap[uint32](2 * e.opts.BuildBeam)
	var cands []topk.Item[uint32]
	for i := int32(1); i < int32(n); i++ {
		keep.Reset()
		refTraverse(e, sc, e.base.Vec(int(i)), refEntry(e, i), e.opts.BuildBeam, keep)
		cands = keep.SortedInto(cands)
		refLink(e, i, cands)
	}
	for _, nb := range e.nbrs {
		slices.Sort(nb)
	}
}

// refEntry is point i's search entry: the medoid once it is in the graph,
// node 0 before.
func refEntry(e *Engine, i int32) int32 {
	if e.medoid < i {
		return e.medoid
	}
	return 0
}

// refLink prunes point i's list from its candidates and adds its backlinks,
// one distance at a time.
func refLink(e *Engine, i int32, cands []topk.Item[uint32]) {
	e.nbrs[i] = refPrune(e, i, cands, nil)
	for _, j := range e.nbrs[i] {
		refBacklink(e, j, i)
	}
}

// refEngine is an engine over base whose graph the serial build made.
func refEngine(base dataset.U8Set, opts Options) *Engine {
	e := &Engine{base: base, opts: opts}
	e.opts.defaults()
	e.medoid = medoid(e.base)
	refBuild(e)
	return e
}

// duplicateCorpus is a small fixture in which every third point copies an
// earlier one and every query sits on a corpus point, so equal distances
// meet at the beam's worst entry, where a tie must not be abandoned.
func duplicateCorpus() (dataset.U8Set, dataset.U8Set) {
	s := testutil.Synth(testSpec(1500, 48))
	base, d := s.Base, s.Base.D
	for i := 3; i < base.N; i += 3 {
		copy(base.Data[i*d:(i+1)*d], base.Vec(i/3))
	}
	queries := dataset.U8Set{N: 48, D: d}
	for qi := 0; qi < queries.N; qi++ {
		queries.Data = append(queries.Data, base.Vec(qi*31%base.N)...)
	}
	return base, queries
}

// TestAbandoningSearchMatchesReference: per query, the abandoning traversal
// ends on the reference's pool after the same hops and evaluations, the
// batch answers are the reference's, DC moves the same DMAs and bytes and
// sums no more arithmetic, RC is unchanged and TS costs no more; over a
// batch, DC costs fewer cycles than the reference, compares included.
func TestAbandoningSearchMatchesReference(t *testing.T) {
	fixture, s := getEngine(t)
	dupBase, dupQueries := duplicateCorpus()
	dup, err := New(dupBase, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	dpu, err := upmem.NewSystem(upmem.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	stats := func(tl *upmem.Tally, p upmem.Phase) upmem.PhaseStats {
		d := dpu.DPUs[0]
		d.ResetCounters()
		d.ApplyTally(tl)
		return d.Stats(p)
	}
	for _, corpus := range []struct {
		name    string
		e       *Engine
		queries dataset.U8Set
	}{{"fixture", fixture, s.Queries}, {"duplicates", dup, dupQueries}} {
		for _, k := range []int{1, 10} {
			for _, beam := range []int{k, 32, 64} {
				// The graph always squares through the SQT (sqt=true).
				t.Run(fmt.Sprintf("%s/K=%d/beam=%d/sqt=true", corpus.name, k, beam), func(t *testing.T) {
					e, err := corpus.e.WithSearchOptions(func(o *Options) { o.K, o.SearchBeam = k, beam })
					if err != nil {
						t.Fatal(err)
					}
					res, err := e.SearchBatch(corpus.queries)
					if err != nil {
						t.Fatal(err)
					}
					scr := e.scratch
					var dc upmem.PhaseStats
					var refCycles uint64
					for qi := 0; qi < corpus.queries.N; qi++ {
						q := corpus.queries.Vec(qi)
						want, evaluated, hops := refBeamSearch(e, &scr[0], q, e.medoid, beam)
						evals := len(evaluated)
						st := e.beamSearch(&scr[1], q, e.medoid, beam, beam, nil)
						if !slices.Equal(scr[1].pool, want) || st.hops != hops || st.evals != evals {
							t.Fatalf("query %d: pool/hops/evals %v/%d/%d, reference %v/%d/%d", qi, scr[1].pool, st.hops, st.evals, want, hops, evals)
						}
						want = want[:min(k, len(want))]
						ids := make([]int32, len(want))
						for j, it := range want {
							ids[j] = it.ID
						}
						if !slices.Equal(res.Items[qi], want) || !slices.Equal(res.IDs[qi], ids) {
							t.Fatalf("query %d: answer %v, reference %v", qi, res.Items[qi], want)
						}
						var got, ref upmem.Tally
						e.charge(&got, st)
						refCharge(e, &ref, hops, evals)
						// A query whose bounded evaluations all complete pays
						// its compares on top of the reference; the arithmetic
						// never exceeds it.
						g, r := stats(&got, upmem.PhaseDC), stats(&ref, upmem.PhaseDC)
						compares := upmem.CmpCycles * uint64(st.checks)
						if g.DMACount != r.DMACount || g.DMABytes != r.DMABytes || g.ComputeCycles-compares > r.ComputeCycles {
							t.Fatalf("query %d: DC %+v (%d compare cycles), reference %+v", qi, g, compares, r)
						}
						if g, r := stats(&got, upmem.PhaseRC), stats(&ref, upmem.PhaseRC); g != r {
							t.Fatalf("query %d: RC %+v, reference %+v", qi, g, r)
						}
						if g, r := stats(&got, upmem.PhaseTS), stats(&ref, upmem.PhaseTS); g.ComputeCycles > r.ComputeCycles {
							t.Fatalf("query %d: TS %+v, reference %+v", qi, g, r)
						}
						dc.ComputeCycles, dc.DMACount, dc.DMABytes = dc.ComputeCycles+g.ComputeCycles, dc.DMACount+g.DMACount, dc.DMABytes+g.DMABytes
						refCycles += r.ComputeCycles
					}
					m := res.Metrics
					batch := upmem.PhaseStats{ComputeCycles: m.PhaseComputeCycles[upmem.PhaseDC], DMACount: m.PhaseDMACount[upmem.PhaseDC], DMABytes: m.PhaseDMABytes[upmem.PhaseDC]}
					if batch != dc || dc.ComputeCycles >= refCycles {
						t.Fatalf("batch DC %+v, per-query sum %+v, reference cycles %d", batch, dc, refCycles)
					}
				})
			}
		}
	}
}

// TestBeamCollectMatchesFullSort: for every point the build inserts, on the
// graph as it stands before that point is linked, the build's collect (a
// pool of the 2*BuildBeam nearest whose first BuildBeam are the beam,
// abandoning distances above its worst once full) returns what collecting
// every evaluation's full distance, sorting and cutting to 2*BuildBeam
// returns.
func TestBeamCollectMatchesFullSort(t *testing.T) {
	_, s := getEngine(t)
	dupBase, _ := duplicateCorpus()
	for _, tc := range []struct {
		name string
		base dataset.U8Set
	}{{"fixture", s.Base}, {"duplicates", dupBase}, {"sift", dataset.SIFT(3000, 1, 5).Base}} {
		t.Run(tc.name, func(t *testing.T) {
			e := &Engine{base: tc.base, opts: testOptions()}
			e.opts.defaults()
			e.medoid = medoid(e.base)
			n, beam := e.base.N, e.opts.BuildBeam
			e.nbrs = make([][]int32, n)
			sc, ref := &searchScratch{visited: make([]uint32, n)}, &searchScratch{visited: make([]uint32, n)}
			for i := int32(1); i < int32(n); i++ {
				q := e.base.Vec(int(i))
				_, want, _ := refBeamSearch(e, ref, q, refEntry(e, i), beam)
				topk.SortItems(want)
				want = want[:min(len(want), 2*beam)]
				if e.beamSearch(sc, q, refEntry(e, i), beam, 2*beam, nil); !slices.Equal(sc.pool, want) {
					t.Fatalf("point %d: collected %v, full sort %v", i, sc.pool, want)
				}
				refLink(e, i, slices.Clone(sc.pool))
			}
		})
	}
}

// medoidCorpus is a 600-point fixture whose point 7, set to the corpus mean, is
// the medoid: point 8's search enters at the point linked just before it.
func medoidCorpus() dataset.U8Set {
	base := testutil.Synth(testSpec(600, 1)).Base
	base.Data = slices.Clone(base.Data)
	d := base.D
	for j := 0; j < d; j++ {
		sum := 0
		for i := 0; i < base.N; i++ {
			sum += int(base.Data[i*d+j])
		}
		base.Data[7*d+j] = uint8((sum + base.N/2) / base.N)
	}
	return base
}

// TestPipelinedBuildMatchesSerial: the two-stage build makes the serial
// build's graph, one distance at a time, every adjacency list and the medoid,
// on corpora with duplicates, at 128 dimensions and at 130 (a tail after the
// last whole block), with a medoid inside the insertion order and one to five
// points,
// at a narrow and the default degree and beam. Run it under -cpu 1,2: on one
// core the stages interleave, on two they overlap.
func TestPipelinedBuildMatchesSerial(t *testing.T) {
	_, s := getEngine(t)
	dupBase, _ := duplicateCorpus()
	type corpus struct {
		name string
		base dataset.U8Set
	}
	corpora := []corpus{
		{"fixture", s.Base}, {"duplicates", dupBase}, {"sift", dataset.SIFT(3000, 1, 5).Base}, {"d=130", tailCorpus().Base},
		{"medoid=7", medoidCorpus()},
	}
	for _, n := range []int{1, 2, 5} {
		corpora = append(corpora, corpus{fmt.Sprintf("N=%d", n), dataset.U8Set{N: n, D: s.Base.D, Data: s.Base.Data[:n*s.Base.D]}})
	}
	for _, shape := range [][2]int{{4, 8}, {16, 48}} {
		for _, c := range corpora {
			t.Run(fmt.Sprintf("%s/R=%d/L=%d", c.name, shape[0], shape[1]), func(t *testing.T) {
				opts := testOptions()
				opts.Degree, opts.BuildBeam = shape[0], shape[1]
				got, err := New(c.base, opts)
				if err != nil {
					t.Fatal(err)
				}
				want := refEngine(c.base, opts)
				if c.name == "medoid=7" && want.medoid != 7 {
					t.Fatalf("medoid %d, want 7", want.medoid)
				}
				if got.medoid != want.medoid {
					t.Fatalf("medoid %d, serial %d", got.medoid, want.medoid)
				}
				for i := range want.nbrs {
					if !slices.Equal(got.nbrs[i], want.nbrs[i]) {
						t.Fatalf("node %d: list %v, serial %v", i, got.nbrs[i], want.nbrs[i])
					}
				}
			})
		}
	}
}

// tailCorpus is a 130-dimensional fixture: eight whole blocks and a tail.
func tailCorpus() *dataset.Synth {
	spec := testSpec(2000, 48)
	spec.D = 130
	return testutil.Synth(spec)
}

// TestTraversalMatchesReference: query by query, the eight-row traversal ends
// on refTraverse's pool, hops, evaluations, dimensions summed, checks and
// probes, at a pool as narrow as K and wider; in the build's mode too, where
// a pool of twice the beam ends on the reference's keep.
func TestTraversalMatchesReference(t *testing.T) {
	fixture, s := getEngine(t)
	dupBase, dupQueries := duplicateCorpus()
	sift, tail := dataset.SIFT(3000, 64, 5), tailCorpus()
	for _, c := range []struct {
		name          string
		base, queries dataset.U8Set
	}{
		{"fixture", s.Base, s.Queries}, {"duplicates", dupBase, dupQueries},
		{"sift", sift.Base, sift.Queries}, {"d=130", tail.Base, tail.Queries},
	} {
		e := fixture
		if c.name != "fixture" {
			var err error
			if e, err = New(c.base, testOptions()); err != nil {
				t.Fatal(err)
			}
		}
		n := e.base.N
		for _, beam := range []int{10, 32, 64} {
			for _, build := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/beam=%d/build=%v", c.name, beam, build), func(t *testing.T) {
					sc, ref := &searchScratch{visited: make([]uint32, n)}, &searchScratch{visited: make([]uint32, n)}
					var refKeep *topk.Heap[uint32]
					width := beam
					if build {
						refKeep, width = topk.NewHeap[uint32](2*beam), 2*beam
					}
					for qi := 0; qi < c.queries.N; qi++ {
						q := c.queries.Vec(qi)
						if build {
							refKeep.Reset()
						}
						st := e.beamSearch(sc, q, e.medoid, beam, width, nil)
						want := refTraverse(e, ref, q, e.medoid, beam, refKeep)
						pool := ref.pool
						if build {
							pool = refKeep.Sorted()
						}
						if st != want || !slices.Equal(sc.pool, pool) {
							t.Fatalf("query %d: %+v pool %v, reference %+v pool %v", qi, st, sc.pool, want, pool)
						}
					}
				})
			}
		}
	}
}

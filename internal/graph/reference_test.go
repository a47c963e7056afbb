package graph

import (
	"fmt"
	"slices"
	"testing"

	"drimann/internal/dataset"
	"drimann/internal/engine"
	"drimann/internal/testutil"
	"drimann/internal/topk"
	"drimann/internal/upmem"
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
		it := topk.Item[uint32]{ID: id, Dist: e.dist(q, id)}
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
	cost := &e.sys.Cfg.Cost
	for h := 0; h < hops; h++ {
		t.DMA(upmem.PhaseRC, uint64((1+e.opts.Degree)*4))
	}
	scanned := uint64(hops * e.opts.Degree)
	t.Charge(cost, upmem.PhaseRC, upmem.OpLoad, scanned)
	t.Charge(cost, upmem.PhaseRC, upmem.OpCmp, scanned)
	perDim := uint64(2 + sqtAccessCycles)
	if !e.opts.UseSQT {
		perDim = 2 + cost.MulCycles
	}
	for ev := 0; ev < evals; ev++ {
		t.DMA(upmem.PhaseDC, uint64(e.base.D))
	}
	t.ChargeCycles(upmem.PhaseDC, uint64(evals)*uint64(e.base.D)*perDim)
	t.ChargeCycles(upmem.PhaseTS, uint64(evals)*(uint64(engine.Log2Ceil(e.opts.SearchBeam))+2))
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
				for _, sqt := range []bool{true, false} {
					t.Run(fmt.Sprintf("%s/K=%d/beam=%d/sqt=%v", corpus.name, k, beam, sqt), func(t *testing.T) {
						e, err := corpus.e.WithSearchOptions(func(o *Options) { o.K, o.SearchBeam, o.UseSQT = k, beam, sqt })
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
							st := e.beamSearch(&scr[1], q, e.medoid, beam, nil)
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
							compares := e.sys.Cfg.Cost.Cycles(upmem.OpCmp, uint64(st.checks))
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
}

// TestBeamCollectMatchesFullSort: for every point the build inserts, on the
// graph as it stands before that point is linked, the build's collect (a
// heap of the 2*BuildBeam nearest, abandoning distances above its worst once
// full) returns what collecting every evaluation's full distance, sorting
// and cutting to 2*BuildBeam returns.
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
			keep := topk.NewHeap[uint32](2 * beam)
			var cands []topk.Item[uint32]
			for i := 1; i < n; i++ {
				entry := int32(0)
				if int(e.medoid) < i {
					entry = e.medoid
				}
				_, want, _ := refBeamSearch(e, ref, e.base.Vec(i), entry, beam)
				topk.SortItems(want)
				want = want[:min(len(want), 2*beam)]
				if cands = e.link(sc, keep, int32(i), cands); !slices.Equal(cands, want) {
					t.Fatalf("point %d: collected %v, full sort %v", i, cands, want)
				}
			}
		})
	}
}

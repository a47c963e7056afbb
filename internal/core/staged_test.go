package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"drimann/internal/dataset"
	"drimann/internal/ivf"
	"drimann/internal/sched"
	"drimann/internal/topk"
	"drimann/internal/upmem"
	"drimann/internal/vecmath"
)

// oneHeap is the staged scan's oracle: every live point of the given probes
// through one heap with whole distances, nothing pruned, nothing forwarded —
// ivf.Index.SearchInt with the probes supplied.
func oneHeap(ix *ivf.Index, query []uint8, probes []int32, k int) []topk.Item[uint32] {
	res := make([]int16, ix.Dim)
	lut := make([]uint32, ix.M*ix.CB)
	h := topk.NewHeap[uint32](k)
	for _, c := range probes {
		vecmath.SubI16(res, query, ix.CentroidU8(int(c)))
		ix.IntCB.LUTInt(res, lut, ix.SQT)
		tomb := ix.Tombstoned(int(c))
		for i, id := range ix.Lists[c] {
			if !tomb[id] {
				h.Push(id, vecmath.ADCU32(lut, ix.Codes[c][i*ix.M:(i+1)*ix.M], ix.CB))
			}
		}
		for i, id := range ix.AppendIDs(int(c)) {
			h.Push(id, vecmath.ADCU32(lut, ix.AppendCodes(int(c))[i*ix.M:(i+1)*ix.M], ix.CB))
		}
	}
	return h.Sorted()
}

// requireOneHeapAnswers searches queries on e and compares every answer —
// ids and scores — with the one-heap oracle over the engine's own probes.
func requireOneHeapAnswers(t *testing.T, e *Engine, queries dataset.U8Set, label string) *Result {
	t.Helper()
	res, err := e.SearchBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	requireOneHeap(t, e, queries, res, label)
	return res
}

// requireOneHeap is requireOneHeapAnswers on an answer already in hand.
func requireOneHeap(t *testing.T, e *Engine, queries dataset.U8Set, res *Result, label string) {
	t.Helper()
	ps := e.loc.Probes(queries)
	for qi := 0; qi < queries.N; qi++ {
		want := oneHeap(e.ix, queries.Vec(qi), ps.Of(qi), e.opts.K)
		if ref := e.ix.SearchInt(queries.Vec(qi), e.opts.NProbe, e.opts.K); !slices.Equal(ref, want) {
			t.Fatalf("%s: query %d: oracle disagrees with SearchInt", label, qi)
		}
		if !slices.Equal(res.Items[qi], want) {
			t.Fatalf("%s: query %d:\n got %v\nwant %v", label, qi, res.Items[qi], want)
		}
		for j, it := range want {
			if res.IDs[qi][j] != it.ID {
				t.Fatalf("%s: query %d id %d: %d, want %d", label, qi, j, res.IDs[qi][j], it.ID)
			}
		}
	}
}

// TestStagedScanMatchesOneHeap: bound forwarding and staged pruning never
// change an answer. Over the UseSQT x UseWRAM option matrix, on whole lists,
// co-located split and duplicated slices, the tightest bound and an index
// carrying append segments and tombstones (whole-slice and co-located), every
// query's ids and scores equal one heap over whole distances — while the runs
// really do split into waves and prune.
func TestStagedScanMatchesOneHeap(t *testing.T) {
	f := getFixture(t)
	for _, c := range kernelMatrix(testOptions()) {
		for _, d := range deployments(f) {
			if d.suffix == "_unbounded" {
				continue // nothing prunes: TestUnboundedScanBuildsWholeDemand's case
			}
			name := c.name + d.suffix
			t.Run(name, func(t *testing.T) {
				e, queries := d.deploy(t, c.o, false)
				m := &requireOneHeapAnswers(t, e, queries, name).Metrics
				if m.Launches <= m.Batches || m.PointsPruned == 0 || m.CodesGathered >= m.PointsScanned*uint64(e.ix.M) {
					t.Fatalf("run did not exercise the staged scan: %d launches over %d batches, %d of %d points pruned, %d codes gathered",
						m.Launches, m.Batches, m.PointsPruned, m.PointsScanned, m.CodesGathered)
				}
			})
		}
	}
}

// mutatedEngine deploys mutFixture's index, as the per-op reference when ref
// is set, and gives it a live overlay: inserts into many clusters, tombstones
// in base lists and a deleted-then-reinserted id (live in an append segment
// while its base copy is tombstoned). It returns the engine and the fixture's
// queries.
func mutatedEngine(t *testing.T, o Options, ref bool) (*Engine, dataset.U8Set) {
	t.Helper()
	ix, s, base := mutFixture(t)
	e := newEngine(t, ix, dataset.U8Set{}, o, ref)
	n := s.Base.N - base
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(base + i)
	}
	if err := e.Insert(dataset.U8Set{N: n, D: s.Base.D, Data: s.Base.Data[base*s.Base.D:]}, ids); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete([]int32{0, 3, 7, 50, 51, 52, 900, 1500, int32(base + 4)}); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert(dataset.U8Set{N: 1, D: s.Base.D, Data: s.Base.Vec(7)}, []int32{7}); err != nil {
		t.Fatal(err)
	}
	return e, s.Queries
}

// TestBoundTieKeepsSmallerID constructs the one case strict pruning exists
// for: a second-wave point whose distance equals its query's forwarded bound
// and whose id is smaller than the id of the point holding that bound. It
// must displace that point. Two clusters get the same centroid, so a code has
// the same distance in both; the later one holds a single point, a copy of
// the code that is k-th best in the earlier one, under a smaller id.
func TestBoundTieKeepsSmallerID(t *testing.T) {
	f := getFixture(t)
	o := testOptions()
	o.NProbe = 2
	fill := waveFill * o.K

	// The query, the cluster a it probes first (big enough to be its whole
	// first wave) and a later-numbered cluster b to turn into a's twin.
	var ix *ivf.Index
	var q []uint8
	a, b := -1, -1
	for qi := 0; qi < f.s.Queries.N && a < 0; qi++ {
		q = f.s.Queries.Vec(qi)
		if c := int(f.ix.LocateInt(q, 1)[0].ID); f.ix.ListLen(c) >= fill && c+1 < f.ix.NList {
			a, b = c, c+1
		}
	}
	if a < 0 {
		t.Fatal("fixture has no query whose nearest cluster fills a first wave")
	}
	clone := *f.ix
	ix = &clone
	ix.Lists, ix.Codes = slices.Clone(f.ix.Lists), slices.Clone(f.ix.Codes)
	ix.CentroidsU8, ix.Centroids = slices.Clone(f.ix.CentroidsU8), slices.Clone(f.ix.Centroids)
	copy(ix.CentroidU8(b), ix.CentroidU8(a))
	copy(ix.Centroid(b), ix.Centroid(a))

	kth := oneHeap(ix, q, []int32{int32(a)}, o.K)[o.K-1] // the bound after wave 1, and who holds it
	pos := slices.Index(ix.Lists[a], kth.ID)
	holder, twin := int32(f.s.Base.N+5), int32(f.s.Base.N+1)
	ix.Lists[a] = slices.Clone(ix.Lists[a])
	ix.Lists[a][pos] = holder
	ix.Lists[b] = []int32{twin}
	ix.Codes[b] = slices.Clone(ix.Codes[a][pos*ix.M : (pos+1)*ix.M])

	want := ix.SearchInt(q, o.NProbe, o.K)
	if last := want[o.K-1]; last.ID != twin || last.Dist != kth.Dist {
		t.Fatalf("construction failed: k-th is %+v, want id %d at distance %d", last, twin, kth.Dist)
	}
	for _, ref := range []bool{false, true} {
		e := newEngine(t, ix, dataset.U8Set{}, o, ref)
		// The query rides in a batch big enough to be split into waves.
		batch := dataset.U8Set{N: f.s.Queries.N + 1, D: ix.Dim, Data: append(slices.Clone(q), f.s.Queries.Data...)}
		res, err := e.SearchBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics.Launches < 2 {
			t.Fatalf("batch was not split: %d launches", res.Metrics.Launches)
		}
		if !slices.Equal(res.Items[0], want) {
			t.Fatalf("reference=%v: tie lost:\n got %v\nwant %v", ref, res.Items[0], want)
		}
		if slices.Contains(res.IDs[0], holder) || res.IDs[0][o.K-1] != twin {
			t.Fatalf("reference=%v: the smaller id must take the k-th place: %v", ref, res.IDs[0])
		}
	}
}

// TestUnboundedScanBuildsWholeDemand: with K at least the points a query
// scans no bound ever forms, and the staged kernel builds exactly the entries
// the unstaged one did — the distinct codes of every probed list, once per
// probe — and gathers every code, under every kernel configuration.
func TestUnboundedScanBuildsWholeDemand(t *testing.T) {
	f := getFixture(t)
	base := testOptions()
	base.EnableSplit, base.EnableDup = false, false // one task per probe: the demand is the list's
	base.K = f.s.Base.N
	for _, c := range kernelMatrix(base) {
		for _, ref := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s_ref=%v", c.name, ref), func(t *testing.T) {
				e := newEngine(t, f.ix, dataset.U8Set{}, c.o, ref)
				res, err := e.SearchBatch(f.s.Queries)
				if err != nil {
					t.Fatal(err)
				}
				var entries, points uint64
				for _, c := range e.loc.Probes(f.s.Queries).Clusters {
					seen := map[[2]uint16]bool{}
					for i, code := range f.ix.Codes[c] {
						seen[[2]uint16{uint16(i % f.ix.M), code}] = true
					}
					entries += uint64(len(seen))
					points += uint64(f.ix.ListLen(int(c)))
				}
				m := &res.Metrics
				if m.LUTEntries != entries || m.PointsScanned != points || m.PointsPruned != 0 || m.CodesGathered != points*uint64(f.ix.M) {
					t.Fatalf("built %d entries (want %d), scanned %d (want %d), pruned %d, gathered %d codes",
						m.LUTEntries, entries, m.PointsScanned, points, m.PointsPruned, m.CodesGathered)
				}
			})
		}
	}
}

// TestTighterBoundNeverCostsMore replays one launch under ever tighter
// bounds — none, each query's true k-th distance, half of it (answers would
// be wrong; costs are still defined): no phase's instruction cycles may rise,
// nor its DMA count or bytes, and the work counters fall with them. One of
// these is not an invariant of the kernel: a smaller marked set can split one
// codebook-row run into two, so LC's DMA count is only bounded by a monotone
// quantity (runs <= entries). On sparse bitmaps like these it falls too.
// Every kernel configuration, on the engine and the reference.
func TestTighterBoundNeverCostsMore(t *testing.T) {
	f := getFixture(t)
	for _, c := range kernelMatrix(testOptions()) {
		for _, ref := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s_ref=%v", c.name, ref), func(t *testing.T) {
				o := c.o
				e := newEngine(t, f.ix, dataset.U8Set{}, o, ref)
				nq := o.BatchSize
				var reqs []sched.Request
				exact := make([]uint32, nq)
				for qi := 0; qi < nq; qi++ {
					ref := f.ix.SearchInt(f.s.Queries.Vec(qi), o.NProbe, o.K)
					exact[qi] = ref[len(ref)-1].Dist
					for _, p := range f.ix.LocateInt(f.s.Queries.Vec(qi), o.NProbe) {
						reqs = append(reqs, sched.Request{Query: int32(qi), Cluster: p.ID})
					}
				}
				var prev *Metrics
				for step, scale := range []float64{math.Inf(1), 1, 0.5} {
					bounds := make([]uint32, nq)
					for qi := range bounds {
						bounds[qi] = uint32(math.Min(math.MaxUint32, float64(exact[qi])*scale))
					}
					var sb sched.Batch
					sched.GreedyInto(&sb, reqs, nil, e.pl, sched.Config{})
					var m Metrics
					e.groups.resetQE(f.s.Queries.N)
					e.runLaunch(&sb, f.s.Queries, make([]*topk.Heap[uint32], nq), bounds, &m)
					if prev != nil {
						for p := upmem.Phase(0); p < upmem.NumPhases; p++ {
							if m.PhaseComputeCycles[p] > prev.PhaseComputeCycles[p] || m.PhaseDMACount[p] > prev.PhaseDMACount[p] || m.PhaseDMABytes[p] > prev.PhaseDMABytes[p] {
								t.Fatalf("step %d phase %v: cost rose under a tighter bound:\n now %+v\nwas %+v", step, p, m, *prev)
							}
						}
						if m.PointsScanned != prev.PointsScanned || m.PointsPruned <= prev.PointsPruned || m.CodesGathered >= prev.CodesGathered || m.LUTEntries >= prev.LUTEntries {
							t.Fatalf("step %d: a tighter bound must prune more of the same points:\n now %+v\nwas %+v", step, m, *prev)
						}
					}
					prev = &m
				}
			})
		}
	}
}

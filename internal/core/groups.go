package core

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"drimann/internal/dataset"
	"drimann/internal/sched"
	"drimann/internal/vecmath"
)

// groupKey identifies one unique (query, cluster) pair of a launch.
type groupKey struct {
	q int32
	c int32
}

// groupStore is the per-launch shared LC state: every unique (query,
// cluster) group's residual — plus its decomposition terms, or its LUT on the
// over-budget fallback — is built exactly once, fanned across
// workers, then read by each DPU that scans a slice of the cluster. Arenas
// are sized for one group block at a time to bound memory.
type groupStore struct {
	keys []groupKey // sorted unique groups of the launch
	res  []int16    // block arena: residuals, blockGroups x Dim
	lut  []uint32   // block arena (fallback): LUTs, blockGroups x M*CB
	runs []int32    // query-run boundaries within the current block
	// order is each group's subspaces in descending residual magnitude — the
	// order the staged scan visits them in; blockGroups x M.
	order []uint16
	build []bool // per query run of the block: its gather table is to be built

	// LUT-free arenas (see the package doc): M per-subspace terms per
	// group, and one qe gather table per query: qeSlot[q] is query q's slot in
	// qe (-1 without a table), qeOwner[s] the query holding slot s (-1: free),
	// qeBorn[s] the step that built its table; step is the one being launched.
	// A table stays until the launch is past its query — groups run in query
	// order — and one step beyond that while the query has no bound: its
	// second wave reuses it (expire).
	p       []int32 // block-relative per-group SubTerms, blockGroups x M
	qe      []int32 // slots x M*CB
	qeSlot  []int32
	qeOwner []int32
	qeBorn  []int
	step    int
}

// resetQE forgets every query's gather table: a new call of n queries begins.
func (g *groupStore) resetQE(n int) {
	g.qeSlot = make([]int32, n)
	for i := range g.qeSlot {
		g.qeSlot[i] = -1
	}
	for s := range g.qeOwner {
		g.qeOwner[s] = -1
	}
}

// expire frees the gather tables of the queries below q — the launch is past
// them — that carry a bound or whose table an earlier step built: they have
// had their second wave, or were never to have one here.
func (g *groupStore) expire(q int32, bounds []uint32) {
	for s, owner := range g.qeOwner {
		if owner >= 0 && owner < q && (bounds[owner] != math.MaxUint32 || g.qeBorn[s] < g.step) {
			g.qeSlot[owner], g.qeOwner[s] = -1, -1
		}
	}
}

// sortTasks orders one DPU's tasks by (query, cluster, slice start) — the
// deterministic kernel order that makes queries contiguous and groups
// adjacent.
func (e *Engine) sortTasks(tasks []sched.Task) {
	slices.SortFunc(tasks, func(a, b sched.Task) int {
		if c := cmp.Compare(a.Query, b.Query); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Cluster, b.Cluster); c != 0 {
			return c
		}
		return cmp.Compare(e.pl.Slices[a.Slice].Start, e.pl.Slices[b.Slice].Start)
	})
}

// collectGroups gathers the launch's unique (query, cluster) groups into
// e.groups.keys (sorted), assigns every task its group index, and returns
// the number of (query, DPU) pairs whose query vector must ship to a DPU.
// Task lists must already be sorted; the per-DPU group sequences are then
// ascending, so index assignment is a linear merge against the key list.
func (e *Engine) collectGroups(batch *sched.Batch) int {
	g := &e.groups
	g.keys = g.keys[:0]
	shipped := 0
	for d := range batch.PerDPU {
		prevQ, prevC := int32(-1), int32(-1)
		for _, t := range batch.PerDPU[d] {
			if t.Query != prevQ {
				shipped++
			}
			if t.Query != prevQ || t.Cluster != prevC {
				g.keys = append(g.keys, groupKey{q: t.Query, c: t.Cluster})
				prevQ, prevC = t.Query, t.Cluster
			}
		}
	}
	slices.SortFunc(g.keys, func(a, b groupKey) int {
		if c := cmp.Compare(a.q, b.q); c != 0 {
			return c
		}
		return cmp.Compare(a.c, b.c)
	})
	uniq := g.keys[:0]
	for _, k := range g.keys {
		if len(uniq) == 0 || k != uniq[len(uniq)-1] {
			uniq = append(uniq, k)
		}
	}
	g.keys = uniq

	// Per-DPU index assignment is independent (each DPU writes only its own
	// scratch and reads the shared key list), so fan it out. A DPU's group
	// sequence is ascending, so each transition binary-searches only the
	// key tail past the previous hit — O(groups_d * log(groups)) per DPU
	// rather than a linear rescan of the full key list.
	e.forEachDPU(batch, func(d int) {
		tasks := batch.PerDPU[d]
		sc := &e.scratch[d]
		if cap(sc.groupIx) < len(tasks) {
			sc.groupIx = make([]int32, len(tasks))
		}
		sc.groupIx = sc.groupIx[:len(tasks)]
		ki := 0
		prev := groupKey{q: -1, c: -1}
		for i, t := range tasks {
			k := groupKey{q: t.Query, c: t.Cluster}
			if k != prev {
				tail := g.keys[ki:]
				ki += sort.Search(len(tail), func(j int) bool {
					kj := tail[j]
					if kj.q != k.q {
						return kj.q >= k.q
					}
					return kj.c >= k.c
				})
				prev = k
			}
			sc.groupIx[i] = int32(ki)
		}
	})
	return shipped
}

// buildGroups fills the shared arenas for every group in keys[gLo:gHi),
// building each exactly once: the staged scan's subspace order, and with the
// decomposed builder the per-subspace SubTerms and (per query run) the qe
// gather table; on the over-budget fallback the residual and the full LUT.
// The residual is skipped where nothing reads it (the builder's path). Work is
// fanned across workers per query run so per-query terms amortize over all
// clusters the query probes.
func (e *Engine) buildGroups(queries dataset.U8Set, gLo, gHi int) {
	g := &e.groups
	ix := e.ix
	dim, lutLen := ix.Dim, ix.M*ix.CB
	n := gHi - gLo
	if n <= 0 {
		return
	}
	if e.lut == nil && cap(g.res) < n*dim {
		g.res = make([]int16, n*dim)
	}
	if e.lut == nil && cap(g.lut) < n*lutLen {
		g.lut = make([]uint32, n*lutLen)
	}
	if cap(g.order) < n*ix.M {
		g.order = make([]uint16, n*ix.M)
	}

	// Query runs within the block: keys are (query, cluster)-sorted, so one
	// run is one query's clusters.
	g.runs = g.runs[:0]
	for i := gLo; i < gHi; i++ {
		if i == gLo || g.keys[i].q != g.keys[i-1].q {
			g.runs = append(g.runs, int32(i))
		}
	}
	g.runs = append(g.runs, int32(gHi))
	// Gather tables: a slot for every query of the block that has none yet;
	// built below, like everything else, by the worker that gets the run.
	if e.lut != nil {
		g.build = g.build[:0]
		for _, lo := range g.runs[:len(g.runs)-1] {
			q := g.keys[lo].q
			g.build = append(g.build, g.qeSlot[q] < 0)
			if g.qeSlot[q] < 0 {
				free := slices.Index(g.qeOwner, -1)
				if free < 0 {
					free, g.qeOwner, g.qeBorn = len(g.qeOwner), append(g.qeOwner, -1), append(g.qeBorn, 0)
				}
				g.qeSlot[q], g.qeOwner[free], g.qeBorn[free] = int32(free), q, g.step
			}
		}
		if want := len(g.qeOwner) * lutLen; want > cap(g.qe) { // to the slot, not by append's factor
			g.qe = append(make([]int32, 0, want), g.qe...)
		}
		g.qe = g.qe[:len(g.qeOwner)*lutLen]
		if cap(g.p) < n*ix.M {
			g.p = make([]int32, n*ix.M)
		}
	}

	parallelFor(len(g.runs)-1, e.opts.Workers, func(_, ri int) {
		lo, hi := int(g.runs[ri]), int(g.runs[ri+1])
		query := queries.Vec(int(g.keys[lo].q))
		if e.lut != nil && g.build[ri] {
			e.lut.BuildQE(query, g.qe[int(g.qeSlot[g.keys[lo].q])*lutLen:][:lutLen])
		}
		for i := lo; i < hi; i++ {
			k, bi := g.keys[i], i-gLo
			subspaceOrder(g.order[bi*ix.M:(bi+1)*ix.M], query, ix.CentroidU8(int(k.c)))
			if e.lut != nil {
				e.lut.SubTerms(query, int(k.c), g.p[bi*ix.M:(bi+1)*ix.M])
				continue
			}
			res := g.res[bi*dim : (bi+1)*dim]
			vecmath.SubI16(res, query, ix.CentroidU8(int(k.c)))
			if e.opts.UseSQT {
				ix.IntCB.LUTInt(res, g.lut[bi*lutLen:(bi+1)*lutLen], ix.SQT)
			} else {
				ix.IntCB.LUTIntMul(res, g.lut[bi*lutLen:(bi+1)*lutLen])
			}
		}
	})
}

// subspaceOrder fills order (length M) with the subspaces of the residual
// query - centroid in descending magnitude Σ_j |q_j - c_j|, ties in ascending
// subspace order: large residuals meet large LUT entries, so a point's
// partial distance crosses a bound soonest this way round. (Ordering by the
// squared energy instead builds 1% fewer LUT entries on the benchmark fixture
// and costs the DPU D squarings a group, three times that saving.)
func subspaceOrder(order []uint16, query, centroid []uint8) {
	var buf [64]int32
	mag := buf[:] // magnitudes, sorted alongside order
	if len(order) > len(buf) {
		mag = make([]int32, len(order))
	}
	dsub := len(query) / len(order)
	for m := range order {
		var sum int32
		csub := centroid[m*dsub : (m+1)*dsub]
		for j, q := range query[m*dsub : (m+1)*dsub] {
			d := int32(q) - int32(csub[j])
			sum += (d ^ d>>31) - d>>31 // |d|, without a branch on the sign
		}
		i := m
		for ; i > 0 && mag[i-1] < sum; i-- {
			order[i], mag[i] = order[i-1], mag[i-1]
		}
		order[i], mag[i] = uint16(m), sum
	}
}

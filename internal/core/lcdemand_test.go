package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"drimann/internal/dataset"
	"drimann/internal/ivf"
	"drimann/internal/perfmodel"
	"drimann/internal/sched"
	"drimann/internal/testutil"
	"drimann/internal/upmem"
)

// requireFreshDemand fails unless the cached per-slice, per-subspace LC
// demand equals a fresh recount of every slice of the current placement, and
// the scheduler heat is the model's at the points each slice's task scans.
func requireFreshDemand(t *testing.T, e *Engine, label string) {
	t.Helper()
	m := e.ix.M
	if len(e.lc.bySlice) != len(e.pl.Slices)*m || len(e.lc.heat) != len(e.pl.Slices) {
		t.Fatalf("%s: %d cached counts, %d heats for %d slices of %d subspaces",
			label, len(e.lc.bySlice), len(e.lc.heat), len(e.pl.Slices), m)
	}
	bm := e.newMarks()
	want := make([]sliceRef, m)
	for si := range e.pl.Slices {
		s := &e.pl.Slices[si]
		e.sliceDemand(bm, s, want)
		if got := e.lc.bySlice[si*m : (si+1)*m]; !slices.Equal(got, want) {
			t.Fatalf("%s: slice %d cached demand %+v, fresh recount %+v", label, si, got, want)
		}
		n, need := e.scannedPoints(s), 0.0
		for _, r := range want {
			need += float64(r.need)
		}
		if e.lc.heat[si] != e.modelTaskCycles(n, need) {
			t.Fatalf("%s: slice %d heat %v is not the model's at its %d scanned points and %v entries",
				label, si, e.lc.heat[si], n, need)
		}
	}
}

// lcStats sums the LC phase statistics of one search.
func lcStats(m *Metrics) upmem.PhaseStats {
	return upmem.PhaseStats{
		ComputeCycles: m.PhaseComputeCycles[upmem.PhaseLC],
		DMACount:      m.PhaseDMACount[upmem.PhaseLC],
		DMABytes:      m.PhaseDMABytes[upmem.PhaseLC],
	}
}

// lcModes is the LC kernel's mode matrix, UseSQT x UseWRAM: multiply or SQT,
// with and without the WRAM buffers.
func lcModes() map[string]func(*Options) {
	return map[string]func(*Options){
		"mul":        func(o *Options) { o.UseSQT = false },
		"sqt":        func(o *Options) {},
		"mul_nowram": func(o *Options) { o.UseSQT, o.UseWRAM = false, false },
		"nowram":     func(o *Options) { o.UseWRAM = false },
	}
}

// TestMarkBitmapCountsAndRuns pins the two bitmap readers against a naive
// per-bit scan on random bitmaps, including runs that cross word boundaries
// and code counts that are not a multiple of the word size.
func TestMarkBitmapCountsAndRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, cb := range []int{16, 64, 100, 256, 300} {
		for trial := 0; trial < 50; trial++ {
			const m = 3
			wordsPer := markWordsPer(cb)
			bm := make([]uint64, m*wordsPer)
			density := rng.Float64()
			var codes []uint16
			for i := 0; i < cb; i++ {
				if rng.Float64() < density {
					for j := 0; j < m; j++ {
						codes = append(codes, uint16(rng.Intn(cb)))
					}
				}
			}
			markCodes(bm, codes, m, wordsPer)
			var want sliceRef
			for mi := 0; mi < m; mi++ {
				prev := false
				for c := 0; c < cb; c++ {
					set := bm[mi*wordsPer+c>>6]>>(c&63)&1 == 1
					if set {
						want.need++
						if !prev {
							want.runs++
						}
					}
					prev = set
				}
			}
			var got sliceRef
			for mi := 0; mi < m; mi++ {
				r := countMarks(bm[mi*wordsPer : (mi+1)*wordsPer])
				got.need += r.need
				got.runs += r.runs
			}
			if got != want {
				t.Fatalf("cb=%d: countMarks %+v, naive %+v", cb, got, want)
			}
			var walked sliceRef
			lastM, lastHi := -1, 0
			markedRuns(bm, []uint16{0, 1, 2}, cb, func(mi, lo, hi int) {
				if lo >= hi || hi > cb || (mi == lastM && lo <= lastHi) || mi < lastM {
					t.Fatalf("cb=%d: bad run (%d, %d, %d) after (%d, _, %d)", cb, mi, lo, hi, lastM, lastHi)
				}
				lastM, lastHi = mi, hi
				walked.runs++
				walked.need += uint32(hi - lo)
			})
			if walked != want {
				t.Fatalf("cb=%d: markedRuns walked %+v, naive %+v", cb, walked, want)
			}
		}
	}
}

// TestSparseLCColocatedSlices forces several slices of one cluster onto the
// same DPU (few DPUs, small split threshold), where one LC build serves the
// union of their referenced entries and no cached count applies: the tally
// path must still equal the literal per-op kernel in every LC mode, and the
// build must stay within the dense size.
func TestSparseLCColocatedSlices(t *testing.T) {
	f := getFixture(t)
	for name, set := range lcModes() {
		t.Run(name, func(t *testing.T) {
			o := testOptions()
			o.NumDPUs = 3
			o.SplitThreshold = 40
			o.EnableDup = false
			set(&o)
			eBat := newEngine(t, f.ix, dataset.U8Set{}, o, false)
			eRef := newEngine(t, f.ix, dataset.U8Set{}, o, true)
			rBat, err := eBat.SearchBatch(f.s.Queries)
			if err != nil {
				t.Fatal(err)
			}
			rRef, err := eRef.SearchBatch(f.s.Queries)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResults(t, rBat, rRef, "tally vs per-op")
			if rBat.Metrics != rRef.Metrics {
				t.Fatalf("metrics diverge:\ntally:     %+v\nreference: %+v", rBat.Metrics, rRef.Metrics)
			}
			m := &rBat.Metrics
			if m.LUTReuses == 0 {
				t.Fatal("fixture did not co-locate any slices")
			}
			if dense := m.LUTBuilds * uint64(f.ix.M*f.ix.CB); m.LUTEntries == 0 || m.LUTEntries > dense {
				t.Fatalf("built %d entries over %d builds, dense bound %d", m.LUTEntries, m.LUTBuilds, dense)
			}
		})
	}
}

// denseLC is the LC charge of the kernel this one replaced, which built all
// M x CB entries per group: the floor a fully-referenced LUT may not beat.
func denseLC(e *Engine) upmem.PhaseStats {
	d := *e.sys.DPUs[0]
	d.ResetCounters()
	elems := uint64(e.ix.CB * e.ix.Dim)
	entries := uint64(e.ix.M * e.ix.CB)
	d.Charge(upmem.PhaseLC, upmem.OpAdd, 2*elems)
	d.Charge(upmem.PhaseLC, upmem.OpLoad, elems)
	switch {
	case e.opts.UseSQT:
		d.Charge(upmem.PhaseLC, upmem.OpAdd, elems)
		d.Charge(upmem.PhaseLC, upmem.OpLoad, elems)
		d.ChargeCycles(upmem.PhaseLC, elems*sqtAccessCycles)
		if !e.opts.UseWRAM {
			d.RandomAccess(upmem.PhaseLC, elems)
		}
	default:
		d.Charge(upmem.PhaseLC, upmem.OpMul, elems)
	}
	d.Charge(upmem.PhaseLC, upmem.OpStore, entries)
	d.DMA(upmem.PhaseLC, 2*elems)
	if !e.lutInWRAM {
		d.RandomAccess(upmem.PhaseLC, entries)
	}
	return d.Stats(upmem.PhaseLC)
}

// TestFullyReferencedLUTChargedNoLessThanDense: when every slice's codes
// cover all M x CB entries the sparse kernel degenerates to the dense one
// plus its own bookkeeping, so no component of the LC charge may fall below
// the dense kernel's, in any mode.
func TestFullyReferencedLUTChargedNoLessThanDense(t *testing.T) {
	ix, s := testutil.Fixture(t, testutil.FixtureSpec{
		N: 4000, D: 8, Queries: 16, NumClusters: 4, Seed: 5, Noise: 20,
		NList: 4, M: 4, CB: 16, BuildSeed: 3,
	})
	// Re-code the head of every cluster so each code value occurs in each
	// subspace (the engine derives everything else from the codes at New).
	for c := range ix.Codes {
		for i := 0; i < ix.CB; i++ {
			for m := 0; m < ix.M; m++ {
				ix.Codes[c][i*ix.M+m] = uint16(i)
			}
		}
	}
	for name, set := range lcModes() {
		t.Run(name, func(t *testing.T) {
			o := testOptions()
			o.NumDPUs = 4
			o.NProbe = 4
			o.EnableSplit, o.EnableDup = false, false
			// K above every point a query scans: no bound ever forms, so
			// every stage of every scan sees its whole slice.
			o.K = s.Base.N
			set(&o)
			e, err := New(ix, dataset.U8Set{}, o)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range e.lc.bySlice {
				if int(r.need) != ix.CB || r.runs != 1 {
					t.Fatalf("slice %d subspace %d demand %+v: fixture must reference every entry", i/ix.M, i%ix.M, r)
				}
			}
			res, err := e.SearchBatch(s.Queries)
			if err != nil {
				t.Fatal(err)
			}
			m := &res.Metrics
			got := lcStats(m)
			dense := denseLC(e)
			if got.ComputeCycles < m.LUTBuilds*dense.ComputeCycles ||
				got.DMACount < m.LUTBuilds*dense.DMACount ||
				got.DMABytes < m.LUTBuilds*dense.DMABytes {
				t.Fatalf("fully-referenced LC %+v undercuts %d dense builds of %+v", got, m.LUTBuilds, dense)
			}
			if m.LUTEntries != m.LUTBuilds*uint64(ix.M*ix.CB) {
				t.Fatalf("occupancy: %d entries over %d builds", m.LUTEntries, m.LUTBuilds)
			}
		})
	}
}

// TestLCChargeMonotoneInDemand drives chargeLC with synthetic cached counts:
// more distinct entries or more runs never cost less, and strictly more
// entries cost strictly more compute.
func TestLCChargeMonotoneInDemand(t *testing.T) {
	f := getFixture(t)
	for name, set := range lcModes() {
		t.Run(name, func(t *testing.T) {
			o := testOptions()
			set(&o)
			e, err := New(f.ix, dataset.U8Set{}, o)
			if err != nil {
				t.Fatal(err)
			}
			// One stage over every subspace of slice 0 with all of its points
			// alive (none, here), the demand spread over the subspaces.
			subs := make([]uint16, f.ix.M)
			for m := range subs {
				subs[m] = uint16(m)
			}
			charge := func(r sliceRef) upmem.PhaseStats {
				um := uint32(f.ix.M)
				for m := uint32(0); m < um; m++ {
					e.lc.bySlice[m] = sliceRef{need: (r.need + m) / um, runs: (r.runs + m) / um}
				}
				d := e.sys.DPUs[0]
				d.ResetCounters()
				var ta upmem.Tally
				e.chargeLC(&ta, &e.scratch[0], []sched.Task{{Slice: 0}}, subs, true)
				d.ApplyTally(&ta)
				return d.Stats(upmem.PhaseLC)
			}
			maxNeed := uint32(f.ix.M * f.ix.CB)
			prev := charge(sliceRef{})
			for need := uint32(1); need <= maxNeed; need += 7 {
				cur := charge(sliceRef{need: need, runs: 1})
				if cur.ComputeCycles <= prev.ComputeCycles || cur.DMABytes <= prev.DMABytes || cur.DMACount < prev.DMACount {
					t.Fatalf("need %d: %+v not above %+v", need, cur, prev)
				}
				prev = cur
			}
			few, many := charge(sliceRef{need: 40, runs: 2}), charge(sliceRef{need: 40, runs: 40})
			if many.DMACount <= few.DMACount || many.ComputeCycles != few.ComputeCycles || many.DMABytes != few.DMABytes {
				t.Fatalf("runs must add DMA setups only: %+v vs %+v", few, many)
			}
		})
	}
}

// TestLCChargeIndependentOfPointOrder: shuffling the points inside every
// cluster changes neither the cached demand nor one cycle or DMA of the LC
// charge (the marked set is a set), in both accounting paths and every LC
// mode.
func TestLCChargeIndependentOfPointOrder(t *testing.T) {
	spec := testutil.FixtureSpec{
		N: 3000, D: 16, Queries: 24, NumClusters: 16, Seed: 9, Noise: 10,
		NList: 24, M: 8, CB: 64, BuildSeed: 4,
	}
	ixA, s := testutil.Fixture(t, spec)
	ixB, _ := testutil.Fixture(t, spec)
	rng := rand.New(rand.NewSource(11))
	for c := range ixB.Lists {
		ids, codes := ixB.Lists[c], ixB.Codes[c]
		rng.Shuffle(len(ids), func(i, j int) {
			ids[i], ids[j] = ids[j], ids[i]
			for k := 0; k < ixB.M; k++ {
				codes[i*ixB.M+k], codes[j*ixB.M+k] = codes[j*ixB.M+k], codes[i*ixB.M+k]
			}
		})
	}
	for name, set := range lcModes() {
		for _, ref := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s_ref=%v", name, ref), func(t *testing.T) {
				o := testOptions()
				o.EnableSplit, o.EnableDup = false, false // whole clusters: the same point sets per slice
				set(&o)
				run := func(ix *ivf.Index) (*Engine, *Result) {
					e := newEngine(t, ix, dataset.U8Set{}, o, ref)
					res, err := e.SearchBatch(s.Queries)
					if err != nil {
						t.Fatal(err)
					}
					return e, res
				}
				eA, rA := run(ixA)
				eB, rB := run(ixB)
				requireSameResults(t, rB, rA, "shuffled clusters")
				if !slices.Equal(eA.lc.bySlice, eB.lc.bySlice) {
					t.Fatal("cached demand changed with point order")
				}
				if a, b := lcStats(&rA.Metrics), lcStats(&rB.Metrics); a != b {
					t.Fatalf("LC charge changed with point order: %+v vs %+v", a, b)
				}
			})
		}
	}
}

// TestHeatProfileUsesEngineLocator: New profiles cluster heat with the
// locator live queries will hit, which is what the serial flat scan always
// produced.
func TestHeatProfileUsesEngineLocator(t *testing.T) {
	f := getFixture(t)
	o := testOptions()
	e, err := New(f.ix, f.s.Queries, o)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, f.ix.NList)
	for qi := 0; qi < f.s.Queries.N; qi++ {
		for _, p := range f.ix.LocateInt(f.s.Queries.Vec(qi), o.NProbe) {
			want[p.ID]++
		}
	}
	for c := range want {
		if e.freq[c] != want[c] {
			t.Fatalf("cluster %d profiled %v times, locator hits it %v times", c, e.freq[c], want[c])
		}
	}
}

// TestTaskCostCarriesLCTerm: the scheduler's heat estimate is the model per
// slice (requireFreshDemand), grows with the points scanned and the entries
// they read, prices a task at the share table's part of it once its query
// carries a bound, and is dominated by the LC build for the small slices of a
// high-nlist index (the cost the old DC+TS-only estimate ignored).
func TestTaskCostCarriesLCTerm(t *testing.T) {
	f := getFixture(t)
	e, err := New(f.ix, dataset.U8Set{}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	requireFreshDemand(t, e, "fresh deployment")
	m := float64(f.ix.M)
	need := func(n int) float64 { return m * perfmodel.LUTOccupancy(f.ix.CB, n) } // uniform codes
	for n := 2; n < 500; n++ {
		if free := e.modelTaskCycles(n, need(n)); free <= e.modelTaskCycles(n-1, need(n-1)) {
			t.Fatalf("%d points: price %v does not grow with the slice", n, free)
		}
	}
	dcts := 10 * (2*m + (m - 1) + 1 + float64(lockCycles)/8)
	if lc := e.modelTaskCycles(10, need(10)) - dcts; lc < 5*dcts {
		t.Fatalf("LC term %v does not dominate DC+TS %v on a 10-point slice", lc, dcts)
	}
	// What the scheduler is handed, task by task: the slice's model price for
	// a query without a bound, the table's share of it at the probe's ρ for
	// one with, and only the latter may be postponed.
	const bound = 12345
	cost := e.newLane(2, []uint32{math.MaxUint32, bound}).scfg.Cost
	for si := range e.pl.Slices {
		for _, dist := range []uint32{0, bound / 2, bound, 2 * bound, 100 * bound} {
			c, deferrable := cost(sched.Task{Query: 0, Slice: si, Dist: dist})
			if c != e.lc.heat[si] || c <= 0 || deferrable {
				t.Fatalf("slice %d, no bound: priced %v (deferrable=%v), model %v", si, c, deferrable, e.lc.heat[si])
			}
			c, deferrable = cost(sched.Task{Query: 1, Slice: si, Dist: dist})
			if want := e.lc.heat[si] * e.Share(dist, bound); c != want || c <= 0 || c >= e.lc.heat[si] || !deferrable {
				t.Fatalf("slice %d, ρ = %d/%d: priced %v (deferrable=%v), want %v", si, dist, bound, c, deferrable, want)
			}
		}
	}
}

// TestProbeCyclesTracksSimulator: the load estimate that levels DPUs and
// replicas — ProbeCycles summed over a batch's probe lists, each probe priced
// for what it is: a query's leading probes without a bound, the rest at their
// distance from the bound the leading ones produce — follows the simulator's
// LC+DC+TS instruction cycles for that batch within 8% on queries the share
// table never saw: each half of the query set is measured on an engine
// deployed with the other half as its profile, and the two together stand for
// the whole set. It is what the scheduler summed (PricedCycles). And it
// follows the corpus as it grows: with every list half again as long through
// live append segments, the estimate rises by what the simulator does, within
// 10%.
func TestProbeCyclesTracksSimulator(t *testing.T) {
	fix := getFixture(t)
	f := &fixture{s: fix.s, ix: cloneLists(fix.ix)} // the test inserts
	d, half := f.s.Queries.D, f.s.Queries.N/2
	halves := [2]dataset.U8Set{
		{N: half, D: d, Data: f.s.Queries.Data[:half*d]},
		{N: f.s.Queries.N - half, D: d, Data: f.s.Queries.Data[half*d:]},
	}
	measure := func(e *Engine, q dataset.U8Set) (est, sim float64) {
		// A query's bound when its later probes launch is the k-th distance
		// over its leading ones: search those alone.
		ps := e.loc.Probes(q)
		leads := ProbeSet{Offsets: []int32{0}}
		for qi := 0; qi < q.N; qi++ {
			lead := leadProbes(ps.Of(qi), e.opts.K, e.LiveLen)
			leads.Clusters, leads.Dists = append(leads.Clusters, ps.Of(qi)[:lead]...), append(leads.Dists, ps.DistsOf(qi)[:lead]...)
			leads.Offsets = append(leads.Offsets, int32(len(leads.Clusters)))
		}
		first, err := e.SearchBatchProbed(q, leads, false)
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < q.N; qi++ {
			bound := uint32(math.MaxUint32)
			if items := first.Items[qi]; len(items) == e.opts.K {
				bound = items[e.opts.K-1].Dist
			}
			lead := len(leads.Of(qi))
			for i, c := range ps.Of(qi) {
				if i < lead {
					est += e.ProbeCycles(c, ps.DistsOf(qi)[i], math.MaxUint32)
				} else {
					est += e.ProbeCycles(c, ps.DistsOf(qi)[i], bound)
				}
			}
		}
		res, err := e.SearchBatchProbed(q, ps, false)
		if err != nil {
			t.Fatal(err)
		}
		if priced := res.Metrics.PricedCycles; res.Metrics.Postponed == 0 && math.Abs(priced-est) > 1e-9*est {
			t.Fatalf("the scheduler priced its tasks at %v, their probes add up to %v", priced, est)
		}
		pc := res.Metrics.PhaseComputeCycles
		return est, float64(pc[upmem.PhaseLC] + pc[upmem.PhaseDC] + pc[upmem.PhaseTS])
	}
	var e *Engine
	var estAll, simAll float64
	for i, q := range halves {
		var err error
		if e, err = New(f.ix, halves[1-i], testOptions()); err != nil {
			t.Fatal(err)
		}
		est, sim := measure(e, q)
		estAll, simAll = estAll+est, simAll+sim
		t.Logf("half %d, profile the other half: estimate/simulated = %.3f", i, est/sim)
		if ratio := est / sim; ratio < 0.92 || ratio > 1.08 {
			t.Fatalf("half %d: estimate/simulated = %.3f, want within [0.92, 1.08]", i, ratio)
		}
	}
	if ratio := estAll / simAll; ratio < 0.92 || ratio > 1.08 {
		t.Fatalf("both halves: estimate/simulated = %.3f, want within [0.92, 1.08]", ratio)
	}

	// Every second point of every list again, under a new id: it lands in
	// its original's list, in the append segment.
	est0, sim0 := measure(e, halves[1])
	var vecs dataset.U8Set
	var ids []int32
	for _, list := range f.ix.Lists {
		for i := 0; i < len(list); i += 2 {
			vecs.Data = append(vecs.Data, f.s.Base.Vec(int(list[i]))...)
			ids = append(ids, int32(f.s.Base.N+len(ids)))
		}
	}
	vecs.N, vecs.D = len(ids), f.s.Base.D
	if err := e.Insert(vecs, ids); err != nil {
		t.Fatal(err)
	}
	requireFreshDemand(t, e, "after inserts")
	est1, sim1 := measure(e, halves[1])
	if growth := (est1 / est0) / (sim1 / sim0); sim1 < 1.15*sim0 || growth < 0.9 || growth > 1.1 {
		t.Fatalf("append segments grew the simulated cycles %.3fx and the estimate %.3fx", sim1/sim0, est1/est0)
	}
}

// cloneLists copies an index deeply enough to mutate it beside the shared
// fixture: the mutation overlay hangs off the copy, the packed lists and
// quantizers stay shared (inserts and deletes never write them).
func cloneLists(ix *ivf.Index) *ivf.Index {
	c := *ix
	return &c
}

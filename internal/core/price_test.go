package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"drimann/internal/dataset"
	"drimann/internal/durable"
	"drimann/internal/perfmodel"
	"drimann/internal/sched"
)

// TestShareTable: the table core.New measures is complete and non-increasing
// in ρ although the sample leaves bins empty — pooling fills them from their
// neighbours and conserves what was measured: priced at the table, the
// sample's bounded scans cost what the simulator charged them. It is a
// function of (index, profile, options): equal, bit for bit, across two New
// calls, on a replica, before and after Insert, and on an engine recovered
// from a snapshot plus a replayed WAL. Without a profile every bin is the flat
// share perfmodel predicts.
func TestShareTable(t *testing.T) {
	ix, s, base := mutFixture(t)
	opts := testOptions()
	e, err := New(ix, s.Queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	share := e.lc.share
	t.Logf("share table %.3f", share)
	for b, v := range share {
		if v <= 0 || v > 1.5 || (b > 0 && v > share[b-1]) {
			t.Fatalf("share table %.3f: bin %d is not a share, or rises", share, b)
		}
	}
	if share[0] == share[ShareBins-1] {
		t.Fatalf("share table %.3f is flat: nothing was measured", share)
	}

	// The sample again, by hand: the raw bins have holes, the table prices
	// their sum right.
	rep, err := NewReplica(e)
	if err != nil {
		t.Fatal(err)
	}
	var scans []ScanSample
	rep.RecordScans(&scans)
	sample := s.Queries
	sample.N = min(sample.N, opts.BatchSize)
	if _, err := rep.SearchBatch(sample); err != nil {
		t.Fatal(err)
	}
	var filled [ShareBins]bool
	var cycles, priced float64
	for _, sm := range scans {
		if sm.Bound != math.MaxUint32 {
			b := ShareBin(sm.Dist, sm.Bound)
			filled[b] = true
			cycles, priced = cycles+sm.Cycles, priced+sm.Price*share[b]
		}
	}
	if !slices.Contains(filled[:], false) || !slices.Contains(filled[:], true) {
		t.Fatalf("sample fills bins %v: the test wants some empty and some not", filled)
	}
	if math.Abs(priced-cycles) > 1e-9*cycles {
		t.Fatalf("the sample's bounded scans cost %v cycles, the table prices them at %v", cycles, priced)
	}

	again, err := New(ix, s.Queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	if again.lc.share != share || rep.lc.share != share {
		t.Fatalf("share table differs: New %.3f, New again %.3f, replica %.3f", share, again.lc.share, rep.lc.share)
	}

	// Mutations re-price slices, never the table; recovery re-measures it.
	fs := durable.NewMemFS(durable.FaultPlan{})
	st, err := e.CreateStore(durable.Options{Dir: "eng", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	h := &durableHarness{t: t, e: e, st: st, dim: s.Base.D}
	for id := base; id < base+40; id++ {
		h.insert(dataset.U8Set{N: 1, D: s.Base.D, Data: s.Base.Vec(id)}, []int32{int32(id)})
	}
	h.delete([]int32{3, int32(base + 7)})
	if e.lc.share != share {
		t.Fatalf("Insert/Delete moved the share table: %.3f, was %.3f", e.lc.share, share)
	}
	recovered, _, err := Recover(durable.Options{Dir: "eng", FS: fs}, s.Queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.lc.share != share {
		t.Fatalf("recovered share table %.3f, the live engine's %.3f", recovered.lc.share, share)
	}

	bare, err := New(getFixture(t).ix, dataset.U8Set{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range bare.lc.share {
		if v != perfmodel.BoundedShare(bare.ix.M) {
			t.Fatalf("no profile: share table %.3f, want %.3f in every bin", bare.lc.share, perfmodel.BoundedShare(bare.ix.M))
		}
	}
	if c, _ := bare.newLane(1, []uint32{1000}).scfg.Cost(sched.Task{Dist: 1}); c != bare.lc.heat[0]*perfmodel.BoundedShare(bare.ix.M) {
		t.Fatalf("no profile: a bounded task over slice 0 costs %v of its no-prune %v", c, bare.lc.heat[0])
	}
}

// TestMeasuredShareLevelsLaunches: what the measurement buys, on one layout.
// The same engine answers the half of the queries its profile did not hold
// under the table it measured and under perfmodel's flat share in every bin —
// what it would charge had it been deployed without a profile: the answers
// are the same, the measured table's launches are no less level and no later
// done (16 DPUs and 32 queries leave little to level: the benchmark's numbers
// are in CHANGES), and its summed price is the one that lands on the cycles.
func TestMeasuredShareLevelsLaunches(t *testing.T) {
	f := getFixture(t)
	d, half := f.s.Queries.D, f.s.Queries.N/2
	e, err := New(f.ix, dataset.U8Set{N: half, D: d, Data: f.s.Queries.Data[:half*d]}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	heldOut := dataset.U8Set{N: f.s.Queries.N - half, D: d, Data: f.s.Queries.Data[half*d:]}
	measured, err := e.SearchBatch(heldOut)
	if err != nil {
		t.Fatal(err)
	}
	for b := range e.lc.share {
		e.lc.share[b] = perfmodel.BoundedShare(e.ix.M)
	}
	flat, err := e.SearchBatch(heldOut)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range measured.Items {
		if !slices.Equal(measured.Items[qi], flat.Items[qi]) {
			t.Fatalf("query %d: the share table changed the answer", qi)
		}
	}
	m, fm := &measured.Metrics, &flat.Metrics
	t.Logf("imbalance %.3f measured, %.3f flat; sim QPS %.0f, %.0f; price/cycles %.3f, %.3f", m.AvgImbalance(), fm.AvgImbalance(), m.QPS, fm.QPS, m.PriceRatio(), fm.PriceRatio())
	if m.AvgImbalance() > fm.AvgImbalance() || m.QPS < fm.QPS {
		t.Fatalf("measured table: imbalance %.3f, %.0f sim q/s; flat share: %.3f, %.0f", m.AvgImbalance(), m.QPS, fm.AvgImbalance(), fm.QPS)
	}
	if off, flatOff := math.Abs(m.PriceRatio()-1), math.Abs(fm.PriceRatio()-1); off > 0.05 || flatOff < 2*off {
		t.Fatalf("price/simulated cycles %.3f under the measured table, %.3f under the flat share: the fixture does not tell them apart", m.PriceRatio(), fm.PriceRatio())
	}
}

// searchPriced is Engine.SearchBatch with the scheduler's price hook replaced.
func searchPriced(e *Engine, queries dataset.U8Set, price func(t sched.Task, bound uint32) (float64, bool)) *Result {
	st := NewSteps(queries, [][]*Engine{{e}}, nil, e.loc)
	st.lanes[0].scfg.Cost = func(t sched.Task) (float64, bool) { return price(t, st.bounds[t.Query]) }
	ps := e.loc.Probes(queries)
	for lo := 0; lo < queries.N; lo += e.opts.BatchSize {
		for qi := lo; qi < min(lo+e.opts.BatchSize, queries.N); qi++ {
			st.Cut(qi, ps.Of(qi), ps.DistsOf(qi), func(int32) []int32 { return []int32{0} })
		}
		st.Step(0)
	}
	return st.Finish(0)
}

// TestPriceNeverChangesAnswers: a price decides which copy of a slice scans
// and in which launch, nothing else. Under a price of zero, a random one and
// the true one turned upside down — each also lying about which tasks may be
// postponed — every answer over the staged-scan option matrix equals the
// one-heap reference, while the schedules really differ.
func TestPriceNeverChangesAnswers(t *testing.T) {
	f := getFixture(t)
	for _, sqt := range []bool{false, true} {
		for _, wram := range []bool{false, true} {
			o := testOptions()
			o.BatchSize, o.Th3 = 16, 1.05
			o.UseSQT, o.UseWRAM = sqt, wram
			e, err := New(f.ix, f.s.Queries, o)
			if err != nil {
				t.Fatal(err)
			}
			honest, err := e.SearchBatch(f.s.Queries)
			if err != nil {
				t.Fatal(err)
			}
			probes := e.loc.Probes(f.s.Queries)
			for name, price := range map[string]func(sched.Task, uint32) (float64, bool){
				"zero": func(sched.Task, uint32) (float64, bool) { return 0, true },
				"random": func(task sched.Task, _ uint32) (float64, bool) {
					h := uint32(task.Query)*2654435761 ^ uint32(task.Slice)*40503
					return float64(h % 1000), h&1024 == 0
				},
				"inverted": func(task sched.Task, bound uint32) (float64, bool) {
					return 1e12 / (1 + e.lc.heat[task.Slice]*e.Share(task.Dist, bound)), bound == math.MaxUint32
				},
			} {
				label := fmt.Sprintf("sqt=%v wram=%v, %s price", sqt, wram, name)
				got := searchPriced(e, f.s.Queries, price)
				for qi := 0; qi < f.s.Queries.N; qi++ {
					if want := oneHeap(f.ix, f.s.Queries.Vec(qi), probes.Of(qi), o.K); !slices.Equal(got.Items[qi], want) {
						t.Fatalf("%s: query %d:\n got %v\nwant %v", label, qi, got.Items[qi], want)
					}
				}
				if g, h := &got.Metrics, &honest.Metrics; g.PointsScanned != h.PointsScanned || g.PricedCycles == h.PricedCycles {
					t.Fatalf("%s: scanned %d points (honest price: %d) at a priced total of %v (%v)", label, g.PointsScanned, h.PointsScanned, g.PricedCycles, h.PricedCycles)
				}
			}
		}
	}
}

package ivf

import (
	"fmt"
	"math"

	"drimann/internal/dataset"
	"drimann/internal/kmeans"
	"drimann/internal/topk"
	"drimann/internal/vecmath"
)

// TreeCL is a two-level hierarchical cluster locator: an upper k-means
// layer over the IVF centroids. Instead of scanning all nlist centroids,
// cluster locating descends into the best beam upper nodes and scans only
// their children — the paper's §6 extension point ("easy adaptation to
// other cluster-based ANNS methods by replacing CPU-side CL while reusing
// the PIM-DIMM acceleration for CS").
type TreeCL struct {
	Dim    int
	Branch int       // upper-layer node count
	Upper  []float32 // Branch x Dim upper centroids
	// Children[b] lists the IVF cluster ids routed to upper node b.
	Children [][]int32
}

// BuildTreeCL clusters the index's coarse centroids into branch upper nodes.
func (ix *Index) BuildTreeCL(branch int, seed int64) (*TreeCL, error) {
	if branch < 2 || branch >= ix.NList {
		return nil, fmt.Errorf("ivf: tree branch %d must be in [2, nlist)", branch)
	}
	res, err := kmeans.Train(ix.Centroids, kmeans.Config{
		K: branch, Dim: ix.Dim, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("ivf: tree CL: %w", err)
	}
	t := &TreeCL{
		Dim: ix.Dim, Branch: branch,
		Upper:    res.Centroids,
		Children: make([][]int32, branch),
	}
	for c, b := range res.Assign {
		t.Children[b] = append(t.Children[b], int32(c))
	}
	return t, nil
}

// Locate returns the nprobe nearest IVF clusters found by descending the
// beam best upper nodes. beam trades CL cost for probe quality; a beam of
// ~sqrt(branch) is a reasonable default (0 uses that).
func (t *TreeCL) Locate(ix *Index, query []uint8, nprobe, beam int) []topk.Item[uint32] {
	sc := newTreeScratch(t, nprobe, beam)
	t.locateInto(ix, query, sc)
	return sc.h.Sorted()
}

// treeScratch is the per-worker reusable state of one tree descent: the
// widened query, the upper-layer beam heap and its sorted view, and the
// leaf-layer probe heap.
type treeScratch struct {
	beam  int
	qf    []float32
	upper *topk.Heap[float32]
	ubuf  []topk.Item[float32]
	h     *topk.Heap[uint32]
}

func (t *TreeCL) effectiveBeam(beam int) int {
	if beam <= 0 {
		beam = int(math.Sqrt(float64(t.Branch))) + 1
	}
	if beam > t.Branch {
		beam = t.Branch
	}
	return beam
}

func newTreeScratch(t *TreeCL, nprobe, beam int) *treeScratch {
	beam = t.effectiveBeam(beam)
	return &treeScratch{
		beam:  beam,
		qf:    make([]float32, t.Dim),
		upper: topk.NewHeap[float32](beam),
		ubuf:  make([]topk.Item[float32], 0, beam),
		h:     topk.NewHeap[uint32](nprobe),
	}
}

// locateInto runs one descent, leaving the probes in sc.h.
func (t *TreeCL) locateInto(ix *Index, query []uint8, sc *treeScratch) {
	vecmath.U8ToF32(sc.qf, query)

	sc.upper.Reset()
	for b := 0; b < t.Branch; b++ {
		d := vecmath.L2SquaredF32(sc.qf, t.Upper[b*t.Dim:(b+1)*t.Dim])
		if sc.upper.WouldAccept(int32(b), d) {
			sc.upper.Push(int32(b), d)
		}
	}

	sc.h.Reset()
	sc.ubuf = sc.upper.SortedInto(sc.ubuf)
	for _, un := range sc.ubuf {
		for _, c := range t.Children[un.ID] {
			d := vecmath.L2SquaredU8(query, ix.CentroidU8(int(c)))
			if sc.h.WouldAccept(c, d) {
				sc.h.Push(c, d)
			}
		}
	}
}

// LocateBatch is the tree locator's batched CL stage: probes for
// queries[lo:hi) are computed across workers goroutines (0 = GOMAXPROCS) and
// written into the same flat layout as Index.LocateBatch. Results are
// identical to per-query Locate calls; each worker reuses one descent
// scratch, so no per-query allocation occurs.
func (t *TreeCL) LocateBatch(ix *Index, queries dataset.U8Set, lo, hi, nprobe, beam, workers int, out []topk.Item[uint32], counts []int) {
	forEachChunk(lo, hi, workers, func(wlo, whi int) {
		sc := newTreeScratch(t, nprobe, beam)
		for qi := wlo; qi < whi; qi++ {
			t.locateInto(ix, queries.Vec(qi), sc)
			base := (qi - lo) * nprobe
			dst := out[base : base : base+nprobe]
			counts[qi-lo] = len(sc.h.SortedInto(dst))
		}
	})
}

// CentroidsScanned reports how many distance computations one Locate costs
// on average (upper scan + expected children of the beam), the quantity the
// host CL cost model uses.
func (t *TreeCL) CentroidsScanned(beam int) int {
	if beam <= 0 {
		beam = int(math.Sqrt(float64(t.Branch))) + 1
	}
	if beam > t.Branch {
		beam = t.Branch
	}
	total := 0
	for _, ch := range t.Children {
		total += len(ch)
	}
	avgChildren := total / t.Branch
	return t.Branch + beam*avgChildren
}

// SearchIntTree is SearchInt with the tree locator in place of the flat
// centroid scan.
func (ix *Index) SearchIntTree(t *TreeCL, query []uint8, nprobe, beam, k int) []topk.Item[uint32] {
	probes := t.Locate(ix, query, nprobe, beam)
	return ix.searchIntProbes(query, probes, k)
}

// searchIntProbes runs RC/LC/DC/TS over an explicit probe list.
func (ix *Index) searchIntProbes(query []uint8, probes []topk.Item[uint32], k int) []topk.Item[uint32] {
	res := make([]int16, ix.Dim)
	lut := make([]uint32, ix.M*ix.CB)
	h := topk.NewHeap[uint32](k)
	for _, p := range probes {
		c := int(p.ID)
		vecmath.SubI16(res, query, ix.CentroidU8(c))
		ix.IntCB.LUTInt(res, lut, ix.SQT)
		ids := ix.Lists[c]
		codes := ix.Codes[c]
		for i, id := range ids {
			d := vecmath.ADCU32(lut, codes[i*ix.M:(i+1)*ix.M], ix.CB)
			if h.WouldAccept(id, d) {
				h.Push(id, d)
			}
		}
	}
	return h.Sorted()
}

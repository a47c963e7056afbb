package ivf

import (
	"sync"

	"drimann/internal/vecmath"
)

// LUTBuilder is the wall-clock-optimized host implementation of the LC
// kernel: its terms give every distance LUT entry bit-identical to
// IntCodebooks.LUTInt / LUTIntMul while doing ~6-8x less arithmetic per
// (query, cluster) pair.
//
// It exploits the algebraic decomposition of the squared distance between a
// residual subvector r = q - c and a codebook entry e:
//
//	Σ_j (q_j - c_j - e_j)²  =  [Σ q_j² - 2 Σ q_j c_j]  (per query+cluster, Dim ops)
//	                         + [Σ (c_j + e_j)²]        (per cluster, precomputed)
//	                         - 2 [Σ q_j e_j]           (per query, amortized over clusters)
//
// The middle term is a per-index table built once at engine deployment; the
// last term is computed once per query and reused for every cluster that
// query probes in a launch. Each bracket is kept per subspace (SubTerms,
// ClusterTerms, BuildQE), so one LUT entry is p_m + b_c[m][e] - 2 qe[m][e] and
// a scan can sum any subset of a point's subspaces — the partial distances
// the engine's staged scan prunes on — without materializing a LUT. This is
// the simulator's *functional* computation only: what the simulated DPU is
// charged for is decided by the engine's LC kernel (core: per stage, mark the
// entries the surviving points' codes reference, build just those with the
// multiplier-less SQT arithmetic of Equations 6-7), which is independent of
// how the host obtains the bit-identical LUT values.
//
// All arithmetic is int32-exact: operands are bounded by |c_j + e_j| <= 510
// and dsub <= 4096, keeping every partial sum far below overflow.
type LUTBuilder struct {
	ix   *Index
	dsub int
	// b[(c*M+m)*CB+e] = Σ_j (centroid_c[m*dsub+j] + entry_{m,e}[j])², laid
	// out per cluster exactly like the LUT.
	b []int32
}

// lutBuilderBudgetBytes caps the precomputed table; past it (huge NList*CB
// products) callers fall back to direct LUTInt construction.
const lutBuilderBudgetBytes = 512 << 20

// NewLUTBuilder precomputes the per-cluster term across workers goroutines
// (0 = serial). It returns nil when the table would exceed the memory
// budget; callers must then use IntCodebooks.LUTInt directly.
func (ix *Index) NewLUTBuilder(workers int) *LUTBuilder {
	m, cb := ix.M, ix.CB
	dsub := ix.Dim / m
	entries := ix.NList * m * cb
	if entries <= 0 || entries > lutBuilderBudgetBytes/4 {
		return nil
	}
	lb := &LUTBuilder{ix: ix, dsub: dsub, b: make([]int32, entries)}
	var wg sync.WaitGroup
	chunk := (ix.NList + max(workers, 1) - 1) / max(workers, 1)
	for lo := 0; lo < ix.NList; lo += chunk {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := lo; c < min(lo+chunk, ix.NList); c++ {
				lb.fillCluster(c)
			}
		}()
	}
	wg.Wait()
	return lb
}

// Bytes reports the precomputed table's footprint (0 for a nil builder).
func (lb *LUTBuilder) Bytes() int64 {
	if lb == nil {
		return 0
	}
	return int64(len(lb.b)) * 4
}

func (lb *LUTBuilder) fillCluster(c int) {
	ix, m, cb, dsub := lb.ix, lb.ix.M, lb.ix.CB, lb.dsub
	cent := ix.CentroidU8(c)
	for mi := 0; mi < m; mi++ {
		csub := cent[mi*dsub : (mi+1)*dsub]
		rows := ix.IntCB.Data[mi*cb*dsub : (mi+1)*cb*dsub]
		out := lb.b[(c*m+mi)*cb : (c*m+mi+1)*cb]
		for e := range out {
			row := rows[e*dsub : (e+1)*dsub : (e+1)*dsub]
			var s int32
			for j, cv := range csub {
				t := int32(cv) + int32(row[j])
				s += t * t
			}
			out[e] = s
		}
	}
}

// BuildQE fills qe (length M*CB) with the per-query gather table of the
// decomposition: qe[m*CB+e] = Σ_j q_j * entry_{m,e}[j]. Together with the
// precomputed per-cluster point sums (ClusterADCSums) and the per-(query,
// cluster) scalar (PTerm), it lets a DC kernel evaluate exact LUT sums
// point-by-point without materializing any per-group LUT — see
// vecmath.ADCResidualBatch for the identity.
func (lb *LUTBuilder) BuildQE(query []uint8, qe []int32) {
	ix, m, cb, dsub := lb.ix, lb.ix.M, lb.ix.CB, lb.dsub
	for mi := 0; mi < m; mi++ {
		sub := query[mi*dsub : (mi+1)*dsub]
		rows := ix.IntCB.Data[mi*cb*dsub : (mi+1)*cb*dsub]
		out := qe[mi*cb : (mi+1)*cb]
		if dsub == 8 { // the dominant shape (e.g. 128d / M=16), at SIMD width
			vecmath.DotRows8(out, rows, (*[8]uint8)(sub))
			continue
		}
		for e := range out {
			row := rows[e*dsub : (e+1)*dsub : (e+1)*dsub]
			var s int32
			for j, q := range sub {
				s += int32(q) * int32(row[j])
			}
			out[e] = s
		}
	}
}

// PTerm returns the per-(query, cluster) scalar of the decomposition summed
// over all M subspaces: Σ_j q_j² - 2 Σ_j q_j c_j. Adding it to a point's
// ClusterADCSums entry minus twice its BuildQE gathers reproduces, exactly,
// the point's distance summed over the LUT LUTInt builds for the pair (all
// partial sums stay far below int32 overflow, so the grouping of terms is
// free).
func (lb *LUTBuilder) PTerm(query []uint8, cluster int) int32 {
	return vecmath.DotU8I32(query, query) - 2*vecmath.DotU8I32(query, lb.ix.CentroidU8(cluster))
}

// SubTerms fills p (length M) with the per-(query, cluster) term of the
// decomposition, one value per subspace: p[m] = Σ_j q_j² - 2 Σ_j q_j c_j over
// the subspace's dsub dimensions. PTerm is their sum.
func (lb *LUTBuilder) SubTerms(query []uint8, cluster int, p []int32) {
	cent := lb.ix.CentroidU8(cluster)
	for mi := range p {
		sub := query[mi*lb.dsub : (mi+1)*lb.dsub]
		csub := cent[mi*lb.dsub : (mi+1)*lb.dsub]
		p[mi] = vecmath.DotU8I32(sub, sub) - 2*vecmath.DotU8I32(sub, csub)
	}
}

// ClusterTerms returns cluster c's static per-entry term of the
// decomposition, b_c[m*CB+e] = Σ_j (c_j + entry_{m,e}[j])² (a view of the
// precomputed table, laid out like a LUT). With SubTerms and BuildQE it
// yields any single LUT entry: p[m] + b_c[m*CB+e] - 2 qe[m*CB+e].
func (lb *LUTBuilder) ClusterTerms(c int) []int32 {
	n := lb.ix.M * lb.ix.CB
	return lb.b[c*n : (c+1)*n : (c+1)*n]
}

// ClusterADCSums fills dst[i] = Σ_m b_c[m][code_im] over the cluster's
// packed code matrix — the static per-point term of the decomposition,
// computable once per index deployment because it depends only on the
// cluster centroid and the codebook.
func (lb *LUTBuilder) ClusterADCSums(c int, codes []uint16, dst []int32) {
	m, cb := lb.ix.M, lb.ix.CB
	bc := lb.b[c*m*cb : (c+1)*m*cb]
	for i := range dst {
		code := codes[i*m : (i+1)*m]
		var s int32
		for mi, e := range code {
			s += bc[mi*cb+int(e)]
		}
		dst[i] = s
	}
}

//go:build !amd64 || purego

package vecmath

// l2f32x8 is L2SquaredF32x8's scalar kernel: one L2SquaredF32Abandon a row.
func l2f32x8(dist *[8]float32, rows, v []float32, bound *[8]float32) {
	for r := range dist {
		dist[r], _ = L2SquaredF32Abandon(rows[r*len(v):][:len(v)], v, bound[r])
	}
}

// argMin8T is ArgMinL2F32T's scalar kernel: row r of block b, summed in
// dimension order, replaces dist[r] and blk[r] when strictly below dist[r].
func argMin8T(dist *[8]float32, blk *[8]int32, ct, q []float32) {
	for i := range len(ct) / len(q) {
		b, r := i/8, i%8
		var sum float32
		for j, qv := range q {
			d := ct[(b*len(q)+j)*8+r] - qv
			sum += d * d
		}
		if sum < dist[r] {
			dist[r], blk[r] = sum, int32(b)
		}
	}
}

//go:build !purego

package vecmath

import (
	"os"
	"strings"
)

// useAVX2 selects the AVX2 kernels of the three assembly files, once:
// the CPU and OS support AVX2 (hasAVX2) and GODEBUG does not turn it off.
// Tests clear it to run the scalar twins on an AVX2 host.
var useAVX2 = hasAVX2() && !avx2Off(os.Getenv("GODEBUG"))

// avx2Off reports whether GODEBUG turns AVX2 off for Go, its last say
// winning, as the runtime reads it: cpu.avx2=off or cpu.all=off.
func avx2Off(godebug string) bool {
	off := false
	for _, kv := range strings.Split(godebug, ",") {
		switch kv {
		case "cpu.avx2=off", "cpu.all=off":
			off = true
		case "cpu.avx2=on", "cpu.all=on":
			off = false
		}
	}
	return off
}

func argMin8T(dist *[8]float32, blk *[8]int32, ct, q []float32) {
	if useAVX2 {
		argMin8TAVX2(dist, blk, ct, q)
	} else {
		argMin8TGo(dist, blk, ct, q)
	}
}

func minL2F32T(d2, pt, v []float32) {
	if useAVX2 {
		minL2F32TAVX2(d2, pt, v)
	} else {
		minL2F32TGo(d2, pt, v)
	}
}

// hasAVX2 asks CPUID and XGETBV (l2f32_amd64.s).
func hasAVX2() bool

// argMin8TAVX2 is ArgMinL2F32T's AVX2 kernel (l2f32_amd64.s).
//
//go:noescape
func argMin8TAVX2(dist *[8]float32, blk *[8]int32, ct, q []float32)

// minL2F32TAVX2 is MinL2F32T's AVX2 kernel (l2f32_amd64.s).
//
//go:noescape
func minL2F32TAVX2(d2, pt, v []float32)

// dotRows8AVX2 is DotRows8's AVX2 kernel (dot8_amd64.s).
//
//go:noescape
func dotRows8AVX2(out []int32, rows []int16, q *[8]uint8)

// l2u8RowsAVX2 is L2U8Rows.Run's AVX2 kernel over whole blocks (l2u8_amd64.s).
//
//go:noescape
func l2u8RowsAVX2(sums []uint32, q, base []uint8, off *[8]int, bound, first *[8]uint32) (blocks int)

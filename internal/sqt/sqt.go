// Package sqt implements the squaring lookup tables (SQTs) of DRIM-ANN's
// multiplier-less conversion (paper §3.1). UPMEM DPUs have no hardware
// multiplier, so a multiplication costs ~32 add-equivalent cycles; the L2
// kernels only ever square values, so a table indexed by |a-b| replaces each
// multiplication with one absolute value and one load, losslessly.
//
// Two variants exist, matching the paper:
//
//   - SQT8: operands are differences of 8-bit-quantized values, so |d| <= 510
//     and the full table (511 x 4 B ≈ 2 KB) fits in WRAM.
//   - SQT16: operands are differences of 16-bit-quantized values; the full
//     table would be 256 KB, far beyond the 64 KB WRAM, so a hot window of
//     small magnitudes lives in WRAM and the cold remainder in MRAM. Because
//     squaring operands are residuals, their magnitudes concentrate near
//     zero, and the hot window absorbs most lookups.
package sqt

// MaxDiff8 is the largest |a-b| when a and b are differences of two
// uint8-quantized values (residual minus codebook entry, both in
// [-255, 255]).
const MaxDiff8 = 510

// SQT8 is a full squaring table for the 8-bit quantization mode.
type SQT8 struct {
	table [MaxDiff8 + 1]uint32
}

// NewSQT8 builds the full 8-bit-mode squaring table.
func NewSQT8() *SQT8 {
	t := &SQT8{}
	for d := 0; d <= MaxDiff8; d++ {
		t.table[d] = uint32(d * d)
	}
	return t
}

// Square returns d*d via table lookup. d must be in [-MaxDiff8, MaxDiff8].
func (t *SQT8) Square(d int32) uint32 {
	if d < 0 {
		d = -d
	}
	return t.table[d]
}

// SizeBytes reports the table footprint, which must fit WRAM.
func (t *SQT8) SizeBytes() int { return len(t.table) * 4 }

// Stats carries hot/cold access counts for the tiered 16-bit table; the
// memory subsystem of the simulator charges WRAM cost for hits and an MRAM
// DMA for misses.
type Stats struct {
	Hot  uint64 // lookups served from the WRAM-resident window
	Cold uint64 // lookups that had to touch the MRAM-resident remainder
}

// SQT16 is the tiered squaring table for the 16-bit quantization mode.
type SQT16 struct {
	hot     []uint32 // squares of 0..hotMax-1, WRAM resident
	hotMax  int32
	maxDiff int32
	stats   Stats
}

// NewSQT16 builds a tiered table. hotEntries is the number of magnitudes
// resident in WRAM (e.g. 8192 entries = 32 KB); maxDiff bounds the operand
// domain (for 16-bit quantization differences, up to 131070).
func NewSQT16(hotEntries int, maxDiff int32) *SQT16 {
	if hotEntries < 1 {
		panic("sqt: hotEntries must be >= 1")
	}
	if int32(hotEntries) > maxDiff+1 {
		hotEntries = int(maxDiff + 1)
	}
	t := &SQT16{
		hot:     make([]uint32, hotEntries),
		hotMax:  int32(hotEntries),
		maxDiff: maxDiff,
	}
	for d := range t.hot {
		t.hot[d] = uint32(d) * uint32(d)
	}
	return t
}

// Square returns d*d. The boolean reports whether the lookup hit the
// WRAM-resident hot window; cold lookups are still lossless (the MRAM
// remainder holds exact squares, modeled here by direct computation) but
// cost an MRAM access in the simulator.
func (t *SQT16) Square(d int32) (uint32, bool) {
	if d < 0 {
		d = -d
	}
	if d > t.maxDiff {
		panic("sqt: operand outside table domain")
	}
	if d < t.hotMax {
		t.stats.Hot++
		return t.hot[d], true
	}
	t.stats.Cold++
	return uint32(d) * uint32(d), false
}

// CountColdRow replays the |res[j]-entry[j]| diff stream of one codebook row
// against the tiered table, accumulating hot/cold statistics once per row
// instead of once per element, and returns the number of cold (MRAM-tier)
// lookups. It is the batched twin of calling Square per element: the counters
// end up identical, but the per-element closure of (abs, tier test, counter
// read-modify-write) collapses into a branchless scan, which matters because
// the engine replays every built LUT entry's row per LUT build. res and
// entry must have equal length.
func (t *SQT16) CountColdRow(res, entry []int16) uint64 {
	cold := t.ColdCountRow(res, entry)
	t.stats.Hot += uint64(len(res)) - cold
	t.stats.Cold += cold
	return cold
}

// ColdCountRow is the stats-free twin of CountColdRow: it replays the
// |res[j]-entry[j]| diff stream and returns the cold-lookup count without
// touching the hit/miss counters. It only reads the table's geometry, so
// concurrent calls on a shared table are safe. This is the hook for engines
// that run many DPUs with identically-shaped tables: the replay runs against
// one shared table, and the returned count is applied to the DPU's own table
// arithmetically via AddStats — exactly the statistics a private per-DPU
// replay would accumulate.
func (t *SQT16) ColdCountRow(res, entry []int16) uint64 {
	var cold uint64
	hotMax, maxDiff := t.hotMax, t.maxDiff
	for j, r := range res {
		d := int32(r) - int32(entry[j])
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			panic("sqt: operand outside table domain")
		}
		if d >= hotMax {
			cold++
		}
	}
	return cold
}

// AddStats credits pre-counted hot and cold lookups to the table's
// counters, the arithmetic twin of replaying the same diff stream against
// this table. Callers must only apply counts obtained from a table with the
// same geometry (see Geometry).
func (t *SQT16) AddStats(hot, cold uint64) {
	t.stats.Hot += hot
	t.stats.Cold += cold
}

// Geometry returns the parameters that determine hot/cold classification:
// the WRAM-resident entry count and the operand domain bound. Two tables
// with equal geometry classify every lookup identically, which is the
// invariant behind the shared-table replay (ColdCountRow + AddStats).
func (t *SQT16) Geometry() (hotEntries int, maxDiff int32) {
	return int(t.hotMax), t.maxDiff
}

// Stats returns the accumulated hot/cold counters.
func (t *SQT16) Stats() Stats { return t.stats }

// ResetStats zeroes the counters.
func (t *SQT16) ResetStats() { t.stats = Stats{} }

// HotSizeBytes reports the WRAM-resident footprint.
func (t *SQT16) HotSizeBytes() int { return len(t.hot) * 4 }

// ColdSizeBytes reports the MRAM-resident footprint.
func (t *SQT16) ColdSizeBytes() int {
	cold := int(t.maxDiff+1) - len(t.hot)
	if cold < 0 {
		cold = 0
	}
	return cold * 4
}

// HitRate returns the fraction of lookups served by the hot window, or 1 if
// no lookups have occurred.
func (t *SQT16) HitRate() float64 {
	total := t.stats.Hot + t.stats.Cold
	if total == 0 {
		return 1
	}
	return float64(t.stats.Hot) / float64(total)
}

// Live index mutability: per-cluster append segments plus tombstone sets
// layered over the packed inverted lists (an LSM-flavored overlay). Inserts
// PQ-encode against the frozen quantizers (coarse centroids and codebooks
// are never retrained) and land in the owning cluster's append segment;
// deletes tombstone base-list entries in place, or drop append
// entries directly. Compact folds both back into the packed Lists/Codes
// arenas — only for clusters that actually changed — restoring the exact
// layout Build would have produced over the same logical corpus.
//
// Mutations are NOT safe concurrently with each other or with searches over
// the same Index; callers (the core engine, the serve batcher) serialize
// them at launch boundaries.

package ivf

import (
	"encoding/binary"
	"fmt"
	"sort"

	"drimann/internal/dataset"
	"drimann/internal/vecmath"
)

// mutState is the mutation overlay. It is created lazily on the first
// Insert/Delete and discarded whole by Compact.
type mutState struct {
	appendIDs   [][]int32        // per cluster: ids appended since last compaction
	appendCodes [][]uint16       // per cluster: their PQ codes, M entries each
	tomb        []map[int32]bool // per cluster: deleted BASE-list ids only
	where       map[int32]int32  // live id -> owning cluster
	nAppend     int
	nTomb       int
	esc         *EncodeScratch
}

// EncodeScratch carries the float buffers AssignVec/EncodeVec need. One
// scratch serves one goroutine.
type EncodeScratch struct {
	f32 []float32
	res []float32
}

// NewEncodeScratch allocates a scratch sized for this index.
func (ix *Index) NewEncodeScratch() *EncodeScratch {
	return &EncodeScratch{f32: make([]float32, ix.Dim), res: make([]float32, ix.Dim)}
}

func (ix *Index) ensureMut() *mutState {
	if m := ix.mut; m != nil {
		return m
	}
	m := &mutState{
		appendIDs:   make([][]int32, ix.NList),
		appendCodes: make([][]uint16, ix.NList),
		tomb:        make([]map[int32]bool, ix.NList),
		where:       make(map[int32]int32),
		esc:         ix.NewEncodeScratch(),
	}
	for c, list := range ix.Lists {
		for _, id := range list {
			m.where[id] = int32(c)
		}
	}
	ix.mut = m
	return m
}

// AssignVec returns the nearest-centroid cluster of one uint8 vector under
// the float centroids. It is Build's own assignment: Build runs every corpus
// vector through it, so an inserted vector lands where a build would put it.
func (ix *Index) AssignVec(vec []uint8, sc *EncodeScratch) int32 {
	vecmath.U8ToF32(sc.f32, vec)
	c, _ := vecmath.ArgMinL2F32T(sc.f32, ix.centroidsT, ix.Dim)
	return int32(c)
}

// EncodeVec PQ-encodes one uint8 vector against cluster c's centroid with
// the frozen quantizers (SubF32 residual, per-subspace ArgMin encode),
// writing M code entries into code. It is Build's own encoder, so a vector
// inserted then compacted carries the code a fresh Build would give it.
func (ix *Index) EncodeVec(vec []uint8, c int32, code []uint16, sc *EncodeScratch) {
	vecmath.U8ToF32(sc.f32, vec)
	vecmath.SubF32(sc.res, sc.f32, ix.Centroids[int(c)*ix.Dim:(int(c)+1)*ix.Dim])
	ix.PQ.Encode(sc.res, code)
}

// Insert adds one vector under id: assign to the nearest centroid, encode
// with the frozen quantizers, append to that cluster's segment. The id must
// not be live; delete first to replace (the delete-then-reinsert sequence is
// well-defined even for base-list ids — the old copy stays tombstoned while
// the new one serves from the append segment).
func (ix *Index) Insert(id int32, vec []uint8) (int32, error) {
	if len(vec) != ix.Dim {
		return 0, fmt.Errorf("ivf: insert vector has dim %d, index has %d", len(vec), ix.Dim)
	}
	if id < 0 {
		return 0, fmt.Errorf("ivf: insert id %d negative", id)
	}
	m := ix.ensureMut()
	if _, ok := m.where[id]; ok {
		return 0, fmt.Errorf("ivf: id %d already present (delete it first)", id)
	}
	c := ix.AssignVec(vec, m.esc)
	off := len(m.appendCodes[c])
	m.appendCodes[c] = append(m.appendCodes[c], make([]uint16, ix.M)...)
	ix.EncodeVec(vec, c, m.appendCodes[c][off:off+ix.M], m.esc)
	m.appendIDs[c] = append(m.appendIDs[c], id)
	m.where[id] = c
	m.nAppend++
	return c, nil
}

// Delete removes id from the logical corpus. A base-list id is tombstoned in
// place (the code stays physically present until Compact); an append-segment
// id is removed immediately, shifting later append entries down one slot.
// It returns the owning cluster and the removed append position (-1 for a
// base tombstone) so engine-side per-point tables can mirror the shift.
func (ix *Index) Delete(id int32) (cluster int32, appendPos int, err error) {
	m := ix.ensureMut()
	c, ok := m.where[id]
	if !ok {
		return 0, 0, fmt.Errorf("ivf: id %d not present", id)
	}
	delete(m.where, id)
	ids := m.appendIDs[c]
	for i, aid := range ids {
		if aid != id {
			continue
		}
		m.appendIDs[c] = append(ids[:i], ids[i+1:]...)
		codes := m.appendCodes[c]
		m.appendCodes[c] = append(codes[:i*ix.M], codes[(i+1)*ix.M:]...)
		m.nAppend--
		return c, i, nil
	}
	if m.tomb[c] == nil {
		m.tomb[c] = make(map[int32]bool)
	}
	m.tomb[c][id] = true
	m.nTomb++
	return c, -1, nil
}

// AppendLen returns the number of points in cluster c's append segment.
func (ix *Index) AppendLen(c int) int {
	if ix.mut == nil {
		return 0
	}
	return len(ix.mut.appendIDs[c])
}

// AppendIDs returns cluster c's append-segment ids (a view, not a copy).
func (ix *Index) AppendIDs(c int) []int32 {
	if ix.mut == nil {
		return nil
	}
	return ix.mut.appendIDs[c]
}

// AppendCodes returns cluster c's append-segment PQ codes (a view).
func (ix *Index) AppendCodes(c int) []uint16 {
	if ix.mut == nil {
		return nil
	}
	return ix.mut.appendCodes[c]
}

// Tombstoned returns cluster c's base-list tombstone set, nil when empty —
// scan kernels branch on nil to keep the unmutated fast path untouched. The
// set applies to the base list only; append segments never contain dead ids.
func (ix *Index) Tombstoned(c int) map[int32]bool {
	if ix.mut == nil {
		return nil
	}
	t := ix.mut.tomb[c]
	if len(t) == 0 {
		return nil
	}
	return t
}

// DetachOverlay serializes the live mutation overlay (EncodeAppendLog)
// and removes it from the index, leaving the packed base lists behind.
// Recovery uses it to split a checkpoint snapshot into the part the
// engine deploys over (base lists, exactly as they were at deploy time)
// and the overlay it re-adopts afterwards via DecodeAppendLog.
func (ix *Index) DetachOverlay() []byte {
	log := ix.EncodeAppendLog()
	ix.mut = nil
	return log
}

// HasMutations reports whether any uncompacted insert or delete exists.
func (ix *Index) HasMutations() bool {
	return ix.mut != nil && (ix.mut.nAppend > 0 || ix.mut.nTomb > 0)
}

// WhereIs returns the owning cluster of a live id.
func (ix *Index) WhereIs(id int32) (int32, bool) {
	if ix.mut != nil {
		c, ok := ix.mut.where[id]
		return c, ok
	}
	for c, list := range ix.Lists {
		for _, x := range list {
			if x == id {
				return int32(c), true
			}
		}
	}
	return 0, false
}

// LiveIDs returns every live id in ascending order: base lists minus
// tombstones, plus append segments.
func (ix *Index) LiveIDs() []int32 {
	var out []int32
	if ix.mut != nil {
		out = make([]int32, 0, len(ix.mut.where))
		for id := range ix.mut.where {
			out = append(out, id)
		}
	} else {
		for _, list := range ix.Lists {
			out = append(out, list...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MutationBytes reports the live overlay's footprint: append ids + codes
// plus tombstone entries. Zero once compacted.
func (ix *Index) MutationBytes() int64 {
	if ix.mut == nil {
		return 0
	}
	return int64(ix.mut.nAppend)*int64(4+2*ix.M) + int64(ix.mut.nTomb)*4
}

// Compact folds append segments and tombstones back into the packed
// Lists/Codes arenas and discards the overlay. Only clusters whose content
// changed are rebuilt; within each, surviving base entries and append
// entries merge in ascending-id order — the order Build produces — so a
// compacted index is bit-identical to a fresh frozen-quantizer build over
// the same logical corpus. It returns the rebuilt clusters, ascending
// (callers invalidate per-point derived tables for exactly those).
func (ix *Index) Compact() []int32 {
	m := ix.mut
	if m == nil {
		return nil
	}
	var dirty []int32
	for c := 0; c < ix.NList; c++ {
		if len(m.appendIDs[c]) > 0 || len(m.tomb[c]) > 0 {
			ix.rebuildCluster(c)
			dirty = append(dirty, int32(c))
		}
	}
	ix.mut = nil
	return dirty
}

// rebuildCluster folds cluster c's survivors and appends into fresh
// ascending-id Lists/Codes arenas.
func (ix *Index) rebuildCluster(c int) {
	m := ix.mut
	tomb := m.tomb[c]
	n := len(ix.Lists[c]) - len(tomb) + len(m.appendIDs[c])
	ids := make([]int32, 0, n)
	codes := make([]uint16, 0, n*ix.M)
	for i, id := range ix.Lists[c] {
		if tomb[id] {
			continue
		}
		ids = append(ids, id)
		codes = append(codes, ix.Codes[c][i*ix.M:(i+1)*ix.M]...)
	}
	ids = append(ids, m.appendIDs[c]...)
	codes = append(codes, m.appendCodes[c]...)
	ix.Lists[c], ix.Codes[c] = ids, codes
	ix.sortCluster(c)
}

// sortCluster re-sorts cluster c's (id, code) rows into ascending-id order.
func (ix *Index) sortCluster(c int) {
	ids := ix.Lists[c]
	perm := make([]int, len(ids))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return ids[perm[a]] < ids[perm[b]] })
	inOrder := true
	for i, p := range perm {
		if p != i {
			inOrder = false
			break
		}
	}
	if inOrder {
		return
	}
	newIDs := make([]int32, len(ids))
	newCodes := make([]uint16, len(ids)*ix.M)
	for i, p := range perm {
		newIDs[i] = ids[p]
		copy(newCodes[i*ix.M:(i+1)*ix.M], ix.Codes[c][p*ix.M:(p+1)*ix.M])
	}
	ix.Lists[c], ix.Codes[c] = newIDs, newCodes
}

// RebuildFrozen builds a fresh Index over the logical corpus (vecs.Vec(i)
// under ids[i]) reusing ix's frozen quantizers — the reference a compacted
// mutated index must match bit-for-bit. Points are placed in ascending-id
// order, matching Build's list order.
func RebuildFrozen(ix *Index, vecs dataset.U8Set, ids []int32) (*Index, error) {
	if vecs.N != len(ids) {
		return nil, fmt.Errorf("ivf: %d vectors for %d ids", vecs.N, len(ids))
	}
	if vecs.N > 0 && vecs.D != ix.Dim {
		return nil, fmt.Errorf("ivf: rebuild dim %d, index dim %d", vecs.D, ix.Dim)
	}
	order := make([]int, vecs.N)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ids[order[a]] < ids[order[b]] })
	out := ix.QuantizerView()
	sc := ix.NewEncodeScratch()
	code := make([]uint16, ix.M)
	for _, i := range order {
		v := vecs.Vec(i)
		c := out.AssignVec(v, sc)
		out.EncodeVec(v, c, code, sc)
		out.Lists[c] = append(out.Lists[c], ids[i])
		out.Codes[c] = append(out.Codes[c], code...)
	}
	return out, nil
}

// Append-log wire format: the mutation overlay serialized standalone (the
// base index keeps its own versioned format in serialize.go). Little-endian:
//
//	magic u32 | version u32 | nlist u32 | m u32 | nrec u32
//	per record: cluster u32 | nAppend u32 | ids i32* | codes u16*
//	            | nTomb u32 | tombstoned ids i32* (ascending)
const (
	appendLogMagic   uint32 = 0x44524d4c // "DRML"
	appendLogVersion uint32 = 1
)

// EncodeAppendLog serializes the live mutation overlay (empty overlay
// encodes to a valid zero-record log).
func (ix *Index) EncodeAppendLog() []byte {
	var recs []int
	if ix.mut != nil {
		for c := 0; c < ix.NList; c++ {
			if len(ix.mut.appendIDs[c]) > 0 || len(ix.mut.tomb[c]) > 0 {
				recs = append(recs, c)
			}
		}
	}
	buf := make([]byte, 0, 20+len(recs)*12)
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	u32(appendLogMagic)
	u32(appendLogVersion)
	u32(uint32(ix.NList))
	u32(uint32(ix.M))
	u32(uint32(len(recs)))
	for _, c := range recs {
		m := ix.mut
		u32(uint32(c))
		u32(uint32(len(m.appendIDs[c])))
		for _, id := range m.appendIDs[c] {
			u32(uint32(id))
		}
		for _, e := range m.appendCodes[c] {
			buf = binary.LittleEndian.AppendUint16(buf, e)
		}
		tomb := make([]int32, 0, len(m.tomb[c]))
		for id := range m.tomb[c] {
			tomb = append(tomb, id)
		}
		sort.Slice(tomb, func(i, j int) bool { return tomb[i] < tomb[j] })
		u32(uint32(len(tomb)))
		for _, id := range tomb {
			u32(uint32(id))
		}
	}
	return buf
}

// DecodeAppendLog replaces ix's mutation overlay with the decoded log.
// Corrupt input errors without panicking and without allocating more than
// the input length implies; on error the index is left unmutated.
func (ix *Index) DecodeAppendLog(data []byte) error {
	r := logReader{data: data}
	if v := r.u32(); v != appendLogMagic {
		return fmt.Errorf("ivf: append log magic %#x, want %#x", v, appendLogMagic)
	}
	if v := r.u32(); v != appendLogVersion {
		return fmt.Errorf("ivf: append log version %d, want %d", v, appendLogVersion)
	}
	if v := r.u32(); int(v) != ix.NList {
		return fmt.Errorf("ivf: append log for nlist=%d, index has %d", v, ix.NList)
	}
	if v := r.u32(); int(v) != ix.M {
		return fmt.Errorf("ivf: append log for m=%d, index has %d", v, ix.M)
	}
	nrec := r.u32()
	if r.err != nil {
		return r.err
	}
	if int64(nrec) > int64(len(data)) {
		return fmt.Errorf("ivf: append log claims %d records in %d bytes", nrec, len(data))
	}
	prev := ix.mut
	ix.mut = nil
	m := ix.ensureMut()
	fail := func(err error) error {
		ix.mut = prev
		return err
	}
	seen := make(map[int32]bool)
	for rec := uint32(0); rec < nrec; rec++ {
		c := r.u32()
		if r.err != nil {
			return fail(r.err)
		}
		if int(c) >= ix.NList {
			return fail(fmt.Errorf("ivf: append log cluster %d outside [0, %d)", c, ix.NList))
		}
		if seen[int32(c)] {
			return fail(fmt.Errorf("ivf: append log repeats cluster %d", c))
		}
		seen[int32(c)] = true
		nApp := r.u32()
		if r.err != nil {
			return fail(r.err)
		}
		if int64(nApp)*int64(4+2*ix.M) > int64(r.remaining()) {
			return fail(fmt.Errorf("ivf: append log cluster %d claims %d appends in %d bytes", c, nApp, r.remaining()))
		}
		for i := uint32(0); i < nApp; i++ {
			id := int32(r.u32())
			if r.err != nil {
				return fail(r.err)
			}
			if id < 0 {
				return fail(fmt.Errorf("ivf: append log id %d negative", id))
			}
			if _, live := m.where[id]; live {
				return fail(fmt.Errorf("ivf: append log id %d already live", id))
			}
			m.appendIDs[c] = append(m.appendIDs[c], id)
			m.where[id] = int32(c)
			m.nAppend++
		}
		for i := uint32(0); i < nApp*uint32(ix.M); i++ {
			e := r.u16()
			if r.err != nil {
				return fail(r.err)
			}
			if int(e) >= ix.CB {
				return fail(fmt.Errorf("ivf: append log code entry %d outside [0, %d)", e, ix.CB))
			}
			m.appendCodes[c] = append(m.appendCodes[c], e)
		}
		nTomb := r.u32()
		if r.err != nil {
			return fail(r.err)
		}
		if int64(nTomb)*4 > int64(r.remaining()) {
			return fail(fmt.Errorf("ivf: append log cluster %d claims %d tombstones in %d bytes", c, nTomb, r.remaining()))
		}
		for i := uint32(0); i < nTomb; i++ {
			id := int32(r.u32())
			if r.err != nil {
				return fail(r.err)
			}
			cc, live := m.where[id]
			if !live || cc != int32(c) {
				return fail(fmt.Errorf("ivf: append log tombstones id %d not live in cluster %d", id, c))
			}
			inBase := false
			for _, b := range ix.Lists[c] {
				if b == id {
					inBase = true
					break
				}
			}
			if !inBase {
				return fail(fmt.Errorf("ivf: append log tombstones id %d outside cluster %d's base list", id, c))
			}
			if m.tomb[c] == nil {
				m.tomb[c] = make(map[int32]bool)
			}
			if m.tomb[c][id] {
				return fail(fmt.Errorf("ivf: append log repeats tombstone %d", id))
			}
			delete(m.where, id)
			m.tomb[c][id] = true
			m.nTomb++
		}
	}
	if r.remaining() != 0 {
		return fail(fmt.Errorf("ivf: append log has %d trailing bytes", r.remaining()))
	}
	return nil
}

type logReader struct {
	data []byte
	off  int
	err  error
}

func (r *logReader) remaining() int { return len(r.data) - r.off }

func (r *logReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 4 {
		r.err = fmt.Errorf("ivf: append log truncated at byte %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *logReader) u16() uint16 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 2 {
		r.err = fmt.Errorf("ivf: append log truncated at byte %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint16(r.data[r.off:])
	r.off += 2
	return v
}

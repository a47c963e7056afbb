package ivf

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"drimann/internal/pq"
	"drimann/internal/sqt"
	"drimann/internal/vecmath"
)

// Binary index format, little-endian throughout.
//
// v1 (legacy): a flat header followed by centroid tables, codebooks and
// inverted lists, no checksums, no overlay. Still loadable (old images
// are input); no longer written.
//
// v2 (current): magic u32 | version u32, then four checksummed
// sections, each framed as len u32 | payload | crc u32 (IEEE CRC32 of
// the payload):
//
//	head    dim, nlist, m, cb, opq (5 × i32)
//	quant   centroids f32* | centroidsU8 u8* | codebooks f32*
//	lists   per cluster: n i32 | ids i32* | codes u16*
//	overlay the mutation append log (EncodeAppendLog; zero-record when clean)
//
// A flipped bit anywhere fails the section CRC instead of deserializing
// garbage, and the overlay section makes Save/Load lossless for a live
// mutated index — insert → save → load → search serves the inserted
// points.
//
// The opq word is always 0. Older builds wrote 1, and a D×D float64
// rotation after the codebooks, for an OPQ index; Load rejects such an
// image in either version, because the engine's integer path never applied
// the rotation.
//
// Load allocates nothing from a count it has not checked: the header's
// products are taken in int64 and capped, and every block is read into a
// buffer that grows only as its bytes arrive.
const (
	indexMagic     = 0x44524d41 // "DRMA"
	indexVersion1  = 1
	indexVersion2  = 2
	maxSectionSize = 1 << 31 // sanity cap for corrupt section lengths
)

func writeSection(w io.Writer, payload []byte) error {
	var frame [4]byte
	binary.LittleEndian.PutUint32(frame[:], uint32(len(payload)))
	if _, err := w.Write(frame[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(frame[:], crc32.ChecksumIEEE(payload))
	_, err := w.Write(frame[:])
	return err
}

// readFull reads exactly n bytes. CopyN grows the buffer only as bytes
// actually arrive, so a corrupt huge count on a short stream fails at EOF
// instead of attempting a giant upfront allocation.
func readFull(r io.Reader, n int64) ([]byte, error) {
	var b bytes.Buffer
	if _, err := io.CopyN(&b, r, n); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func readSection(r io.Reader, name string) ([]byte, error) {
	var frame [4]byte
	if _, err := io.ReadFull(r, frame[:]); err != nil {
		return nil, fmt.Errorf("ivf: load %s section length: %w", name, err)
	}
	n := binary.LittleEndian.Uint32(frame[:])
	if uint64(n) >= maxSectionSize {
		return nil, fmt.Errorf("ivf: %s section claims %d bytes", name, n)
	}
	payload, err := readFull(r, int64(n))
	if err != nil {
		return nil, fmt.Errorf("ivf: load %s section: %w", name, err)
	}
	if _, err := io.ReadFull(r, frame[:]); err != nil {
		return nil, fmt.Errorf("ivf: load %s section crc: %w", name, err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(frame[:]); got != want {
		return nil, fmt.Errorf("ivf: %s section checksum mismatch (%#x != %#x)", name, got, want)
	}
	return payload, nil
}

// Save writes the index in the current (v2) format, including the live
// mutation overlay when present.
func (ix *Index) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := binary.Write(bw, binary.LittleEndian, []int32{indexMagic, indexVersion2}); err != nil {
		return fmt.Errorf("ivf: save header: %w", err)
	}

	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, []int32{
		int32(ix.Dim), int32(ix.NList), int32(ix.M), int32(ix.CB), 0,
	}); err != nil {
		return fmt.Errorf("ivf: save head: %w", err)
	}
	if err := writeSection(bw, buf.Bytes()); err != nil {
		return fmt.Errorf("ivf: save head section: %w", err)
	}

	buf.Reset()
	if err := binary.Write(&buf, binary.LittleEndian, ix.Centroids); err != nil {
		return fmt.Errorf("ivf: save centroids: %w", err)
	}
	buf.Write(ix.CentroidsU8)
	if err := binary.Write(&buf, binary.LittleEndian, ix.PQ.Codebooks); err != nil {
		return fmt.Errorf("ivf: save codebooks: %w", err)
	}
	if err := writeSection(bw, buf.Bytes()); err != nil {
		return fmt.Errorf("ivf: save quant section: %w", err)
	}

	buf.Reset()
	for c := 0; c < ix.NList; c++ {
		if err := binary.Write(&buf, binary.LittleEndian, int32(len(ix.Lists[c]))); err != nil {
			return fmt.Errorf("ivf: save list %d len: %w", c, err)
		}
		if err := binary.Write(&buf, binary.LittleEndian, ix.Lists[c]); err != nil {
			return fmt.Errorf("ivf: save list %d ids: %w", c, err)
		}
		if err := binary.Write(&buf, binary.LittleEndian, ix.Codes[c]); err != nil {
			return fmt.Errorf("ivf: save list %d codes: %w", c, err)
		}
	}
	if err := writeSection(bw, buf.Bytes()); err != nil {
		return fmt.Errorf("ivf: save lists section: %w", err)
	}

	if err := writeSection(bw, ix.EncodeAppendLog()); err != nil {
		return fmt.Errorf("ivf: save overlay section: %w", err)
	}
	return bw.Flush()
}

// Load reads an index written by Save (v2), or a legacy v1 image.
func Load(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	head := make([]int32, 2)
	if err := binary.Read(br, binary.LittleEndian, head); err != nil {
		return nil, fmt.Errorf("ivf: load header: %w", err)
	}
	if head[0] != indexMagic {
		return nil, fmt.Errorf("ivf: bad magic %#x", head[0])
	}
	switch head[1] {
	case indexVersion1:
		return loadV1(br)
	case indexVersion2:
		return loadV2(br)
	default:
		return nil, fmt.Errorf("ivf: unsupported version %d", head[1])
	}
}

// newLoadShell validates the five header words both versions share (dim,
// nlist, m, cb, opq) and returns an index carrying the shape, with the
// byte length of its quant block. It allocates nothing from the counts.
func newLoadShell(h []int32) (*Index, int64, error) {
	dim, nlist, m, cb := int64(h[0]), int64(h[1]), int64(h[2]), int64(h[3])
	if dim <= 0 || nlist <= 0 || m <= 0 || cb <= 0 || dim%m != 0 {
		return nil, 0, fmt.Errorf("ivf: corrupt header dim=%d nlist=%d m=%d cb=%d", dim, nlist, m, cb)
	}
	if h[4] == 1 {
		return nil, 0, errors.New("ivf: image holds an OPQ index, which this package cannot load; rebuild it as PQ")
	}
	if h[4] != 0 {
		return nil, 0, fmt.Errorf("ivf: corrupt OPQ flag %d", h[4])
	}
	// Each product of two positive int32s fits an int64, and under the cap
	// so does the quant block: centroids f32 + u8, codebooks CB × dim f32.
	nd, cd := nlist*dim, cb*dim
	if nd >= maxSectionSize || cd >= maxSectionSize || 5*nd+4*cd >= maxSectionSize {
		return nil, 0, fmt.Errorf("ivf: corrupt header dim=%d nlist=%d cb=%d: centroids and codebooks exceed %d bytes", dim, nlist, cb, int64(maxSectionSize))
	}
	return &Index{Dim: int(dim), NList: int(nlist), M: int(m), CB: int(cb), SQT: sqt.NewSQT8()}, 5*nd + 4*cd, nil
}

// setQuant fills the centroids and codebooks from a quant block whose
// length newLoadShell computed, and makes the empty inverted lists.
func (ix *Index) setQuant(b []byte) {
	nd := ix.NList * ix.Dim
	ix.Centroids = f32sOf(b[:4*nd])
	ix.centroidsT = vecmath.Transpose8(ix.Centroids, ix.Dim)
	ix.CentroidsU8 = slices.Clone(b[4*nd : 5*nd])
	ix.PQ = pq.New(ix.Dim, ix.M, ix.CB, f32sOf(b[5*nd:]))
	ix.IntCB = ix.PQ.QuantizeCodebooks()
	ix.Lists = make([][]int32, ix.NList)
	ix.Codes = make([][]uint16, ix.NList)
}

func f32sOf(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// readList decodes one inverted list, n ids then n*m codes, from lr.
func readList(lr *logReader, n, m int) ([]int32, []uint16) {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(lr.u32())
	}
	codes := make([]uint16, n*m)
	for i := range codes {
		codes[i] = lr.u16()
	}
	return ids, codes
}

func loadV1(br *bufio.Reader) (*Index, error) {
	h := make([]int32, 5)
	if err := binary.Read(br, binary.LittleEndian, h); err != nil {
		return nil, fmt.Errorf("ivf: load header: %w", err)
	}
	ix, quantLen, err := newLoadShell(h)
	if err != nil {
		return nil, err
	}
	quant, err := readFull(br, quantLen)
	if err != nil {
		return nil, fmt.Errorf("ivf: load centroids and codebooks: %w", err)
	}
	ix.setQuant(quant)
	for c := range ix.Lists {
		var n int32
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return nil, fmt.Errorf("ivf: load list %d len: %w", c, err)
		}
		if n < 0 {
			return nil, fmt.Errorf("ivf: corrupt list length %d", n)
		}
		// M ≤ dim < 2^31/5 (the quant cap), so this stays below 2^61.
		b, err := readFull(br, int64(n)*int64(4+2*ix.M))
		if err != nil {
			return nil, fmt.Errorf("ivf: load list %d: %w", c, err)
		}
		ix.Lists[c], ix.Codes[c] = readList(&logReader{data: b}, int(n), ix.M)
	}
	return ix, nil
}

func loadV2(br *bufio.Reader) (*Index, error) {
	headSec, err := readSection(br, "head")
	if err != nil {
		return nil, err
	}
	if len(headSec) != 5*4 {
		return nil, fmt.Errorf("ivf: head section is %d bytes, want 20", len(headSec))
	}
	h := make([]int32, 5)
	if err := binary.Read(bytes.NewReader(headSec), binary.LittleEndian, h); err != nil {
		return nil, err
	}
	ix, quantLen, err := newLoadShell(h)
	if err != nil {
		return nil, err
	}

	quantSec, err := readSection(br, "quant")
	if err != nil {
		return nil, err
	}
	if int64(len(quantSec)) != quantLen {
		return nil, fmt.Errorf("ivf: quant section is %d bytes, want %d", len(quantSec), quantLen)
	}
	ix.setQuant(quantSec)

	listsSec, err := readSection(br, "lists")
	if err != nil {
		return nil, err
	}
	lr := logReader{data: listsSec}
	for c := range ix.Lists {
		n := int(int32(lr.u32()))
		if lr.err != nil {
			return nil, fmt.Errorf("ivf: load list %d len: %w", c, lr.err)
		}
		if n < 0 || int64(n)*int64(4+2*ix.M) > int64(lr.remaining()) {
			return nil, fmt.Errorf("ivf: corrupt list %d length %d", c, n)
		}
		ix.Lists[c], ix.Codes[c] = readList(&lr, n, ix.M)
	}
	if lr.remaining() != 0 {
		return nil, fmt.Errorf("ivf: %d trailing bytes in lists section", lr.remaining())
	}

	overlaySec, err := readSection(br, "overlay")
	if err != nil {
		return nil, err
	}
	if err := ix.DecodeAppendLog(overlaySec); err != nil {
		return nil, err
	}
	if !ix.HasMutations() {
		// A zero-record overlay decodes to an instantiated-but-empty
		// mutState; drop it so a clean index loads pristine, exactly
		// like a v1 load.
		ix.mut = nil
	}
	return ix, nil
}

package ivf

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"drimann/internal/durable"
	"drimann/internal/mat"
	"drimann/internal/pq"
	"drimann/internal/sqt"
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
//	head    dim, nlist, m, cb, hasOPQ (5 × i32)
//	quant   centroids f32* | centroidsU8 u8* | codebooks f32* | [rotation f64*]
//	lists   per cluster: n i32 | ids i32* | codes u16*
//	overlay the mutation append log (EncodeAppendLog; zero-record when clean)
//
// A flipped bit anywhere fails the section CRC instead of deserializing
// garbage, and the overlay section makes Save/Load lossless for a live
// mutated index — insert → save → load → search serves the inserted
// points.
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

func readSection(r io.Reader, name string) ([]byte, error) {
	var frame [4]byte
	if _, err := io.ReadFull(r, frame[:]); err != nil {
		return nil, fmt.Errorf("ivf: load %s section length: %w", name, err)
	}
	n := binary.LittleEndian.Uint32(frame[:])
	if uint64(n) >= maxSectionSize {
		return nil, fmt.Errorf("ivf: %s section claims %d bytes", name, n)
	}
	// CopyN grows the buffer only as bytes actually arrive, so a
	// corrupt huge length on a short stream fails at EOF instead of
	// attempting a giant upfront allocation.
	var pb bytes.Buffer
	if _, err := io.CopyN(&pb, r, int64(n)); err != nil {
		return nil, fmt.Errorf("ivf: load %s section: %w", name, err)
	}
	payload := pb.Bytes()
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

	hasOPQ := int32(0)
	if ix.OPQ != nil {
		hasOPQ = 1
	}
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, []int32{
		int32(ix.Dim), int32(ix.NList), int32(ix.M), int32(ix.CB), hasOPQ,
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
	if ix.OPQ != nil {
		if err := binary.Write(&buf, binary.LittleEndian, ix.OPQ.R.Data); err != nil {
			return fmt.Errorf("ivf: save rotation: %w", err)
		}
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

// newLoadShell validates the shape parameters shared by both versions
// and allocates an index with empty lists.
func newLoadShell(dim, nlist, m, cb int) (*Index, error) {
	if dim <= 0 || nlist <= 0 || m <= 0 || cb <= 0 || dim%m != 0 {
		return nil, fmt.Errorf("ivf: corrupt header dim=%d nlist=%d m=%d cb=%d", dim, nlist, m, cb)
	}
	return &Index{
		Dim: dim, NList: nlist, M: m, CB: cb,
		Centroids:   make([]float32, nlist*dim),
		CentroidsU8: make([]uint8, nlist*dim),
		PQ:          &pq.Quantizer{D: dim, M: m, CB: cb, DSub: dim / m, Codebooks: make([]float32, m*cb*(dim/m))},
		SQT:         sqt.NewSQT8(),
	}, nil
}

func loadV1(br *bufio.Reader) (*Index, error) {
	dims := make([]int32, 4)
	if err := binary.Read(br, binary.LittleEndian, dims); err != nil {
		return nil, fmt.Errorf("ivf: load header: %w", err)
	}
	ix, err := newLoadShell(int(dims[0]), int(dims[1]), int(dims[2]), int(dims[3]))
	if err != nil {
		return nil, err
	}
	var hasOPQ int32
	if err := binary.Read(br, binary.LittleEndian, &hasOPQ); err != nil {
		return nil, fmt.Errorf("ivf: load flags: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, ix.Centroids); err != nil {
		return nil, fmt.Errorf("ivf: load centroids: %w", err)
	}
	if _, err := io.ReadFull(br, ix.CentroidsU8); err != nil {
		return nil, fmt.Errorf("ivf: load u8 centroids: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, ix.PQ.Codebooks); err != nil {
		return nil, fmt.Errorf("ivf: load codebooks: %w", err)
	}
	if hasOPQ == 1 {
		rot := make([]float64, ix.Dim*ix.Dim)
		if err := binary.Read(br, binary.LittleEndian, rot); err != nil {
			return nil, fmt.Errorf("ivf: load rotation: %w", err)
		}
		ix.OPQ = &pq.OPQ{R: &mat.Dense{Rows: ix.Dim, Cols: ix.Dim, Data: rot}, PQ: ix.PQ}
	}
	ix.IntCB = ix.PQ.QuantizeCodebooks()
	ix.Lists = make([][]int32, ix.NList)
	ix.Codes = make([][]uint16, ix.NList)
	for c := 0; c < ix.NList; c++ {
		var n int32
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return nil, fmt.Errorf("ivf: load list %d len: %w", c, err)
		}
		if n < 0 {
			return nil, fmt.Errorf("ivf: corrupt list length %d", n)
		}
		ix.Lists[c] = make([]int32, n)
		if err := binary.Read(br, binary.LittleEndian, ix.Lists[c]); err != nil {
			return nil, fmt.Errorf("ivf: load list %d ids: %w", c, err)
		}
		ix.Codes[c] = make([]uint16, int(n)*ix.M)
		if err := binary.Read(br, binary.LittleEndian, ix.Codes[c]); err != nil {
			return nil, fmt.Errorf("ivf: load list %d codes: %w", c, err)
		}
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
	ix, err := newLoadShell(int(h[0]), int(h[1]), int(h[2]), int(h[3]))
	if err != nil {
		return nil, err
	}
	hasOPQ := h[4]
	if hasOPQ != 0 && hasOPQ != 1 {
		return nil, fmt.Errorf("ivf: corrupt OPQ flag %d", hasOPQ)
	}

	quantSec, err := readSection(br, "quant")
	if err != nil {
		return nil, err
	}
	wantQuant := 4*len(ix.Centroids) + len(ix.CentroidsU8) + 4*len(ix.PQ.Codebooks)
	if hasOPQ == 1 {
		wantQuant += 8 * ix.Dim * ix.Dim
	}
	if len(quantSec) != wantQuant {
		return nil, fmt.Errorf("ivf: quant section is %d bytes, want %d", len(quantSec), wantQuant)
	}
	qr := bytes.NewReader(quantSec)
	if err := binary.Read(qr, binary.LittleEndian, ix.Centroids); err != nil {
		return nil, fmt.Errorf("ivf: load centroids: %w", err)
	}
	if _, err := io.ReadFull(qr, ix.CentroidsU8); err != nil {
		return nil, fmt.Errorf("ivf: load u8 centroids: %w", err)
	}
	if err := binary.Read(qr, binary.LittleEndian, ix.PQ.Codebooks); err != nil {
		return nil, fmt.Errorf("ivf: load codebooks: %w", err)
	}
	if hasOPQ == 1 {
		rot := make([]float64, ix.Dim*ix.Dim)
		if err := binary.Read(qr, binary.LittleEndian, rot); err != nil {
			return nil, fmt.Errorf("ivf: load rotation: %w", err)
		}
		ix.OPQ = &pq.OPQ{R: &mat.Dense{Rows: ix.Dim, Cols: ix.Dim, Data: rot}, PQ: ix.PQ}
	}
	ix.IntCB = ix.PQ.QuantizeCodebooks()

	listsSec, err := readSection(br, "lists")
	if err != nil {
		return nil, err
	}
	lr := logReader{data: listsSec}
	ix.Lists = make([][]int32, ix.NList)
	ix.Codes = make([][]uint16, ix.NList)
	for c := 0; c < ix.NList; c++ {
		n := int(int32(lr.u32()))
		if lr.err != nil {
			return nil, fmt.Errorf("ivf: load list %d len: %w", c, lr.err)
		}
		if n < 0 || int64(n)*int64(4+2*ix.M) > int64(lr.remaining()) {
			return nil, fmt.Errorf("ivf: corrupt list %d length %d", c, n)
		}
		ix.Lists[c] = make([]int32, n)
		for i := range ix.Lists[c] {
			ix.Lists[c][i] = int32(lr.u32())
		}
		ix.Codes[c] = make([]uint16, n*ix.M)
		for i := range ix.Codes[c] {
			ix.Codes[c][i] = lr.u16()
		}
		if lr.err != nil {
			return nil, fmt.Errorf("ivf: load list %d: %w", c, lr.err)
		}
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

// SaveFile writes the index to path atomically: the bytes land in a
// temp file, are fsynced, and replace path in one rename — a crash
// mid-save leaves the previous good snapshot intact instead of a
// truncated file.
func (ix *Index) SaveFile(path string) error {
	return durable.WriteFileAtomic(durable.OS{}, path, ix.Save)
}

// LoadFile reads an index from a file.
func LoadFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ivf: %w", err)
	}
	defer f.Close()
	return Load(f)
}

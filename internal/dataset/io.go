package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// The .fvecs/.bvecs/.ivecs formats used by the TEXMEX/BIGANN corpora store
// one record per vector: a little-endian int32 dimension followed by dim
// elements (float32, uint8, or int32 respectively).

// MaxVecDim bounds the per-record dimension the readers accept. The header
// is attacker-controlled in the sense that a corrupt or truncated file can
// claim any int32; without a cap, a single bogus header would drive a
// multi-gigabyte allocation and crash the process instead of returning an
// error. Real embedding corpora top out in the low thousands of
// dimensions, so 2^20 is far beyond anything legitimate.
const MaxVecDim = 1 << 20

// ReadFvecs reads an entire fvecs stream.
func ReadFvecs(r io.Reader) (F32Set, error) {
	br := bufio.NewReader(r)
	var out F32Set
	for {
		var dim int32
		err := binary.Read(br, binary.LittleEndian, &dim)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, fmt.Errorf("dataset: read fvecs dim: %w", err)
		}
		if dim <= 0 || dim > MaxVecDim {
			return out, fmt.Errorf("dataset: invalid fvecs dim %d", dim)
		}
		if out.D == 0 {
			out.D = int(dim)
		} else if out.D != int(dim) {
			return out, fmt.Errorf("dataset: inconsistent fvecs dim %d vs %d", dim, out.D)
		}
		row := make([]float32, dim)
		if err := binary.Read(br, binary.LittleEndian, row); err != nil {
			return out, fmt.Errorf("dataset: read fvecs row %d: %w", out.N, err)
		}
		out.Data = append(out.Data, row...)
		out.N++
	}
}

// WriteBvecs writes a uint8 set in bvecs format.
func WriteBvecs(w io.Writer, s U8Set) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < s.N; i++ {
		if err := binary.Write(bw, binary.LittleEndian, int32(s.D)); err != nil {
			return fmt.Errorf("dataset: write bvecs dim: %w", err)
		}
		if _, err := bw.Write(s.Vec(i)); err != nil {
			return fmt.Errorf("dataset: write bvecs row %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadBvecs reads an entire bvecs stream.
func ReadBvecs(r io.Reader) (U8Set, error) {
	br := bufio.NewReader(r)
	var out U8Set
	for {
		var dim int32
		err := binary.Read(br, binary.LittleEndian, &dim)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, fmt.Errorf("dataset: read bvecs dim: %w", err)
		}
		if dim <= 0 || dim > MaxVecDim {
			return out, fmt.Errorf("dataset: invalid bvecs dim %d", dim)
		}
		if out.D == 0 {
			out.D = int(dim)
		} else if out.D != int(dim) {
			return out, fmt.Errorf("dataset: inconsistent bvecs dim %d vs %d", dim, out.D)
		}
		row := make([]uint8, dim)
		if _, err := io.ReadFull(br, row); err != nil {
			return out, fmt.Errorf("dataset: read bvecs row %d: %w", out.N, err)
		}
		out.Data = append(out.Data, row...)
		out.N++
	}
}

// WriteIvecs writes ground-truth id lists in ivecs format.
func WriteIvecs(w io.Writer, lists [][]int32) error {
	bw := bufio.NewWriter(w)
	for i, list := range lists {
		if err := binary.Write(bw, binary.LittleEndian, int32(len(list))); err != nil {
			return fmt.Errorf("dataset: write ivecs dim: %w", err)
		}
		if err := binary.Write(bw, binary.LittleEndian, list); err != nil {
			return fmt.Errorf("dataset: write ivecs row %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadIvecs reads ground-truth id lists in ivecs format.
func ReadIvecs(r io.Reader) ([][]int32, error) {
	br := bufio.NewReader(r)
	var out [][]int32
	for {
		var dim int32
		err := binary.Read(br, binary.LittleEndian, &dim)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: read ivecs dim: %w", err)
		}
		if dim < 0 || dim > MaxVecDim {
			return nil, fmt.Errorf("dataset: invalid ivecs dim %d", dim)
		}
		row := make([]int32, dim)
		if err := binary.Read(br, binary.LittleEndian, row); err != nil {
			return nil, fmt.Errorf("dataset: read ivecs row %d: %w", len(out), err)
		}
		out = append(out, row)
	}
}

// LoadBvecsFile reads a bvecs corpus from disk.
func LoadBvecsFile(path string) (U8Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return U8Set{}, fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	return ReadBvecs(f)
}

// SaveBvecsFile writes a bvecs corpus to disk.
func SaveBvecsFile(path string, s U8Set) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	if err := WriteBvecs(f, s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

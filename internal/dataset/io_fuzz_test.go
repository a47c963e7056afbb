package dataset

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"
)

// The fuzz targets feed arbitrary bytes to the vecs readers and enforce
// two properties: the reader never panics (corrupt or truncated headers —
// including absurd claimed dimensions — must surface as errors), and any
// input it does accept round-trips bit-exactly through write-then-read
// (checked on the re-encoded bytes, which sidesteps NaN comparison for
// fvecs). CI runs each target for a short -fuzztime as a smoke step.

func validBvecs() []byte {
	var buf bytes.Buffer
	WriteBvecs(&buf, U8Set{N: 3, D: 4, Data: []uint8{
		1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
	}})
	return buf.Bytes()
}

func validFvecs() []byte {
	var buf bytes.Buffer
	WriteFvecs(&buf, F32Set{N: 2, D: 3, Data: []float32{
		1.5, -2.25, 3, 0.125, 6, -7.5,
	}})
	return buf.Bytes()
}

func validIvecs() []byte {
	var buf bytes.Buffer
	WriteIvecs(&buf, [][]int32{{5, 9, 1}, {}, {42}})
	return buf.Bytes()
}

// header builds one little-endian int32 record header.
func header(dim int32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(dim))
	return b[:]
}

func FuzzReadBvecs(f *testing.F) {
	f.Add(validBvecs())
	f.Add(header(1 << 30))                 // absurd dim: must error, not OOM
	f.Add(header(-4))                      // negative dim
	f.Add(validBvecs()[:5])                // truncated row
	f.Add(append(validBvecs(), 7))         // trailing garbage
	f.Add(append(header(4), header(2)...)) // inconsistent dims
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadBvecs(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc1 bytes.Buffer
		if err := WriteBvecs(&enc1, s); err != nil {
			t.Fatalf("re-encode of accepted input: %v", err)
		}
		s2, err := ReadBvecs(bytes.NewReader(enc1.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of own encoding: %v", err)
		}
		var enc2 bytes.Buffer
		WriteBvecs(&enc2, s2)
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatal("bvecs round-trip not bit-exact")
		}
	})
}

func FuzzReadFvecs(f *testing.F) {
	f.Add(validFvecs())
	f.Add(header(1 << 28))
	f.Add(header(0))
	f.Add(validFvecs()[:9])
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadFvecs(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc1 bytes.Buffer
		if err := WriteFvecs(&enc1, s); err != nil {
			t.Fatalf("re-encode of accepted input: %v", err)
		}
		s2, err := ReadFvecs(bytes.NewReader(enc1.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of own encoding: %v", err)
		}
		var enc2 bytes.Buffer
		WriteFvecs(&enc2, s2)
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatal("fvecs round-trip not bit-exact")
		}
	})
}

func FuzzReadIvecs(f *testing.F) {
	f.Add(validIvecs())
	f.Add(header(1 << 29))
	f.Add(header(-1))
	f.Add(validIvecs()[:6])
	f.Fuzz(func(t *testing.T, data []byte) {
		lists, err := ReadIvecs(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc1 bytes.Buffer
		if err := WriteIvecs(&enc1, lists); err != nil {
			t.Fatalf("re-encode of accepted input: %v", err)
		}
		lists2, err := ReadIvecs(bytes.NewReader(enc1.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of own encoding: %v", err)
		}
		var enc2 bytes.Buffer
		WriteIvecs(&enc2, lists2)
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatal("ivecs round-trip not bit-exact")
		}
	})
}

// WriteFvecs writes a float32 set in fvecs format.
func WriteFvecs(w io.Writer, s F32Set) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < s.N; i++ {
		if err := binary.Write(bw, binary.LittleEndian, int32(s.D)); err != nil {
			return fmt.Errorf("dataset: write fvecs dim: %w", err)
		}
		if err := binary.Write(bw, binary.LittleEndian, s.Vec(i)); err != nil {
			return fmt.Errorf("dataset: write fvecs row %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Vec returns row i as a slice view.
func (s F32Set) Vec(i int) []float32 { return s.Data[i*s.D : (i+1)*s.D] }

package cluster

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// withCRC appends the little-endian CRC32 of b, as every framed section and
// the sidecar end.
func withCRC(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// craftedSnapshot is a shard snapshot whose table section claims 0x40000001
// ids but holds one: 12 bytes whose CRC matches. On a 32-bit int the count
// times four wraps to 4, which is exactly the bytes present.
func craftedSnapshot() []byte {
	le := binary.LittleEndian
	img := le.AppendUint32(nil, shardSnapMagic)
	img = le.AppendUint32(img, shardSnapVersion)
	section := le.AppendUint32(nil, 0x40000001)
	section = le.AppendUint32(section, 7)
	return append(img, withCRC(section)...)
}

// craftedSidecar is a 25-byte k-means sidecar claiming 0x40000001 lists over
// a 4-byte cluster map, with a matching CRC.
func craftedSidecar() []byte {
	le := binary.LittleEndian
	side := le.AppendUint32(nil, assignMagic)
	side = le.AppendUint32(side, assignVersion)
	side = append(side, 1)
	side = le.AppendUint32(side, 2)
	side = le.AppendUint32(side, 0x40000001)
	side = le.AppendUint32(side, 0)
	return withCRC(side)
}

// TestDecodersRejectCountsPastTheBytes: a count the bytes present cannot hold
// is an error, never an allocation of that count — on a 32-bit int too, where
// the count times four wraps to the length the section really has.
func TestDecodersRejectCountsPastTheBytes(t *testing.T) {
	if _, _, _, err := parseShardSnapshot(craftedSnapshot()); err == nil {
		t.Fatal("shard snapshot with an oversized id count decoded")
	}
	if _, _, _, _, err := decodeAssign(craftedSidecar()); err == nil {
		t.Fatal("assignment sidecar with an oversized list count decoded")
	}
}

// FuzzShardSnapshot: corrupt or truncated shard snapshots must error, never
// panic; one that parses re-frames to the same bytes.
func FuzzShardSnapshot(f *testing.F) {
	var valid bytes.Buffer
	le := binary.LittleEndian
	valid.Write(le.AppendUint32(le.AppendUint32(nil, shardSnapMagic), shardSnapVersion))
	if err := writeIDSection(&valid, []int32{3, 5, 8}); err != nil {
		f.Fatal(err)
	}
	if err := writeIDSection(&valid, []int32{1}); err != nil {
		f.Fatal(err)
	}
	valid.WriteString("index")
	f.Add(valid.Bytes())
	f.Add(craftedSnapshot())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, img []byte) {
		table, owned, rest, err := parseShardSnapshot(img)
		if err != nil {
			return
		}
		var again bytes.Buffer
		again.Write(img[:8])
		if err := writeIDSection(&again, table); err != nil {
			t.Fatal(err)
		}
		if err := writeIDSection(&again, owned); err != nil {
			t.Fatal(err)
		}
		again.Write(rest)
		if !bytes.Equal(again.Bytes(), img) {
			t.Fatal("a parsed snapshot does not re-frame to its bytes")
		}
	})
}

// FuzzAssignSidecar: corrupt or truncated assignment sidecars must error,
// never panic; one that decodes re-encodes to the same bytes.
func FuzzAssignSidecar(f *testing.F) {
	f.Add(encodeAssign(AssignKMeans, 3, 4, []int32{0, 2, 1, 2}))
	f.Add(encodeAssign(AssignHash, 2, 16, nil))
	f.Add(craftedSidecar())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		policy, shards, nlist, shardOf, err := decodeAssign(data)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeAssign(policy, shards, nlist, shardOf), data) {
			t.Fatal("a decoded sidecar does not re-encode to its bytes")
		}
	})
}

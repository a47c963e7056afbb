package cluster

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"
)

// withCRC appends the little-endian CRC32 of b, as the sidecar ends.
func withCRC(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
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
	if _, _, _, _, err := decodeAssign(craftedSidecar()); err == nil {
		t.Fatal("assignment sidecar with an oversized list count decoded")
	}
}

// TestAssignSidecarV1IsRefused: a version 1 sidecar, from a fleet whose
// shard stores wrapped their snapshots in a format of their own, is refused
// however sound the rest of it is.
func TestAssignSidecarV1IsRefused(t *testing.T) {
	side := encodeAssign(AssignKMeans, 2, 4, []int32{0, 1, 1, 0})
	binary.LittleEndian.PutUint32(side[4:8], 1)
	side = withCRC(side[:len(side)-4])
	if _, _, _, _, err := decodeAssign(side); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("v1 sidecar: error %v, want an unsupported version 1", err)
	}
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

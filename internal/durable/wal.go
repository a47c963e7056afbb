package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// WAL file layout (all integers little-endian):
//
//	magic  u32 = 0x4452574c "DRWL"
//	ver    u32 = 1
//	records:
//	  len  u32   payload length
//	  crc  u32   IEEE CRC32 of payload
//	  payload [len]byte
//
// Records are appended, never rewritten; durability is governed by the
// SyncPolicy. DecodeWAL is strict: it stops at the first record whose
// frame is short or whose checksum fails, returning the valid prefix —
// a torn tail from a crash is truncated, never half-applied.
const (
	walMagic      = 0x4452574c
	walVersion    = 1
	walHeaderSize = 8
	recFrameSize  = 8
)

// SyncPolicy controls when appended WAL records become durable — the
// point at which a mutation may be acknowledged as surviving a crash.
type SyncPolicy int

const (
	// SyncEveryBatch syncs once per BatchEnd (one per logged
	// mutation call): every acknowledged mutation batch is durable.
	SyncEveryBatch SyncPolicy = iota
	// SyncEveryRecord syncs after every single record.
	SyncEveryRecord
	// SyncNever leaves durability to the OS; a crash may lose
	// acknowledged mutations. For benchmarking the fsync overhead.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncEveryBatch:
		return "every-batch"
	case SyncEveryRecord:
		return "every-record"
	case SyncNever:
		return "off"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// WAL is an append-only checksummed record log. Not safe for
// concurrent use; callers serialize appends (Store.Log runs on the
// attached engine's or fleet's serialized mutation path).
type WAL struct {
	f      File
	policy SyncPolicy
}

// createWAL creates name, writes and syncs the header, and returns the
// open log.
func createWAL(fsys FS, name string, policy SyncPolicy) (*WAL, error) {
	f, err := fsys.Create(name)
	if err != nil {
		return nil, err
	}
	var hdr [walHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], walMagic)
	binary.LittleEndian.PutUint32(hdr[4:], walVersion)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return &WAL{f: f, policy: policy}, nil
}

// Append frames and writes one record. Under SyncEveryRecord the
// record is durable when Append returns; under SyncEveryBatch it is
// durable after the next BatchEnd.
func (w *WAL) Append(payload []byte) error {
	var frame [recFrameSize]byte
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	buf := make([]byte, 0, recFrameSize+len(payload))
	buf = append(buf, frame[:]...)
	buf = append(buf, payload...)
	if _, err := w.f.Write(buf); err != nil {
		return err
	}
	if w.policy == SyncEveryRecord {
		return w.f.Sync()
	}
	return nil
}

// BatchEnd marks a durability point under SyncEveryBatch.
func (w *WAL) BatchEnd() error {
	if w.policy == SyncEveryBatch {
		return w.f.Sync()
	}
	return nil
}

// Sync forces durability regardless of policy.
func (w *WAL) Sync() error { return w.f.Sync() }

// Close closes the underlying file without syncing.
func (w *WAL) Close() error { return w.f.Close() }

// ErrWALHeader reports a log whose header (not tail) is unreadable —
// wrong magic, wrong version, or shorter than a header. Unlike a torn
// tail this is not survivable truncation damage; the file is not a WAL.
var ErrWALHeader = errors.New("durable: bad WAL header")

// DecodeWAL strictly decodes a WAL image: it validates the header,
// then walks records until the first short frame or checksum mismatch
// and returns every record before it. valid is the byte offset of the
// decoded prefix (header included) — everything past it is torn/corrupt
// tail. Payload slices alias data.
func DecodeWAL(data []byte) (recs [][]byte, valid int, err error) {
	if len(data) < walHeaderSize {
		return nil, 0, fmt.Errorf("%w: %d bytes", ErrWALHeader, len(data))
	}
	if m := binary.LittleEndian.Uint32(data[0:]); m != walMagic {
		return nil, 0, fmt.Errorf("%w: magic %#x", ErrWALHeader, m)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != walVersion {
		return nil, 0, fmt.Errorf("%w: version %d", ErrWALHeader, v)
	}
	off := walHeaderSize
	for {
		if len(data)-off < recFrameSize {
			return recs, off, nil
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if n < 0 || n > len(data)-off-recFrameSize {
			return recs, off, nil // torn: frame promises more than exists
		}
		payload := data[off+recFrameSize : off+recFrameSize+n]
		if crc32.ChecksumIEEE(payload) != crc {
			return recs, off, nil // corrupt record: stop here
		}
		recs = append(recs, payload)
		off += recFrameSize + n
	}
}

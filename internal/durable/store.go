package durable

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Options configures a Store.
type Options struct {
	// Dir is the store directory; one engine's durable state lives in
	// one directory (cluster fleets use one subdirectory per shard).
	Dir string
	// Policy is the WAL fsync policy. Zero value is SyncEveryBatch.
	Policy SyncPolicy
	// FS overrides the filesystem (crash-point tests inject a MemFS).
	// Nil means the real filesystem.
	FS FS
}

// ErrExists is returned by Create when the directory already holds a
// store (use Open + recovery instead of re-creating).
var ErrExists = errors.New("durable: store already exists")

// ErrNotExists is returned by Open when the directory holds no store.
var ErrNotExists = errors.New("durable: no store in directory")

// Store owns one directory of durable state: the manifest, the current
// snapshot, and the live WAL. It is not safe for concurrent use; the
// engine or fleet it is attached to logs from its own mutation path,
// which the serving layer already serializes at the batch boundary.
//
// Checkpoint ordering is the heart of crash atomicity:
//
//  1. write snap-(seq+1) via temp + fsync + rename
//  2. create and sync wal-(seq+1) (header only)
//  3. atomically replace MANIFEST with {seq+1, snap, wal}
//  4. best-effort remove the old snapshot and WAL
//
// A crash before step 3 leaves the old manifest naming the old intact
// pair; after step 3, the new pair. The manifest names both files, so
// recovery can never mix generations.
type Store struct {
	fs     FS
	dir    string
	policy SyncPolicy
	man    Manifest
	wal    *WAL
}

func (o Options) fsys() FS {
	if o.FS != nil {
		return o.FS
	}
	return OS{}
}

// Create initializes a new store in opt.Dir from an initial snapshot
// (written by the snapshot callback) and opens a fresh WAL for
// appending. Fails with ErrExists if a manifest is already present.
func Create(opt Options, snapshot func(w io.Writer) error) (*Store, error) {
	fsys := opt.fsys()
	if err := fsys.MkdirAll(opt.Dir); err != nil {
		return nil, err
	}
	if _, err := fsys.ReadFile(filepath.Join(opt.Dir, ManifestName)); err == nil {
		return nil, fmt.Errorf("%w: %s", ErrExists, opt.Dir)
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	st := &Store{fs: fsys, dir: opt.Dir, policy: opt.Policy}
	if err := st.checkpoint(snapshot); err != nil {
		return nil, err
	}
	return st, nil
}

// Open reads the manifest of an existing store for recovery. The
// returned store has no live WAL: read the snapshot and Replay the
// log, then call Checkpoint — which rotates to a fresh log —
// before appending. (Appending to a possibly-torn tail is never done.)
func Open(opt Options) (*Store, error) {
	fsys := opt.fsys()
	man, err := readManifest(fsys, filepath.Join(opt.Dir, ManifestName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNotExists, opt.Dir)
		}
		return nil, err
	}
	return &Store{fs: fsys, dir: opt.Dir, policy: opt.Policy, man: man}, nil
}

// Manifest returns the current manifest.
func (st *Store) Manifest() Manifest { return st.man }

// Dir returns the store directory.
func (st *Store) Dir() string { return st.dir }

// SnapshotBytes reads the current snapshot file whole.
func (st *Store) SnapshotBytes() ([]byte, error) {
	return st.fs.ReadFile(filepath.Join(st.dir, st.man.Snapshot))
}

// WALRecords strictly decodes the current WAL and returns the valid
// record prefix; a torn or corrupt tail (from a crash) is silently
// truncated, per the acknowledged-means-synced contract.
func (st *Store) WALRecords() ([][]byte, error) {
	data, err := st.fs.ReadFile(filepath.Join(st.dir, st.man.WAL))
	if err != nil {
		return nil, err
	}
	recs, _, err := DecodeWAL(data)
	return recs, err
}

// Append writes one mutation record to the live WAL. Under
// SyncEveryRecord it is durable on return; under SyncEveryBatch after
// the next BatchEnd. A store obtained from Open has no live WAL until
// Checkpoint rotates one in.
func (st *Store) Append(payload []byte) error {
	if st.wal == nil {
		return fmt.Errorf("durable: store has no live WAL (recover then Checkpoint first)")
	}
	return st.wal.Append(payload)
}

// BatchEnd marks a batch durability point on the live WAL.
func (st *Store) BatchEnd() error {
	if st.wal == nil {
		return fmt.Errorf("durable: store has no live WAL (recover then Checkpoint first)")
	}
	return st.wal.BatchEnd()
}

// Log writes one applied mutation to the live WAL as one record and marks
// the batch durability point, so under SyncEveryBatch or SyncEveryRecord
// it is durable when Log returns nil. A mutation without ids logs nothing.
func (st *Store) Log(m Mutation) error {
	if len(m.IDs) == 0 {
		return nil
	}
	rec := EncodeDelete(m.IDs)
	if m.Op == OpInsert {
		var err error
		if rec, err = EncodeInsert(m.IDs, m.Dim, m.Vecs); err != nil {
			return err
		}
	}
	if err := st.Append(rec); err != nil {
		return err
	}
	return st.BatchEnd()
}

// Replay decodes the current WAL's valid prefix and hands each mutation to
// apply in log order, stopping at the first error. Vecs alias the log
// image, which apply must not retain.
func (st *Store) Replay(apply func(Mutation) error) error {
	recs, err := st.WALRecords()
	if err != nil {
		return err
	}
	for i, rec := range recs {
		m, err := DecodeMutation(rec)
		if err != nil {
			return fmt.Errorf("durable: WAL record %d: %w", i, err)
		}
		if err := apply(m); err != nil {
			return fmt.Errorf("durable: WAL record %d replay: %w", i, err)
		}
	}
	return nil
}

// Checkpoint writes a new snapshot and rotates the WAL atomically (see
// the ordering on Store). On success the old generation's files are
// removed best-effort; on failure the store keeps appending to the old
// generation, which remains fully intact.
func (st *Store) Checkpoint(snapshot func(w io.Writer) error) error {
	return st.checkpoint(snapshot)
}

func (st *Store) checkpoint(snapshot func(w io.Writer) error) error {
	seq := st.man.Seq + 1
	next := Manifest{
		Seq:      seq,
		Snapshot: fmt.Sprintf("snap-%08d", seq),
		WAL:      fmt.Sprintf("wal-%08d", seq),
	}
	if err := WriteFileAtomic(st.fs, filepath.Join(st.dir, next.Snapshot), snapshot); err != nil {
		return err
	}
	wal, err := createWAL(st.fs, filepath.Join(st.dir, next.WAL), st.policy)
	if err != nil {
		st.fs.Remove(filepath.Join(st.dir, next.Snapshot))
		return err
	}
	if err := writeManifest(st.fs, filepath.Join(st.dir, ManifestName), next); err != nil {
		wal.Close()
		st.fs.Remove(filepath.Join(st.dir, next.WAL))
		st.fs.Remove(filepath.Join(st.dir, next.Snapshot))
		return err
	}
	prev, prevWAL := st.man, st.wal
	st.man, st.wal = next, wal
	if prevWAL != nil {
		prevWAL.Close()
	}
	if prev.Snapshot != "" {
		st.fs.Remove(filepath.Join(st.dir, prev.Snapshot))
	}
	if prev.WAL != "" {
		st.fs.Remove(filepath.Join(st.dir, prev.WAL))
	}
	return nil
}

// Close syncs (unless SyncNever) and closes the live WAL, if any.
func (st *Store) Close() error {
	if st.wal == nil {
		return nil
	}
	var err error
	if st.policy != SyncNever {
		err = st.wal.Sync()
	}
	if cerr := st.wal.Close(); err == nil {
		err = cerr
	}
	st.wal = nil
	return err
}

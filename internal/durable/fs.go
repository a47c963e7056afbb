// Package durable is the persistence seam for the serving stack: a
// checksummed write-ahead log for mutations, atomic checkpointed
// snapshots, and a manifest that binds the two so a process can restart
// bit-identically after dying at any instant.
//
// The package deliberately imports nothing from the rest of the module:
// core and cluster, the two layers that apply mutations, log and replay
// them through one call each (Store.Log, Store.Replay), so it must sit
// at the bottom of the import graph. Everything that touches storage
// goes through the FS interface; production code uses OS, and the
// crash-point tests use MemFS, which models the byte-level durability
// contract of a journaled filesystem and can kill the simulated machine
// at any mutating operation.
//
// A Store owns one directory: a checkpoint snapshot in a checksummed section
// format, written via temp file + fsync + atomic rename; a length-framed,
// CRC-per-record write-ahead log of mutations; and a manifest binding the
// {snapshot, WAL} pair, so recovery can never mix generations. A mutation is
// acknowledged once its record is synced under the SyncPolicy (per batch,
// or never), and a batch that fails part-way logs its applied
// prefix, so the log always reproduces acknowledged state. Torn or
// bit-flipped records and snapshot sections are detected by checksum, never
// silently served; replay stops at the first bad record and recovery rotates
// to a fresh generation, discarding the torn tail. Crash-point matrices —
// MemFS killing the machine at every mutating operation, torn writes
// included — pin the contract at the store, engine and cluster layers, and
// the benchmark's fleet-mutate workload measures WAL overhead and recovery
// wall time on the real filesystem.
package durable

import (
	"errors"
	"io"
	"os"
	"sync"
)

// ErrCrashed is returned by every MemFS operation after an injected
// crash fires: the simulated machine is dead until Reboot is called.
var ErrCrashed = errors.New("durable: filesystem crashed (injected)")

// ErrInjectedSync is the error returned by a Sync call selected by
// FaultPlan.FailSyncAt. The sync does not happen; the process survives.
var ErrInjectedSync = errors.New("durable: fsync failed (injected)")

// File is the writable handle surface the durability layer needs:
// sequential writes, an explicit durability barrier, and close.
type File interface {
	io.Writer
	// Sync blocks until every byte written so far would survive a
	// crash (fsync).
	Sync() error
	Close() error
}

// FS abstracts the filesystem operations used by Store, WAL, and the
// atomic-write helper. Implementations must make Rename atomic with
// respect to crashes: after a crash, a reader sees either the old or
// the new binding of the name, never a mixture.
type FS interface {
	MkdirAll(dir string) error
	// Create truncates or creates name for writing.
	Create(name string) (File, error)
	// OpenAppend opens name for appending, creating it if absent.
	OpenAppend(name string) (File, error)
	// ReadFile returns the full contents of name. A missing file is
	// reported with an error satisfying errors.Is(err, os.ErrNotExist).
	ReadFile(name string) ([]byte, error)
	Rename(oldname, newname string) error
	Remove(name string) error
}

// OS is the production FS backed by the real filesystem.
type OS struct{}

func (OS) MkdirAll(dir string) error            { return os.MkdirAll(dir, 0o755) }
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (OS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }
func (OS) Remove(name string) error             { return os.Remove(name) }
func (OS) Create(name string) (File, error)     { return os.Create(name) }
func (OS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

// FaultPlan is a deterministic crash schedule for MemFS, in the same
// call-counter style as internal/fault: the n-th mutating operation
// (Create, OpenAppend, Write, Sync, Rename, Remove — counted across
// the whole filesystem) either kills the machine or fails. Running the
// same workload twice against the same plan injects at the same point.
type FaultPlan struct {
	// CrashAtOp kills the machine at the CrashAtOp-th mutating
	// operation (1-based): the operation does not happen, every file
	// is truncated to its durable (synced) content, and all further
	// calls return ErrCrashed until Reboot. 0 disables.
	CrashAtOp int
	// TornWrite modifies CrashAtOp when the fatal operation is a
	// Write: the first half of the buffer reaches durable storage
	// before the machine dies (a torn record — the in-flight sector
	// that made it to the platter), instead of nothing.
	TornWrite bool
	// FailSyncAt makes the FailSyncAt-th Sync call (1-based, counted
	// separately) return ErrInjectedSync without syncing and without
	// crashing. 0 disables.
	FailSyncAt int
}

// MemFS is an in-memory FS with an explicit crash model for the
// crash-point matrix tests. Each file tracks its written content and a
// durable watermark advanced only by Sync; a crash truncates every
// file to the watermark, so bytes written but never synced are lost.
// Rename is modeled as journaled metadata: atomic and immediately
// durable (file *contents* still need Sync — renaming an unsynced temp
// file over a good snapshot loses the snapshot, which is exactly the
// failure mode WriteFileAtomic's sync-before-rename exists to prevent).
type MemFS struct {
	mu      sync.Mutex
	plan    FaultPlan
	files   map[string]*memFile
	ops     int
	syncs   int
	crashed bool
}

type memFile struct {
	data   []byte
	synced int // durable prefix length: data[:synced] survives a crash
}

// NewMemFS returns an empty MemFS governed by plan.
func NewMemFS(plan FaultPlan) *MemFS {
	return &MemFS{plan: plan, files: map[string]*memFile{}}
}

// Ops reports the number of mutating operations observed so far. A
// fault-free dry run of a workload yields the total T; re-running the
// identical workload with CrashAtOp=i for every i in 1..T visits every
// crash point.
func (fs *MemFS) Ops() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.ops
}

// Crashed reports whether the injected crash has fired.
func (fs *MemFS) Crashed() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.crashed
}

// Reboot brings the machine back after a crash: files stay truncated
// to their durable content (that happened at crash time), and
// operations work again. The op counter keeps running so a second
// crash point could be scheduled by a fresh plan.
func (fs *MemFS) Reboot() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.crashed = false
}

// step accounts one mutating operation and fires the scheduled crash.
// Returns ErrCrashed when the machine is (or just became) dead, and
// reports whether this very call is the fatal one (for torn writes).
func (fs *MemFS) step() (fatal bool, err error) {
	if fs.crashed {
		return false, ErrCrashed
	}
	fs.ops++
	if fs.plan.CrashAtOp > 0 && fs.ops == fs.plan.CrashAtOp {
		fs.crash()
		return true, ErrCrashed
	}
	return false, nil
}

// crash truncates every file to its durable content.
func (fs *MemFS) crash() {
	fs.crashed = true
	for _, f := range fs.files {
		f.data = f.data[:f.synced]
	}
}

func (fs *MemFS) MkdirAll(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return ErrCrashed
	}
	return nil // directories are implicit
}

func (fs *MemFS) Create(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, err := fs.step(); err != nil {
		return nil, err
	}
	f := &memFile{}
	fs.files[name] = f
	return &memHandle{fs: fs, f: f}, nil
}

func (fs *MemFS) OpenAppend(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, err := fs.step(); err != nil {
		return nil, err
	}
	f, ok := fs.files[name]
	if !ok {
		f = &memFile{}
		fs.files[name] = f
	}
	return &memHandle{fs: fs, f: f}, nil
}

func (fs *MemFS) ReadFile(name string) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return nil, ErrCrashed
	}
	f, ok := fs.files[name]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	out := make([]byte, len(f.data))
	copy(out, f.data)
	return out, nil
}

func (fs *MemFS) Rename(oldname, newname string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, err := fs.step(); err != nil {
		return err
	}
	f, ok := fs.files[oldname]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldname, Err: os.ErrNotExist}
	}
	delete(fs.files, oldname)
	fs.files[newname] = f
	return nil
}

func (fs *MemFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, err := fs.step(); err != nil {
		return err
	}
	if _, ok := fs.files[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(fs.files, name)
	return nil
}

type memHandle struct {
	fs     *MemFS
	f      *memFile
	closed bool
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, os.ErrClosed
	}
	fatal, err := h.fs.step()
	if err != nil {
		if fatal && h.fs.plan.TornWrite && len(p) > 0 {
			// The in-flight half of this write reached the platter
			// before the machine died: it lands after the durable
			// prefix (unsynced earlier writes are already gone).
			torn := p[:len(p)/2]
			h.f.data = append(h.f.data, torn...)
			h.f.synced = len(h.f.data)
		}
		return 0, err
	}
	h.f.data = append(h.f.data, p...)
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return os.ErrClosed
	}
	if _, err := h.fs.step(); err != nil {
		return err
	}
	h.fs.syncs++
	if h.fs.plan.FailSyncAt > 0 && h.fs.syncs == h.fs.plan.FailSyncAt {
		return ErrInjectedSync
	}
	h.f.synced = len(h.f.data)
	return nil
}

func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.closed = true
	return nil
}

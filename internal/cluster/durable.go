// Fleet durability: a FleetStore gives a sharded Cluster the same crash
// contract a single engine gets from the store core's CreateStore attaches —
// every acknowledged mutation survives a kill at any instant, and
// RecoverCluster restarts the fleet bit-identically (search results,
// memory stats, owner maps).
//
// Layout: one fleet directory holding an immutable ASSIGN sidecar plus
// one durable.Store per shard under shard-%03d/. The sidecar freezes
// the partitioning decision — assignment policy, shard count, and the
// cluster→shard map under AssignKMeans — because the map was computed
// from the original full index and profile heat, which no longer exist
// at recovery time. Each shard's snapshot (version 2) carries the shard's
// owned-cluster list (Shard.owned; index contents alone cannot reproduce
// it) and then the shard sub-index, its points under their global ids, in
// the ivf v2 checkpoint format (last because ivf.Load buffers past what it
// consumes). A version 1 snapshot, whose sub-index held shard-local ids
// behind an id table, is refused with ErrShardSnapshotV1.
//
// WAL records carry global ids, as the shard sub-indexes do: one client
// batch fans out across shards, so Cluster.Insert/Delete log each shard's
// applied sub-batch to that shard's WAL, in per-shard application order,
// through the one logging call the engine uses (durable.Store.Log). Replay
// is then purely shard-local — durable.Store.Replay hands each record to the
// live path's own per-point steps (applyInsert, applyDelete) on the shard
// the record names — and shards can replay independently in any order.
package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"

	"drimann/internal/core"
	"drimann/internal/dataset"
	"drimann/internal/durable"
	"drimann/internal/ivf"
)

// AssignName is the fleet assignment sidecar file, written once at
// CreateFleetStore and never rewritten.
const AssignName = "ASSIGN"

const (
	assignMagic   = 0x44524153 // "DRAS"
	assignVersion = 1

	shardSnapMagic   = 0x44525348 // "DRSH"
	shardSnapVersion = 2
)

// ErrShardSnapshotV1 is RecoverCluster's error for a shard snapshot of
// version 1, written when shard sub-indexes held shard-local ids: there is
// no reader for it, so such a fleet store is rebuilt from its index.
var ErrShardSnapshotV1 = errors.New("cluster: shard snapshot version 1 (shard-local ids) is not readable")

// FleetStore is the durable state of one sharded fleet: a durable.Store
// per shard plus the assignment sidecar. Not safe for concurrent use on
// its own — the Cluster logs to it under its mutation mutex, and the
// routed Server additionally quiesces every replica batcher first.
type FleetStore struct {
	dir    string
	stores []*durable.Store
}

func fleetFS(opt durable.Options) durable.FS {
	if opt.FS != nil {
		return opt.FS
	}
	return durable.OS{}
}

func shardDir(dir string, s int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", s))
}

// Dir returns the fleet directory.
func (fst *FleetStore) Dir() string { return fst.dir }

// Shard returns shard s's durable.Store (for inspection and tests).
func (fst *FleetStore) Shard(s int) *durable.Store { return fst.stores[s] }

// Close syncs and closes every shard's live WAL.
func (fst *FleetStore) Close() error {
	errs := make([]error, len(fst.stores))
	for s, st := range fst.stores {
		errs[s] = st.Close()
	}
	return errors.Join(errs...)
}

// closeIfFailed closes the shard stores opened so far when the fleet store
// being set up failed (*err != nil): the error that stopped it is the one
// reported.
func (fst *FleetStore) closeIfFailed(err *error) {
	if *err != nil {
		fst.Close()
	}
}

// encodeAssign freezes the partitioning decision: policy, shard count,
// nlist, and (under AssignKMeans) the cluster→shard map, with a
// trailing CRC over everything before it.
func encodeAssign(policy Assignment, shards, nlist int, shardOfCluster []int32) []byte {
	var buf bytes.Buffer
	le := binary.LittleEndian
	var w [4]byte
	le.PutUint32(w[:], assignMagic)
	buf.Write(w[:])
	le.PutUint32(w[:], assignVersion)
	buf.Write(w[:])
	if policy == AssignKMeans {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	le.PutUint32(w[:], uint32(shards))
	buf.Write(w[:])
	le.PutUint32(w[:], uint32(nlist))
	buf.Write(w[:])
	if policy == AssignKMeans {
		binary.Write(&buf, le, shardOfCluster)
	}
	le.PutUint32(w[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(w[:])
	return buf.Bytes()
}

func decodeAssign(data []byte) (policy Assignment, shards, nlist int, shardOfCluster []int32, err error) {
	le := binary.LittleEndian
	fail := func(format string, args ...any) (Assignment, int, int, []int32, error) {
		return "", 0, 0, nil, fmt.Errorf("cluster: assignment sidecar: "+format, args...)
	}
	if len(data) < 4+4+1+4+4+4 {
		return fail("short file (%d bytes)", len(data))
	}
	if le.Uint32(data[len(data)-4:]) != crc32.ChecksumIEEE(data[:len(data)-4]) {
		return fail("checksum mismatch")
	}
	if le.Uint32(data[0:4]) != assignMagic {
		return fail("bad magic")
	}
	if v := le.Uint32(data[4:8]); v != assignVersion {
		return fail("unsupported version %d", v)
	}
	switch data[8] {
	case 0:
		policy = AssignHash
	case 1:
		policy = AssignKMeans
	default:
		return fail("unknown policy byte %d", data[8])
	}
	shards = int(le.Uint32(data[9:13]))
	nlist = int(le.Uint32(data[13:17]))
	if shards <= 0 || nlist <= 0 {
		return fail("corrupt header shards=%d nlist=%d", shards, nlist)
	}
	body := data[17 : len(data)-4]
	if policy == AssignKMeans {
		if len(body)%4 != 0 || len(body)/4 != nlist {
			return fail("cluster map is %d bytes, want %d entries", len(body), nlist)
		}
		shardOfCluster = make([]int32, nlist)
		for c := range shardOfCluster {
			s := int32(le.Uint32(body[c*4:]))
			if s < 0 || int(s) >= shards {
				return fail("cluster %d maps to shard %d of %d", c, s, shards)
			}
			shardOfCluster[c] = s
		}
	} else if len(body) != 0 {
		return fail("%d trailing bytes under hash policy", len(body))
	}
	return policy, shards, nlist, shardOfCluster, nil
}

// writeIDSection frames an int32 slice as `n u32 | ids n×i32 | crc u32`
// (CRC over the length and ids bytes).
func writeIDSection(w io.Writer, ids []int32) error {
	buf := make([]byte, 4+len(ids)*4)
	le := binary.LittleEndian
	le.PutUint32(buf, uint32(len(ids)))
	for i, id := range ids {
		le.PutUint32(buf[4+i*4:], uint32(id))
	}
	if _, err := w.Write(buf); err != nil {
		return err
	}
	var crc [4]byte
	le.PutUint32(crc[:], crc32.ChecksumIEEE(buf))
	_, err := w.Write(crc[:])
	return err
}

func readIDSection(data []byte) (ids []int32, rest []byte, err error) {
	le := binary.LittleEndian
	if len(data) < 8 {
		return nil, nil, fmt.Errorf("cluster: shard snapshot: truncated owners section")
	}
	n := int(le.Uint32(data))
	if n < 0 || n > (len(data)-8)/4 {
		return nil, nil, fmt.Errorf("cluster: shard snapshot: owners section claims %d ids beyond file", n)
	}
	end := 4 + n*4
	if le.Uint32(data[end:]) != crc32.ChecksumIEEE(data[:end]) {
		return nil, nil, fmt.Errorf("cluster: shard snapshot: owners section checksum mismatch")
	}
	ids = make([]int32, n)
	for i := range ids {
		ids[i] = int32(le.Uint32(data[4+i*4:]))
	}
	return ids, data[end+4:], nil
}

// shardSnapshot returns shard s's checkpoint writer: header, the shard's
// owned clusters, then the sub-index with its live overlay in ivf v2 format.
// Callers hold cl.mu (or are the only goroutine, during create and recovery).
func (cl *Cluster) shardSnapshot(s int) func(w io.Writer) error {
	return func(w io.Writer) error {
		le := binary.LittleEndian
		var head [8]byte
		le.PutUint32(head[0:4], shardSnapMagic)
		le.PutUint32(head[4:8], shardSnapVersion)
		if _, err := w.Write(head[:]); err != nil {
			return err
		}
		sh := cl.shards[s]
		if err := writeIDSection(w, sh.owned); err != nil {
			return err
		}
		return sh.Engine.Index().Save(w)
	}
}

func parseShardSnapshot(img []byte) (owned []int32, ixBytes []byte, err error) {
	le := binary.LittleEndian
	if len(img) < 8 || le.Uint32(img[0:4]) != shardSnapMagic {
		return nil, nil, fmt.Errorf("cluster: shard snapshot: bad magic")
	}
	switch v := le.Uint32(img[4:8]); v {
	case shardSnapVersion:
	case 1:
		return nil, nil, ErrShardSnapshotV1
	default:
		return nil, nil, fmt.Errorf("cluster: shard snapshot: unsupported version %d", v)
	}
	return readIDSection(img[8:])
}

// CreateFleetStore initializes durable state for cl under opt.Dir — the
// assignment sidecar plus one per-shard store seeded with an initial
// checkpoint — and attaches it: from here on every Cluster.Insert and
// Delete logs its applied sub-batches to the owning shards' WALs before
// acknowledging, and Compact checkpoints every shard. The caller closes
// the returned store after the fleet's last mutation (the routed Server
// does not own it). If a shard's store cannot be created, the stores of the
// shards before it are closed again.
func CreateFleetStore(cl *Cluster, opt durable.Options) (_ *FleetStore, err error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.fstore != nil {
		return nil, fmt.Errorf("cluster: fleet store already attached")
	}
	fsys := fleetFS(opt)
	if err := fsys.MkdirAll(opt.Dir); err != nil {
		return nil, err
	}
	side := encodeAssign(cl.opt.Assignment, len(cl.shards), cl.ix.NList, cl.shardOfCluster)
	if err := durable.WriteFileAtomic(fsys, filepath.Join(opt.Dir, AssignName), func(w io.Writer) error {
		_, err := w.Write(side)
		return err
	}); err != nil {
		return nil, err
	}
	fst := &FleetStore{dir: opt.Dir}
	defer fst.closeIfFailed(&err)
	for s := range cl.shards {
		st, err := durable.Create(durable.Options{Dir: shardDir(opt.Dir, s), Policy: opt.Policy, FS: opt.FS},
			cl.shardSnapshot(s))
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d store: %w", s, err)
		}
		fst.stores = append(fst.stores, st)
	}
	cl.fstore = fst
	return fst, nil
}

// logBatch logs each shard's applied sub-batch (global ids, plus the raw
// vectors of an insert batch, in application order) to that shard's WAL as
// one record (durable.Store.Log). A shard that applied nothing logs
// nothing, and neither does a fleet without a store. Callers hold cl.mu.
func (cl *Cluster) logBatch(pend []durable.Mutation) error {
	if cl.fstore == nil {
		return nil
	}
	for s, m := range pend {
		if err := cl.fstore.stores[s].Log(m); err != nil {
			return err
		}
	}
	return nil
}

// checkpointShards rotates every shard's {snapshot, WAL} generation.
// Callers hold cl.mu.
func (cl *Cluster) checkpointShards() error {
	for s := range cl.shards {
		if err := cl.fstore.stores[s].Checkpoint(cl.shardSnapshot(s)); err != nil {
			return fmt.Errorf("cluster: shard %d checkpoint: %w", s, err)
		}
	}
	return nil
}

// Checkpoint rotates every shard's durable generation without
// compacting (snapshots carry the live overlays; base lists are
// untouched, so recovery redeploys them exactly). No-op without an
// attached store. Not safe concurrently with searches — the routed
// Server exposes this under fleet-wide quiescence.
func (cl *Cluster) Checkpoint() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.fstore == nil {
		return nil
	}
	return cl.checkpointShards()
}

// RecoverCluster rebuilds a fleet from the durable state in opt.Dir:
// the assignment sidecar fixes the partitioning, each shard redeploys
// from its checkpoint snapshot (base lists are always a deploy-time
// state, so core.New reproduces placement and decomposition exactly),
// re-adopts its overlay, replays its WAL tail, and rotates to a fresh
// generation. profile and copt must match the original deployment for
// bit-identity, exactly as in core.Recover. The returned cluster has
// the store attached and ready for appends; unacknowledged mutations
// (never WAL-synced) may be lost, acknowledged ones never are. A failed
// recovery closes every shard store it opened.
func RecoverCluster(opt durable.Options, profile dataset.U8Set, copt Options) (_ *Cluster, _ *FleetStore, err error) {
	if err := copt.defaults(); err != nil {
		return nil, nil, err
	}
	fsys := fleetFS(opt)
	raw, err := fsys.ReadFile(filepath.Join(opt.Dir, AssignName))
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: recover: %w", err)
	}
	policy, S, nlist, shardOfCluster, err := decodeAssign(raw)
	if err != nil {
		return nil, nil, err
	}
	if policy != copt.Assignment {
		return nil, nil, fmt.Errorf("cluster: recover: store was partitioned with %q, options say %q", policy, copt.Assignment)
	}
	if S != copt.Shards {
		return nil, nil, fmt.Errorf("cluster: recover: store has %d shards, options say %d", S, copt.Shards)
	}

	cl := &Cluster{opt: copt, shards: make([]*Shard, S), shardOfCluster: shardOfCluster}
	fst := &FleetStore{dir: opt.Dir}
	defer fst.closeIfFailed(&err)
	for s := 0; s < S; s++ {
		st, err := durable.Open(durable.Options{Dir: shardDir(opt.Dir, s), Policy: opt.Policy, FS: opt.FS})
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: recover shard %d: %w", s, err)
		}
		fst.stores = append(fst.stores, st)
		img, err := st.SnapshotBytes()
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: recover shard %d snapshot: %w", s, err)
		}
		owned, ixBytes, err := parseShardSnapshot(img)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: recover shard %d: %w", s, err)
		}
		for _, c := range owned {
			if c < 0 || int(c) >= nlist {
				return nil, nil, fmt.Errorf("cluster: recover shard %d: owned cluster %d out of range", s, c)
			}
		}
		sub, err := ivf.Load(bytes.NewReader(ixBytes))
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: recover shard %d index: %w", s, err)
		}
		if sub.NList != nlist {
			return nil, nil, fmt.Errorf("cluster: recover shard %d: index nlist %d != sidecar %d", s, sub.NList, nlist)
		}
		overlay := sub.DetachOverlay()
		eng, err := core.New(sub, profile, copt.Engine)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: recover shard %d deploy: %w", s, err)
		}
		if err := eng.AdoptOverlay(overlay); err != nil {
			return nil, nil, fmt.Errorf("cluster: recover shard %d overlay: %w", s, err)
		}
		cl.shards[s] = &Shard{Engine: eng, owned: owned, Points: len(sub.LiveIDs())}
	}

	// Shared front-door state: every shard sub-index carries the full
	// (identical) quantizer tables, so shard 0's stand in for the
	// original unsharded index — post-build the cluster only uses its
	// quantizers (AssignVec, Centroid, scratch), never its lists.
	cl.ix = quantizerView(cl.shards[0].Engine.Index())
	cl.ensureShardOf()
	cl.deriveOwners()

	// Replay each shard's WAL tail through the live mutation path, then
	// grow the replica set and rotate every generation (discarding any
	// torn tails) so the store accepts appends again.
	for s := 0; s < S; s++ {
		if err := fst.stores[s].Replay(func(m durable.Mutation) error { return cl.replayShard(s, m) }); err != nil {
			return nil, nil, fmt.Errorf("cluster: recover shard %d: %w", s, err)
		}
	}
	for s, sh := range cl.shards {
		if err := sh.growReplicas(copt.Replicas); err != nil {
			return nil, nil, fmt.Errorf("cluster: recover shard %d %w", s, err)
		}
	}
	cl.loc = cl.shards[0].Engine.Locator()
	cl.fstore = fst
	if err := cl.checkpointShards(); err != nil {
		return nil, nil, err
	}
	return cl, fst, nil
}

// replayShard applies one of shard s's logged mutations through the live
// path's per-point steps: neither re-routes (the record already names this
// shard).
func (cl *Cluster) replayShard(s int, m durable.Mutation) error {
	if m.Op == durable.OpDelete {
		for _, g := range m.IDs {
			if err := cl.applyDelete(s, g); err != nil {
				return err
			}
		}
		return nil
	}
	if m.Dim != cl.ix.Dim {
		return fmt.Errorf("dim %d != index dim %d", m.Dim, cl.ix.Dim)
	}
	for j, g := range m.IDs {
		if err := cl.applyInsert(s, g, m.Vecs[j*m.Dim:(j+1)*m.Dim]); err != nil {
			return err
		}
	}
	return nil
}

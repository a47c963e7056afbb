// Fleet durability: a sharded Cluster has the crash contract of the engines
// it is made of. Every shard engine owns a durable.Store (core's CreateStore
// and Resume): its Insert and Delete log exactly the points they applied,
// its Checkpoint rotates the store, and its recovery replays the WAL through
// its own mutation path. Every acknowledged mutation survives a kill at any
// instant, and RecoverCluster restarts the fleet bit-identically (search
// results, simulated metrics, memory stats, owner maps). It recovers the way
// New deploys: every shard snapshot holds the fleet's quantizer in full, so
// recovery checks that they hold one (ErrMixedQuantizers), prepares once and
// deploys the shards side by side, then resumes them in shard order.
//
// Layout: one fleet directory holding an immutable ASSIGN sidecar plus one
// engine store per shard under shard-%03d/, whose snapshot is the shard
// sub-index (its points under their global ids) in the ivf v2 checkpoint
// format. The sidecar freezes the partitioning decision — assignment policy,
// shard count, and the cluster→shard map under AssignKMeans — because the map
// was computed from the original full index and profile heat, which no longer
// exist at recovery time. Nothing else is fleet-wide: the clusters a shard is
// probed for follow from its engine's placement (deriveOwners), which
// recovery redeploys from the snapshot. A version 1 sidecar, whose shard
// stores wrapped their snapshots in a format of their own, is refused.
//
// WAL records carry global ids, as the shard sub-indexes do: one client
// batch fans out across shards, each shard's part of it is one engine call
// and so one record in that shard's WAL, and shards replay independently in
// any order.
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
	assignVersion = 2
)

// FleetStore is the durable state of one sharded fleet: the assignment
// sidecar plus the store each shard engine logs to. Not safe for concurrent
// use on its own — the Cluster mutates its engines under its mutation mutex,
// and the routed Server additionally quiesces every replica batcher first.
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

// shardStore is shard s's store options under the fleet directory.
func shardStore(opt durable.Options, s int) durable.Options {
	opt.Dir = filepath.Join(opt.Dir, fmt.Sprintf("shard-%03d", s))
	return opt
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

// CreateFleetStore initializes durable state for cl under opt.Dir — the
// assignment sidecar, then one store per shard engine (core's CreateStore,
// seeded with the engine's checkpoint) — after which every Cluster.Insert
// and Delete is logged by the shard engines that apply it before it is
// acknowledged, and Compact checkpoints every shard. The caller closes the
// returned store after the fleet's last mutation (the routed Server does not
// own it). If a shard's store cannot be created, the stores of the shards
// before it are closed and detached again.
func CreateFleetStore(cl *Cluster, opt durable.Options) (*FleetStore, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
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
	for s, sh := range cl.shards {
		st, err := sh.Engine.CreateStore(shardStore(opt, s))
		if err != nil {
			for _, sh := range cl.shards[:s] {
				sh.Engine.CloseStore()
			}
			return nil, fmt.Errorf("cluster: shard %d store: %w", s, err)
		}
		fst.stores = append(fst.stores, st)
	}
	return fst, nil
}

// Checkpoint rotates every shard's durable generation without compacting
// (snapshots carry the live overlays; base lists are untouched, so recovery
// redeploys them exactly). No-op without an attached store. Not safe
// concurrently with searches — the routed Server exposes this under
// fleet-wide quiescence.
func (cl *Cluster) Checkpoint() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.checkpoint()
}

// checkpoint checkpoints every shard engine, in shard order. Callers hold
// cl.mu.
func (cl *Cluster) checkpoint() error {
	for s, sh := range cl.shards {
		if err := sh.Engine.Checkpoint(); err != nil {
			return fmt.Errorf("cluster: shard %d checkpoint: %w", s, err)
		}
	}
	return nil
}

// ErrMixedQuantizers refuses a fleet directory whose shard checkpoints do not
// all hold shard 0's quantizer (a shard store copied in from another build):
// the shards deploy from one located profile and one LUT term table.
var ErrMixedQuantizers = errors.New("cluster: shard quantizers differ")

// RecoverCluster rebuilds a fleet from the durable state in opt.Dir the way
// New deploys one. The assignment sidecar fixes the partitioning; every shard
// checkpoint is loaded (core.LoadCheckpoint) and must hold shard 0's quantizer
// bit for bit; one core.Prepare serves the shards, which deploy side by side
// and then resume in shard order (core.Engine.Resume: re-adopt the overlay,
// replay the WAL tail, rotate to a fresh generation). profile and copt must
// match the original deployment for bit-identity, exactly as in
// core.Recover. The returned cluster logs to the returned store;
// unacknowledged mutations (never WAL-synced) may be lost, acknowledged ones
// never are. A failed recovery closes every shard store it opened.
func RecoverCluster(opt durable.Options, profile dataset.U8Set, copt Options) (_ *Cluster, _ *FleetStore, err error) {
	if err := copt.defaults(); err != nil {
		return nil, nil, err
	}
	raw, err := fleetFS(opt).ReadFile(filepath.Join(opt.Dir, AssignName))
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

	fst := &FleetStore{dir: opt.Dir}
	defer func() {
		if err != nil {
			fst.Close()
		}
	}()
	ixs, overlays := make([]*ivf.Index, S), make([][]byte, S)
	for s := range S {
		st, ix, overlay, err := core.LoadCheckpoint(shardStore(opt, s))
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: recover shard %d: %w", s, err)
		}
		fst.stores, ixs[s], overlays[s] = append(fst.stores, st), ix, overlay
		if ix.NList != nlist {
			return nil, nil, fmt.Errorf("cluster: recover shard %d: index nlist %d != sidecar %d", s, ix.NList, nlist)
		}
		if !ix.SameQuantizer(ixs[0]) {
			return nil, nil, fmt.Errorf("cluster: recover shard %d: %w", s, ErrMixedQuantizers)
		}
	}
	ps, lut, err := core.Prepare(ixs[0], profile, copt.Engine)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: recover: %w", err)
	}
	shards, err := deployShards(copt, func(s int) (*core.Engine, error) {
		return core.Deploy(ixs[s], profile, ps, lut, copt.Engine)
	})
	if err != nil {
		return nil, nil, err
	}
	// One shard after another, so the checkpoints keep one filesystem op order.
	for s, sh := range shards {
		if err := sh.Engine.Resume(fst.stores[s], overlays[s]); err != nil {
			return nil, nil, fmt.Errorf("cluster: recover shard %d: %w", s, err)
		}
	}
	return newCluster(copt, ixs[0], shards, shardOfCluster), fst, nil
}

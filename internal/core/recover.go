// Crash recovery at the engine level: Recover rebuilds a serving engine
// from a durable.Store — checkpoint snapshot plus WAL tail — so that a
// process killed at any instant restarts with the exact pre-crash
// logical corpus: bit-identical search results and memory stats over
// every acknowledged (WAL-synced) mutation. It is cut where it deploys:
// LoadCheckpoint, then New, then Resume; a fleet (cluster.RecoverCluster)
// loads every shard, deploys them all from one Prepare, then resumes each.
//
// Why bit-identity holds: checkpoints are only written where the base
// lists equal a deploy-time state (engine creation, Compact, and the
// post-replay rotation below), so re-running New over the snapshot's
// base lists reproduces the original placement, heat profile, and
// cached LC demand exactly (layout.Optimize is deterministic in its
// inputs). The snapshot's overlay section restores the append segments
// and tombstones byte-for-byte, the demand and scheduler heat of the
// slices carrying them are recounted from the restored codes, and WAL
// replay re-routes and re-encodes the logged raw vectors with the frozen
// quantizers — the same arithmetic the original Insert ran.
package core

import (
	"bytes"
	"fmt"

	"drimann/internal/dataset"
	"drimann/internal/durable"
	"drimann/internal/ivf"
)

// CreateStore initializes a durable store for this engine in opt.Dir —
// the initial checkpoint plus an empty WAL — and attaches it: from then
// on Insert and Delete log exactly the points they applied before they
// return, and Compact and Checkpoint rotate the store's generation. The
// caller closes the returned store after the engine's last mutation.
func (e *Engine) CreateStore(opt durable.Options) (*durable.Store, error) {
	if e.store != nil {
		return nil, fmt.Errorf("core: store already attached")
	}
	st, err := durable.Create(opt, e.ix.Save)
	if err != nil {
		return nil, err
	}
	e.store = st
	return st, nil
}

// Checkpoint writes a fresh snapshot — the index with its live mutation
// overlay, in the ivf v2 checkpoint format — to the attached store and
// rotates its WAL, without compacting. No-op without a store. Like every
// mutation it must not run concurrently with searches.
func (e *Engine) Checkpoint() error {
	if e.store == nil {
		return nil
	}
	return e.store.Checkpoint(e.ix.Save)
}

// CloseStore closes and detaches the attached store, if any.
func (e *Engine) CloseStore() (err error) {
	if e.store != nil {
		err, e.store = e.store.Close(), nil
	}
	return err
}

// log writes m, the applied prefix of a mutation that stopped with
// applyErr (nil: it applied whole), to the attached store, and returns
// applyErr. A logging failure wins: the prefix is live in memory but not
// acknowledged, since a crash may forget it.
func (e *Engine) log(m durable.Mutation, applyErr error) error {
	if e.store != nil {
		if err := e.store.Log(m); err != nil {
			return fmt.Errorf("core: mutation applied but not durable: %w", err)
		}
	}
	return applyErr
}

// Recover rebuilds an engine from the durable state in opt.Dir: it loads the
// checkpoint, deploys over its base lists with New (profile and opts must
// match the original deployment for bit-identity) and resumes. The returned
// engine logs its mutations to the store as CreateStore's does; the caller
// closes it. Unacknowledged mutations (never WAL-synced) may be lost;
// acknowledged ones never are.
func Recover(opt durable.Options, profile dataset.U8Set, opts Options) (*Engine, *durable.Store, error) {
	st, ix, overlay, err := LoadCheckpoint(opt)
	if err != nil {
		return nil, nil, err
	}
	eng, err := New(ix, profile, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("core: recover deploy: %w", err)
	}
	if err := eng.Resume(st, overlay); err != nil {
		return nil, nil, err
	}
	return eng, st, nil
}

// LoadCheckpoint opens the store in opt.Dir and loads its checkpoint
// snapshot: the index with its mutation overlay detached (the overlay's
// encoded bytes are returned beside it), ready for New or Deploy. It opens
// no file for writing.
func LoadCheckpoint(opt durable.Options) (*durable.Store, *ivf.Index, []byte, error) {
	st, err := durable.Open(opt)
	if err != nil {
		return nil, nil, nil, err
	}
	img, err := st.SnapshotBytes()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: recover snapshot: %w", err)
	}
	ix, err := ivf.Load(bytes.NewReader(img))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: recover snapshot: %w", err)
	}
	return st, ix, ix.DetachOverlay(), nil
}

// Resume brings an engine deployed over LoadCheckpoint's index up to the
// store's last acknowledged state. It re-adopts the overlay: the append
// segments and tombstones, placement reachability for clusters whose base
// list is empty, and the cached LC demand and scheduler heat of every slice
// now carrying an append segment — a count over the restored codes, so it
// equals what the original engine refreshed insert by insert. It replays the
// WAL tail in order and rotates to a fresh checkpoint, discarding any torn
// tail, and only then attaches st, so replay logs nothing.
func (e *Engine) Resume(st *durable.Store, overlay []byte) error {
	if err := e.ix.DecodeAppendLog(overlay); err != nil {
		return fmt.Errorf("core: recover overlay: %w", err)
	}
	for c := 0; c < e.ix.NList; c++ {
		if e.ix.AppendLen(c) > 0 {
			e.ensureReachable(int32(c))
			e.recountCluster(int32(c))
		}
	}
	// Replay is deterministic: inserts re-route and re-encode the logged
	// raw vectors with the frozen quantizers.
	if err := st.Replay(func(m durable.Mutation) error {
		if m.Op == durable.OpInsert {
			return e.Insert(dataset.U8Set{N: len(m.IDs), D: m.Dim, Data: m.Vecs}, m.IDs)
		}
		return e.Delete(m.IDs)
	}); err != nil {
		return fmt.Errorf("core: recover: %w", err)
	}
	if err := st.Checkpoint(e.ix.Save); err != nil {
		return fmt.Errorf("core: recover checkpoint: %w", err)
	}
	e.store = st
	return nil
}

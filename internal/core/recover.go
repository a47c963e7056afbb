// Crash recovery at the engine level: Recover rebuilds a serving engine
// from a durable.Store — checkpoint snapshot plus WAL tail — so that a
// process killed at any instant restarts with the exact pre-crash
// logical corpus: bit-identical search results and memory stats over
// every acknowledged (WAL-synced) mutation.
//
// Why bit-identity holds: checkpoints are only written where the base
// lists equal a deploy-time state (engine creation, Compact, and the
// post-replay rotation below), so re-running New over the snapshot's
// base lists reproduces the original placement, heat profile, and
// cached LC demand exactly (layout.Optimize is deterministic in its
// inputs). The snapshot's overlay section restores the append segments
// and tombstones byte-for-byte, the demand and scheduler heat of the
// slices carrying them are recounted from the restored codes, and WAL
// replay re-routes and re-encodes the logged
// raw vectors with the frozen quantizers — the same arithmetic the
// original Insert ran.
package core

import (
	"bytes"
	"fmt"
	"io"

	"drimann/internal/dataset"
	"drimann/internal/durable"
	"drimann/internal/ivf"
)

// Snapshot writes the engine's durable state — the index with its live
// mutation overlay — in the v2 checkpoint format. It must not run
// concurrently with mutations or searches; the serving layer calls it
// at the same batch boundary that serializes mutations.
func (e *Engine) Snapshot(w io.Writer) error { return e.ix.Save(w) }

// CreateStore initializes a durable store for this engine in opt.Dir,
// writing the initial checkpoint and opening a WAL for appends.
func (e *Engine) CreateStore(opt durable.Options) (*durable.Store, error) {
	return durable.Create(opt, e.Snapshot)
}

// Recover rebuilds an engine from the durable state in opt.Dir: it
// loads the checkpoint snapshot, deploys over its base lists exactly as
// New did originally (profile and opts must match the original
// deployment for bit-identity), re-adopts the snapshot's mutation
// overlay, replays the WAL tail in order, and rotates to a fresh
// checkpoint — discarding any torn tail — so the returned store is
// ready for appends. Unacknowledged mutations (never WAL-synced) may be
// lost; acknowledged ones never are.
func Recover(opt durable.Options, profile dataset.U8Set, opts Options) (*Engine, *durable.Store, error) {
	st, err := durable.Open(opt)
	if err != nil {
		return nil, nil, err
	}
	img, err := st.SnapshotBytes()
	if err != nil {
		return nil, nil, fmt.Errorf("core: recover snapshot: %w", err)
	}
	ix, err := ivf.Load(bytes.NewReader(img))
	if err != nil {
		return nil, nil, fmt.Errorf("core: recover snapshot: %w", err)
	}
	overlay := ix.DetachOverlay()
	eng, err := New(ix, profile, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("core: recover deploy: %w", err)
	}
	if err := eng.AdoptOverlay(overlay); err != nil {
		return nil, nil, fmt.Errorf("core: recover overlay: %w", err)
	}
	recs, err := st.WALRecords()
	if err != nil {
		return nil, nil, fmt.Errorf("core: recover WAL: %w", err)
	}
	if err := eng.ReplayWAL(recs); err != nil {
		return nil, nil, err
	}
	if err := st.Checkpoint(eng.Snapshot); err != nil {
		return nil, nil, fmt.Errorf("core: recover checkpoint: %w", err)
	}
	return eng, st, nil
}

// AdoptOverlay restores a mutation overlay detached from a checkpoint
// snapshot (ivf.Index.DetachOverlay) onto a freshly deployed engine:
// the index overlay itself, placement reachability for clusters whose
// base list is empty, and the cached LC demand and scheduler heat of
// every slice that now carries an append segment — a count over the
// restored codes, so it equals what the original engine refreshed
// insert by insert.
func (e *Engine) AdoptOverlay(log []byte) error {
	if err := e.ix.DecodeAppendLog(log); err != nil {
		return err
	}
	for c := 0; c < e.ix.NList; c++ {
		n := e.ix.AppendLen(c)
		if n == 0 {
			continue
		}
		e.ensureReachable(int32(c))
		e.recountCluster(int32(c))
	}
	return nil
}

// ReplayWAL applies decoded WAL records in order through the normal
// mutation path. Replay is deterministic: inserts re-route and
// re-encode the logged raw vectors with the frozen quantizers.
func (e *Engine) ReplayWAL(recs [][]byte) error {
	for i, rec := range recs {
		m, err := durable.DecodeMutation(rec)
		if err != nil {
			return fmt.Errorf("core: WAL record %d: %w", i, err)
		}
		switch m.Op {
		case durable.OpInsert:
			vecs := dataset.U8Set{N: len(m.IDs), D: m.Dim, Data: m.Vecs}
			if err := e.Insert(vecs, m.IDs); err != nil {
				return fmt.Errorf("core: WAL record %d replay: %w", i, err)
			}
		case durable.OpDelete:
			if err := e.Delete(m.IDs); err != nil {
				return fmt.Errorf("core: WAL record %d replay: %w", i, err)
			}
		default:
			return fmt.Errorf("core: WAL record %d: unknown op %d", i, m.Op)
		}
	}
	return nil
}

package cluster_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"drimann/internal/cluster"
	"drimann/internal/core"
	"drimann/internal/dataset"
	"drimann/internal/durable"
	"drimann/internal/engine"
	"drimann/internal/ivf"
)

// TestWALDigest pins every byte a fixed mutation script leaves in the
// durable stores of one engine and of a 2-shard fleet: after every step it
// hashes each store's manifest, snapshot and WAL, and the filesystem's
// operation count. The script has multi-point batches, batches that fail
// part-way (only the applied prefix is logged), a bare checkpoint and a
// compaction. A fleet's shard engines log and rotate their own stores, so
// both pins hold the bytes and the write and sync sequence of the engine's
// one path; the fleet's also holds how a batch splits into one record per
// shard (the shards take their parts side by side). The pins are amd64's, like
// TestBuildDigest's: the snapshots carry the trained centroids.
func TestWALDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned for amd64 float arithmetic, not %s", runtime.GOARCH)
	}
	ix, s, b := durableFixture(t, 3000, 16, 200)
	var img bytes.Buffer
	if err := ix.Save(&img); err != nil {
		t.Fatal(err)
	}
	fresh := func() *ivf.Index {
		fx, err := ivf.Load(bytes.NewReader(img.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return fx
	}
	for _, tc := range []struct {
		name, want string
		open       func(fs *durable.MemFS) (engine.Mutable, []*durable.Store, error)
	}{
		{"engine", "5added35c265e88d", func(fs *durable.MemFS) (engine.Mutable, []*durable.Store, error) {
			e, err := core.New(fresh(), s.Queries, engineOpts())
			if err != nil {
				return nil, nil, err
			}
			st, err := e.CreateStore(durable.Options{Dir: "eng", FS: fs})
			return e, []*durable.Store{st}, err
		}},
		{"fleet", "7abcb158758d224d", func(fs *durable.MemFS) (engine.Mutable, []*durable.Store, error) {
			cl, err := cluster.New(fresh(), s.Queries, cluster.Options{Shards: 2, Assignment: cluster.AssignKMeans, Engine: engineOpts()})
			if err != nil {
				return nil, nil, err
			}
			fst, err := cluster.CreateFleetStore(cl, durable.Options{Dir: "fleet", FS: fs})
			if err != nil {
				return nil, nil, err
			}
			return cl, []*durable.Store{fst.Shard(0), fst.Shard(1)}, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := durable.NewMemFS(durable.FaultPlan{})
			m, stores, err := tc.open(fs)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			sum := func() {
				fmt.Fprintf(h, "ops %d|", fs.Ops())
				for _, st := range stores {
					man := st.Manifest()
					fmt.Fprintf(h, "%d %s %s|", man.Seq, man.Snapshot, man.WAL)
					for _, name := range []string{man.Snapshot, man.WAL} {
						data, err := fs.ReadFile(filepath.Join(st.Dir(), name))
						if err != nil {
							t.Fatal(err)
						}
						h.Write(data)
					}
				}
			}
			ins := func(ids ...int32) func() error {
				return func() error {
					var vecs []uint8
					for _, id := range ids {
						vecs = append(vecs, s.Base.Vec(int(id))...)
					}
					return m.Insert(dataset.U8Set{N: len(ids), D: s.Base.D, Data: vecs}, ids)
				}
			}
			del := func(ids ...int32) func() error { return func() error { return m.Delete(ids) } }
			n := int32(b)
			sum()
			for i, step := range []struct {
				run     func() error
				wantErr bool
			}{
				{ins(n, n+1, n+2, n+3, n+4), false},
				{ins(n+5, n+6, 7, n+8), true}, // 7 is live: n+5 and n+6 apply
				{del(3, n+1, 99), false},
				{del(n+2, n+100, n+4), true}, // n+100 was never inserted: n+2 applies
				{m.Checkpoint, false},
				{ins(n+9, n+10, n+11, n+12), false},
				{m.Compact, false},
				{ins(n+13, n+14), false},
				{del(n+13, 11), false},
			} {
				if err := step.run(); (err != nil) != step.wantErr {
					t.Fatalf("step %d: error %v, want one: %v", i, err, step.wantErr)
				}
				sum()
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != tc.want {
				t.Fatalf("WAL digest %s, pinned %s", got, tc.want)
			}
		})
	}
}

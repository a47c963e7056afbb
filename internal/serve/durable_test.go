package serve_test

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"drimann/internal/core"
	"drimann/internal/dataset"
	"drimann/internal/durable"
	"drimann/internal/ivf"
	"drimann/internal/pq"
	"drimann/internal/serve"
)

// durableEngine is testEngine plus the deployment inputs Recover needs
// to reproduce the engine bit-identically.
func durableEngine(t testing.TB, n, queries int) (*core.Engine, *dataset.Synth, core.Options) {
	t.Helper()
	s := dataset.Generate(dataset.SynthConfig{
		Name: "serve-durable", N: n, D: 64, NumQueries: queries,
		NumClusters: 48, Seed: 13, Noise: 9,
	})
	base := dataset.U8Set{N: n - 256, D: s.Base.D, Data: s.Base.Data[:(n-256)*s.Base.D]}
	ix, err := ivf.Build(base, ivf.BuildConfig{
		NList:       64,
		PQ:          pq.Config{M: 16, CB: 256},
		KMeansIters: 6,
		TrainSample: 3000,
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.NumDPUs = 16
	opts.NProbe = 8
	opts.K = 10
	eng, err := core.New(ix, s.Queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng, s, opts
}

// TestServeDurableRecoverUnderTraffic is the recover-under-traffic
// stress (CI repeats it with -race): a server over an engine with a
// store attached absorbs concurrent searches and mutations, closes
// cleanly, and a recovered engine over the same store serves
// bit-identical results; the recovered store then accepts further
// durable mutations through the server.
func TestServeDurableRecoverUnderTraffic(t *testing.T) {
	eng, s, opts := durableEngine(t, 4000, 64)
	dir := t.TempDir()
	st, err := eng.CreateStore(durable.Options{Dir: dir, Policy: durable.SyncEveryBatch})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(eng, serve.Options{MaxBatch: 8, MaxWait: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) * 7919))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := srv.Search(context.Background(), s.Queries.Vec(rng.Intn(s.Queries.N)), 0); err != nil {
					t.Errorf("search: %v", err)
					return
				}
			}
		}(g)
	}

	// Mutations under traffic: insert the reserved corpus tail in small
	// batches, delete a few base points and one fresh insert, compact
	// once mid-stream (checkpoint + WAL rotation under load).
	base := s.Base.N - 256
	for lo := base; lo < base+120; lo += 8 {
		ids := make([]int32, 8)
		for i := range ids {
			ids[i] = int32(lo + i)
		}
		vecs := dataset.U8Set{N: 8, D: s.Base.D, Data: s.Base.Data[lo*s.Base.D : (lo+8)*s.Base.D]}
		if err := srv.Insert(vecs, ids); err != nil {
			t.Fatal(err)
		}
		if lo == base+56 {
			if err := srv.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := srv.Delete([]int32{3, 99, int32(base + 5)}); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	// Reference answers from the live (never-crashed) engine, then kill.
	want := make([]serve.Response, s.Queries.N)
	for qi := range want {
		if want[qi], err = srv.Search(context.Background(), s.Queries.Vec(qi), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, rst, err := core.Recover(durable.Options{Dir: dir, Policy: durable.SyncEveryBatch}, s.Queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rst.Close()
	rsrv, err := serve.New(recovered, serve.Options{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer rsrv.Close()
	for qi := range want {
		got, err := rsrv.Search(context.Background(), s.Queries.Vec(qi), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.IDs, want[qi].IDs) || !slices.Equal(got.Items, want[qi].Items) {
			t.Fatalf("query %d diverges after recovery:\n got %v\nwant %v", qi, got.IDs, want[qi].IDs)
		}
	}
	// The recovered store keeps accepting acknowledged mutations.
	tail := base + 200
	one := dataset.U8Set{N: 1, D: s.Base.D, Data: s.Base.Vec(tail)}
	if err := rsrv.Insert(one, []int32{int32(tail)}); err != nil {
		t.Fatal(err)
	}
	if err := rsrv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

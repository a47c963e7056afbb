package serve_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drimann/internal/serve"
)

// TestServeMaxBatchClamp is the regression test for the Options.defaults
// bug where a user MaxBatch larger than the engine's scheduling batch size
// was accepted verbatim: the engine would silently split such launches into
// several scheduling batches internally, so the launch-duration EWMA and
// the BatchSize stats would describe a unit the batcher never actually
// launched. The resolved MaxBatch must clamp to Engine.MaxBatch().
func TestServeMaxBatchClamp(t *testing.T) {
	eng, _ := testEngine(t, 2000, 8)
	srv, err := serve.New(eng, serve.Options{MaxBatch: 5 * eng.MaxBatch()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got := srv.Options().MaxBatch; got != eng.MaxBatch() {
		t.Fatalf("resolved MaxBatch = %d, want engine batch size %d", got, eng.MaxBatch())
	}
	// The queue bound derives from the clamped value.
	if got := srv.QueueLimit(); got != 4*eng.MaxBatch() {
		t.Fatalf("queue bound = %d, want %d", got, 4*eng.MaxBatch())
	}
	// A legal explicit value still wins.
	srv2, err := serve.New(eng, serve.Options{MaxBatch: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if got := srv2.Options().MaxBatch; got != 3 {
		t.Fatalf("resolved MaxBatch = %d, want 3", got)
	}
	if got := srv2.QueueLimit(); got != 12 {
		t.Fatalf("queue bound = %d, want 12", got)
	}
}

// TestServeResponseDoesNotAliasEngine pins the demux-boundary copy: a
// Response handed to one caller must stay valid and immutable-by-others for
// as long as the caller holds it, even after the engine has served many
// further launches, and mutating a held Response must not leak into
// responses other callers receive later.
func TestServeResponseDoesNotAliasEngine(t *testing.T) {
	eng, s := testEngine(t, 4000, 32)
	srv, err := serve.New(eng, serve.Options{MaxBatch: 8, MaxWait: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	first, err := srv.Search(context.Background(), s.Queries.Vec(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	snapIDs := append([]int32(nil), first.IDs...)
	snapItems := append(first.Items[:0:0], first.Items...)

	// Drive plenty of subsequent launches over other queries.
	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		for qi := 1; qi < s.Queries.N; qi++ {
			wg.Add(1)
			go func(qi int) {
				defer wg.Done()
				if _, err := srv.Search(context.Background(), s.Queries.Vec(qi), 0); err != nil {
					t.Errorf("query %d: %v", qi, err)
				}
			}(qi)
		}
		wg.Wait()
	}
	if t.Failed() {
		t.FailNow()
	}
	if !reflect.DeepEqual(first.IDs, snapIDs) || !reflect.DeepEqual(first.Items, snapItems) {
		t.Fatal("held response mutated by subsequent launches")
	}

	// The reverse direction: scribbling over a held response must not
	// corrupt what a later identical query observes.
	first.IDs[0] = -999
	first.Items[0].ID = -999
	again, err := srv.Search(context.Background(), s.Queries.Vec(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if again.IDs[0] == -999 || again.Items[0].ID == -999 {
		t.Fatal("response storage shared between callers")
	}
}

// TestServeMixedKLedger is the ledger-balance property under mixed-k
// traffic: concurrent Search calls with random k < K must each get a
// consistently truncated IDs/Items pair (equal lengths, pairwise-matching
// IDs, a prefix of the full-k answer), and once the server has drained,
// Enqueued == Completed + Canceled + Failed.
func TestServeMixedKLedger(t *testing.T) {
	eng, s := testEngine(t, 5000, 64)
	full, err := eng.SearchBatch(s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(eng, serve.Options{MaxBatch: 16, MaxWait: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const perG = 30
	var outcomes atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)*104729 + 1))
			for i := 0; i < perG; i++ {
				qi := rng.Intn(s.Queries.N)
				k := 1 + rng.Intn(eng.K())
				ctx := context.Background()
				var cancel context.CancelFunc
				if rng.Intn(5) == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(200))*time.Microsecond)
				}
				resp, err := srv.Search(ctx, s.Queries.Vec(qi), k)
				if cancel != nil {
					cancel()
				}
				outcomes.Add(1)
				if err != nil {
					if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
						t.Errorf("unexpected error: %v", err)
					}
					continue
				}
				want := full.IDs[qi]
				if len(want) > k {
					want = want[:k]
				}
				if len(resp.IDs) != len(want) || len(resp.Items) != len(resp.IDs) {
					t.Errorf("q=%d k=%d: got %d ids / %d items, want %d",
						qi, k, len(resp.IDs), len(resp.Items), len(want))
					continue
				}
				for j := range resp.IDs {
					if resp.IDs[j] != want[j] {
						t.Errorf("q=%d k=%d: id[%d]=%d, want %d", qi, k, j, resp.IDs[j], want[j])
						break
					}
					if resp.Items[j].ID != resp.IDs[j] {
						t.Errorf("q=%d k=%d: items[%d].ID %d != ids[%d] %d",
							qi, k, j, resp.Items[j].ID, j, resp.IDs[j])
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	if outcomes.Load() != goroutines*perG {
		t.Fatalf("resolved %d of %d calls", outcomes.Load(), goroutines*perG)
	}
	st := srv.Stats()
	if st.Enqueued != st.Completed+st.Canceled+st.Failed {
		t.Fatalf("ledger unbalanced after drain: Enqueued %d != Completed %d + Canceled %d + Failed %d",
			st.Enqueued, st.Completed, st.Canceled, st.Failed)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after drain", st.QueueDepth)
	}
}

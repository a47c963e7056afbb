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

// TestServeStress hammers one server from many goroutines with random
// per-request cancellations and a mid-flight Close, and asserts the
// exactly-once response contract: every Search call returns exactly one
// outcome, every successful response carries that request's own query's
// bit-exact result (no cross-wiring between concurrent callers), admitted
// requests are never lost, and post-Close submissions fail fast with the
// typed ErrClosed. CI runs this under -race; the batcher, admission path
// and stats are all exercised concurrently.
func TestServeStress(t *testing.T) {
	eng, s := testEngine(t, 4000, 64)
	ref, err := eng.SearchBatch(s.Queries)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := serve.New(eng, serve.Options{
		MaxBatch: 4, // a 16-request queue, small so backpressure blocking is exercised
		MaxWait:  100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		goroutines = 8
		perG       = 40
	)
	var (
		ok        atomic.Uint64 // successful responses (verified bit-exact)
		ctxErrs   atomic.Uint64 // context cancellations observed by callers
		closedErr atomic.Uint64 // ErrClosed rejections
		mismatch  atomic.Uint64
		wg        sync.WaitGroup
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for i := 0; i < perG; i++ {
				qi := rng.Intn(s.Queries.N)
				ctx := context.Background()
				var cancel context.CancelFunc
				switch rng.Intn(4) {
				case 0: // already canceled at submission
					ctx, cancel = context.WithCancel(ctx)
					cancel()
				case 1: // cancels mid-flight
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(300))*time.Microsecond)
				}
				resp, err := srv.Search(ctx, s.Queries.Vec(qi), 0)
				if cancel != nil {
					cancel()
				}
				switch {
				case err == nil:
					ok.Add(1)
					if !reflect.DeepEqual(resp.IDs, ref.IDs[qi]) {
						mismatch.Add(1)
					}
				case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
					ctxErrs.Add(1)
				case errors.Is(err, serve.ErrClosed):
					closedErr.Add(1)
				default:
					t.Errorf("unexpected error: %v", err)
				}
			}
		}(g)
	}

	// Close mid-flight: half the submission volume is typically still
	// outstanding. Close must drain admitted requests (no lost responses)
	// and turn away the rest with ErrClosed.
	time.Sleep(2 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	total := ok.Load() + ctxErrs.Load() + closedErr.Load()
	if total != goroutines*perG {
		t.Fatalf("outcomes %d (ok %d, ctx %d, closed %d) != submissions %d — lost or duplicated responses",
			total, ok.Load(), ctxErrs.Load(), closedErr.Load(), goroutines*perG)
	}
	if mismatch.Load() != 0 {
		t.Fatalf("%d responses carried another query's results", mismatch.Load())
	}
	if ok.Load() == 0 {
		t.Fatal("stress produced no successful responses; fixture too aggressive to test anything")
	}

	// Post-Close: fail fast with the typed error, and keep failing on
	// repeated Close-then-Search.
	for i := 0; i < 3; i++ {
		if _, err := srv.Search(context.Background(), s.Queries.Vec(0), 0); !errors.Is(err, serve.ErrClosed) {
			t.Fatalf("post-Close Search error = %v, want ErrClosed", err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// The server's own ledger must balance: every admitted request was
	// answered (completed, canceled or failed), none left in the queue.
	st := srv.Stats()
	if st.Enqueued != st.Completed+st.Canceled+st.Failed {
		t.Fatalf("ledger: enqueued %d != completed %d + canceled %d + failed %d",
			st.Enqueued, st.Completed, st.Canceled, st.Failed)
	}
	if st.Failed != 0 {
		t.Fatalf("unexpected engine-launch failures: %d", st.Failed)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after drain", st.QueueDepth)
	}
}

// TestServeCloseIdlePromptly pins that Close on an idle server returns
// without waiting on any timer (the batcher is parked on the queue, not in
// a max-wait countdown).
func TestServeCloseIdlePromptly(t *testing.T) {
	eng, _ := testEngine(t, 2500, 4)
	srv, err := serve.New(eng, serve.Options{MaxBatch: 8, MaxWait: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close of an idle server did not return")
	}
}

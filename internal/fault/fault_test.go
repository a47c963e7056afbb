package fault_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"drimann/internal/fault"
	"drimann/internal/serve"
)

// stub is a healthy in-memory backend: answers instantly with k echoed in
// BatchSize so tests can see the call went through.
type stub struct {
	mu    sync.Mutex
	calls int
}

func (s *stub) SearchOwned(ctx context.Context, q []uint8, k int) (serve.Response, error) {
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
	return serve.Response{BatchSize: 1}, nil
}
func (s *stub) SearchProbedOwned(ctx context.Context, q []uint8, k int, probes []int32, dists []uint32) (serve.Response, error) {
	return s.SearchOwned(ctx, q, k)
}
func (s *stub) Load() int          { return 0 }
func (s *stub) Stats() serve.Stats { return serve.Stats{} }
func (s *stub) Close() error       { return nil }

func (s *stub) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func call(t *testing.T, r *fault.Replica, ctx context.Context) error {
	t.Helper()
	_, err := r.SearchOwned(ctx, []uint8{1}, 1)
	return err
}

func TestPlanErrorSchedules(t *testing.T) {
	b := &stub{}
	r := fault.Wrap(b, fault.Plan{ErrorEvery: 3, FailFirst: 2})
	ctx := context.Background()
	// Calls 1,2 fail (FailFirst), 3 fails (ErrorEvery), 4,5 pass, 6 fails.
	want := []bool{false, false, false, true, true, false, true, true, false}
	for i, ok := range want {
		err := call(t, r, ctx)
		if ok && err != nil {
			t.Fatalf("call %d: unexpected error %v", i+1, err)
		}
		if !ok && !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("call %d: error %v, want ErrInjected", i+1, err)
		}
	}
	if b.count() != 4 {
		t.Fatalf("backend saw %d calls, want 4", b.count())
	}
}

func TestPlanDelayIsDeterministicAndCancelable(t *testing.T) {
	mk := func() *fault.Replica {
		return fault.Wrap(&stub{}, fault.Plan{
			Delay: 5 * time.Millisecond, DelayJitter: 5 * time.Millisecond,
			DelayEvery: 2, Seed: 42,
		})
	}
	// Same plan, same call sequence: identical delay decisions (call 1 fast,
	// call 2 delayed), and the delayed call takes at least the base delay.
	for run := 0; run < 2; run++ {
		r := mk()
		t0 := time.Now()
		if err := call(t, r, context.Background()); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d > 4*time.Millisecond {
			t.Fatalf("run %d: undelayed call took %v", run, d)
		}
		t0 = time.Now()
		if err := call(t, r, context.Background()); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d < 5*time.Millisecond {
			t.Fatalf("run %d: delayed call took only %v", run, d)
		}
	}
	// A delayed call honors its context.
	r := mk()
	_ = call(t, r, context.Background()) // call 1: fast
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := call(t, r, ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("canceled delay returned %v", err)
	}
}

func TestWedgeBlocksUntilContextOrKill(t *testing.T) {
	b := &stub{}
	r := fault.Wrap(b, fault.Plan{WedgeFrom: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- call(t, r, ctx) }()
	select {
	case err := <-done:
		t.Fatalf("wedged call returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if r.Load() != 1 {
		t.Fatalf("wedged replica Load = %d, want 1", r.Load())
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("wedged call returned %v, want context.Canceled", err)
	}

	// A second wedged call is released by Kill instead.
	go func() { done <- call(t, r, context.Background()) }()
	time.Sleep(10 * time.Millisecond)
	r.Kill()
	if err := <-done; !errors.Is(err, fault.ErrKilled) {
		t.Fatalf("killed wedge returned %v, want ErrKilled", err)
	}
	if b.count() != 0 {
		t.Fatalf("backend saw %d calls through the wedge", b.count())
	}
}

func TestManualWedgeUnwedge(t *testing.T) {
	b := &stub{}
	r := fault.Wrap(b, fault.Plan{})
	r.Wedge()
	done := make(chan error, 1)
	go func() { done <- call(t, r, context.Background()) }()
	select {
	case err := <-done:
		t.Fatalf("manually wedged call returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	r.Unwedge()
	if err := <-done; err != nil {
		t.Fatalf("unwedged call failed: %v", err)
	}
	if b.count() != 1 {
		t.Fatalf("backend saw %d calls, want 1", b.count())
	}
}

func TestKillAfterSchedule(t *testing.T) {
	b := &stub{}
	r := fault.Wrap(b, fault.Plan{KillAfter: 2})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if err := call(t, r, ctx); err != nil {
			t.Fatalf("call %d before kill: %v", i+1, err)
		}
	}
	if r.Killed() {
		t.Fatal("killed before the schedule fired")
	}
	for i := 0; i < 3; i++ {
		if err := call(t, r, ctx); !errors.Is(err, fault.ErrKilled) {
			t.Fatalf("post-kill call returned %v, want ErrKilled", err)
		}
	}
	if !r.Killed() {
		t.Fatal("Killed() false after schedule fired")
	}
	if b.count() != 2 {
		t.Fatalf("backend saw %d calls, want 2", b.count())
	}
}

func TestSetErrOverride(t *testing.T) {
	b := &stub{}
	r := fault.Wrap(b, fault.Plan{})
	boom := errors.New("boom")
	r.SetErr(boom)
	if err := call(t, r, context.Background()); !errors.Is(err, boom) {
		t.Fatalf("override returned %v, want boom", err)
	}
	r.SetErr(nil)
	if err := call(t, r, context.Background()); err != nil {
		t.Fatalf("cleared override still fails: %v", err)
	}
}

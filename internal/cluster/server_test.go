package cluster_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"drimann/internal/cluster"
	"drimann/internal/core"
	"drimann/internal/serve"
)

// TestClusterServerEquivalence: single queries through the sharded front
// door are bit-identical to the single-engine offline batch — the serving
// contract composed with the sharding contract.
func TestClusterServerEquivalence(t *testing.T) {
	ix, s := testFixture(t, 6000, 48)
	single, err := core.New(ix, s.Queries, engineOpts())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := single.SearchBatch(s.Queries)
	if err != nil {
		t.Fatal(err)
	}

	cl, err := cluster.New(ix, s.Queries, cluster.Options{
		Shards: 3, Assignment: cluster.AssignHash, Engine: engineOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cluster.NewServer(cl, serve.Options{MaxBatch: 16, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	got := make([]cluster.Response, s.Queries.N)
	var wg sync.WaitGroup
	for qi := 0; qi < s.Queries.N; qi++ {
		wg.Add(1)
		go func(qi int) {
			defer wg.Done()
			resp, err := srv.Search(context.Background(), s.Queries.Vec(qi), 0)
			if err != nil {
				t.Errorf("query %d: %v", qi, err)
				return
			}
			got[qi] = resp
		}(qi)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for qi := range got {
		if !reflect.DeepEqual(got[qi].IDs, ref.IDs[qi]) {
			t.Fatalf("query %d IDs diverge:\n  fleet  %v\n  single %v", qi, got[qi].IDs, ref.IDs[qi])
		}
		if !reflect.DeepEqual(got[qi].Items, ref.Items[qi]) {
			t.Fatalf("query %d Items diverge", qi)
		}
	}

	st := srv.Stats()
	if st.Completed != uint64(s.Queries.N) {
		t.Fatalf("front door completed %d of %d", st.Completed, s.Queries.N)
	}
	if len(st.Shards) != 3 {
		t.Fatalf("%d shard ledgers, want 3", len(st.Shards))
	}
	// Every query fans out to every shard exactly once.
	if st.Agg.Completed != 3*uint64(s.Queries.N) {
		t.Fatalf("aggregate shard completions %d, want %d", st.Agg.Completed, 3*s.Queries.N)
	}
	for si, ss := range st.Shards {
		tot := ss.Total()
		if tot.Enqueued != tot.Completed+tot.Canceled+tot.Failed {
			t.Fatalf("shard %d ledger unbalanced: %+v", si, tot)
		}
	}
	if st.Agg.Sim.PointsScanned == 0 {
		t.Fatal("aggregated sim metrics empty")
	}
}

// TestClusterServerContract pins front-door argument validation, k
// truncation and the typed close error.
func TestClusterServerContract(t *testing.T) {
	ix, s := testFixture(t, 3000, 8)
	cl, err := cluster.New(ix, s.Queries, cluster.Options{Shards: 2, Engine: engineOpts()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cluster.NewServer(cl, serve.Options{MaxBatch: 8, MaxWait: 0})
	if err != nil {
		t.Fatal(err)
	}

	full, err := srv.Search(context.Background(), s.Queries.Vec(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.IDs) != cl.K() {
		t.Fatalf("k=0 returned %d ids, want %d", len(full.IDs), cl.K())
	}
	three, err := srv.Search(context.Background(), s.Queries.Vec(0), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(three.IDs, full.IDs[:3]) {
		t.Fatalf("k=3 not a prefix: %v vs %v", three.IDs, full.IDs)
	}
	if _, err := srv.Search(context.Background(), s.Queries.Vec(0), cl.K()+1); err == nil {
		t.Fatal("k > K should fail")
	}
	if _, err := srv.Search(context.Background(), s.Queries.Vec(0)[:8], 0); err == nil {
		t.Fatal("wrong dimension should fail")
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Search(context.Background(), s.Queries.Vec(0), 0); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("post-close error = %v, want serve.ErrClosed", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

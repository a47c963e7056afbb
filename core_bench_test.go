package drimann_test

// Wall-clock benchmarks of the simulator itself (not the simulated time).
// BenchmarkSearchBatch measures end-to-end
// engine throughput on a 100k x 128d corpus with 1k queries and default
// options; BenchmarkLocateBatch isolates the host-side cluster locating
// stage. `go test -bench 'SearchBatch|LocateBatch' -run xxx .` runs them;
// the repo benchmark's offline-ivf workload is the instrument for comparing
// commits.

import (
	"sync"
	"testing"

	"drimann"
	"drimann/internal/dataset"
	"drimann/internal/ivf"
	"drimann/internal/pq"
	"drimann/internal/topk"
)

var (
	wallOnce sync.Once
	wallData *dataset.Synth
	wallIx   *ivf.Index
)

// wallFixture builds the acceptance-scale corpus and index once: 100k SIFT
// vectors (128d), 1k queries. Training is capped so fixture setup stays in
// seconds; search cost is unaffected.
func wallFixture(b *testing.B) (*ivf.Index, *dataset.Synth) {
	b.Helper()
	wallOnce.Do(func() {
		wallData = dataset.SIFT(100000, 1000, 1)
		ix, err := ivf.Build(wallData.Base, ivf.BuildConfig{
			NList:       1024,
			PQ:          pq.Config{M: 16, CB: 256},
			KMeansIters: 4,
			TrainSample: 8000,
			Seed:        1,
		})
		if err != nil {
			panic(err)
		}
		wallIx = ix
	})
	return wallIx, wallData
}

// BenchmarkSearchBatch is the ISSUE-1 headline number: wall-clock seconds
// for one full SearchBatch over 1k queries at default engine options.
func BenchmarkSearchBatch(b *testing.B) {
	ix, s := wallFixture(b)
	eng, err := drimann.NewEngine(ix, drimann.Vectors{}, drimann.DefaultEngineOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.SearchBatch(s.Queries)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.IDs) != s.Queries.N {
			b.Fatalf("got %d results, want %d", len(res.IDs), s.Queries.N)
		}
	}
	b.ReportMetric(float64(s.Queries.N)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkSearchBatchOneWorker runs the same engine with Workers = 1:
// kernels, group builds and cluster locating each on one goroutine (the CL
// producer still runs a batch ahead), so its ratio to BenchmarkSearchBatch is
// what the workers buy.
func BenchmarkSearchBatchOneWorker(b *testing.B) {
	ix, s := wallFixture(b)
	opts := drimann.DefaultEngineOptions()
	opts.Workers = 1
	eng, err := drimann.NewEngine(ix, drimann.Vectors{}, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.SearchBatch(s.Queries); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.Queries.N)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkLocateBatch measures the batched host-side CL stage on its own.
func BenchmarkLocateBatch(b *testing.B) {
	ix, s := wallFixture(b)
	nprobe := 32
	out := make([]topk.Item[uint32], s.Queries.N*nprobe)
	counts := make([]int, s.Queries.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.LocateBatch(s.Queries, 0, s.Queries.N, nprobe, 0, out, counts)
	}
	b.ReportMetric(float64(s.Queries.N)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

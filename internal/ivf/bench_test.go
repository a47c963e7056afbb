package ivf

import (
	"sync"
	"testing"

	"drimann/internal/dataset"
	"drimann/internal/pq"
)

var (
	benchOnce sync.Once
	benchIx   *Index
	benchData *dataset.Synth
)

func benchIndex(b *testing.B) (*Index, *dataset.Synth) {
	b.Helper()
	benchOnce.Do(func() {
		benchData = dataset.Generate(dataset.SynthConfig{
			N: 20000, D: 64, NumQueries: 64, NumClusters: 64, Noise: 9, Seed: 13,
		})
		ix, err := Build(benchData.Base, BuildConfig{
			NList: 128, PQ: pq.Config{M: 16, CB: 64}, Seed: 3,
		})
		if err != nil {
			panic(err)
		}
		benchIx = ix
	})
	return benchIx, benchData
}

func BenchmarkLocateInt(b *testing.B) {
	ix, s := benchIndex(b)
	for i := 0; i < b.N; i++ {
		ix.LocateInt(s.Queries.Vec(i%s.Queries.N), 16)
	}
}

func BenchmarkSearchIntNprobe16(b *testing.B) {
	ix, s := benchIndex(b)
	for i := 0; i < b.N; i++ {
		ix.SearchInt(s.Queries.Vec(i%s.Queries.N), 16, 10)
	}
}

// BenchmarkBuild builds at the repo benchmark's shape: 32k SIFT-shaped
// 128-d vectors, 512 lists, PQ M16/CB256, 4 coarse iterations and 8000
// training points.
func BenchmarkBuild(b *testing.B) {
	base := dataset.SIFT(32000, 1, 1).Base
	for b.Loop() {
		if _, err := Build(base, BuildConfig{
			NList: 512, PQ: pq.Config{M: 16, CB: 256}, KMeansIters: 4, TrainSample: 8000, Seed: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuild20k(b *testing.B) {
	_, s := benchIndex(b)
	for i := 0; i < b.N; i++ {
		if _, err := Build(s.Base, BuildConfig{
			NList: 128, PQ: pq.Config{M: 16, CB: 64, Iters: 8}, KMeansIters: 8, Seed: 3,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

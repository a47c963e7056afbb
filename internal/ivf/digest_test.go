package ivf

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"drimann/internal/dataset"
	"drimann/internal/pq"
)

// buildDigest hashes every field Build fills: the coarse centroids on both
// paths, the float and integer PQ codebooks, and the inverted lists with
// their codes. Floats hash by their bits.
func buildDigest(ix *Index) string {
	h := fnv.New64a()
	ints := func(vs ...int) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, int64(v))
		}
	}
	ints(ix.Dim, ix.NList, ix.M, ix.CB)
	f32s(h, ix.Centroids)
	h.Write(ix.CentroidsU8)
	ints(ix.PQ.D, ix.PQ.M, ix.PQ.CB, ix.PQ.DSub)
	f32s(h, ix.PQ.Codebooks)
	ints(ix.IntCB.M, ix.IntCB.CB, ix.IntCB.DSub)
	binary.Write(h, binary.LittleEndian, ix.IntCB.Data)
	for c := range ix.Lists {
		ints(c, len(ix.Lists[c]))
		binary.Write(h, binary.LittleEndian, ix.Lists[c])
		binary.Write(h, binary.LittleEndian, ix.Codes[c])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func f32s(h hash.Hash, xs []float32) {
	for _, x := range xs {
		binary.Write(h, binary.LittleEndian, math.Float32bits(x))
	}
}

// TestBuildDigest pins Build's output bit for bit over a fixed synthetic
// corpus, so a change to the build's kernels, its passes or their order that
// moves one bit of the index fails here. The shape exercises a training
// sample smaller than the corpus, a coarse k that is not a multiple of four
// and three-dimensional PQ subspaces. The pins are amd64's: architectures
// that fuse `sum += d*d` into one multiply-add round differently.
func TestBuildDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned for amd64 float arithmetic, not %s", runtime.GOARCH)
	}
	s := dataset.Generate(dataset.SynthConfig{
		N: 3000, D: 24, NumQueries: 1, NumClusters: 16, Seed: 21, Noise: 10,
	})
	t.Run("pq", func(t *testing.T) {
		ix, err := Build(s.Base, BuildConfig{
			NList: 37, PQ: pq.Config{M: 8, CB: 32, Iters: 4},
			KMeansIters: 4, TrainSample: 1200, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := buildDigest(ix), "c78594bdfa7507b9"; got != want {
			t.Fatalf("Build digest %s, pinned %s", got, want)
		}
	})
	// The benchmark's PQ shape: 8-dimensional subspaces of 256 entries, where
	// encoding and PQ k-means take the dimension-major kernel, and a training
	// sample that divides N, whose points keep k-means' coarse assignment.
	t.Run("pq-m16-cb256", func(t *testing.T) {
		s := dataset.Generate(dataset.SynthConfig{
			N: 4000, D: 128, NumQueries: 1, NumClusters: 16, Seed: 22, Noise: 10,
		})
		ix, err := Build(s.Base, BuildConfig{
			NList: 40, PQ: pq.Config{M: 16, CB: 256, Iters: 4},
			KMeansIters: 4, TrainSample: 1000, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := buildDigest(ix), "c2b99c350dfe8520"; got != want {
			t.Fatalf("Build digest %s, pinned %s", got, want)
		}
	})
}

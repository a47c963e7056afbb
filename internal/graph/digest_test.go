package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"drimann/internal/dataset"
)

// graphDigest hashes what the build produces: the medoid, then every node's
// adjacency list as its length followed by its ids.
func graphDigest(e *Engine) string {
	h := sha256.New()
	binary.Write(h, binary.LittleEndian, e.medoid)
	for _, nb := range e.nbrs {
		binary.Write(h, binary.LittleEndian, int32(len(nb)))
		binary.Write(h, binary.LittleEndian, nb)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGraphDigest pins the build's output bit for bit, so a change to its
// distance kernels, its pruning or its insertion order that moves one edge
// fails here: the 24-dimensional test fixture (not a multiple of the kernel
// stride), a 128-dimensional SIFT-shaped corpus, and the fixture with
// duplicated points, whose zero distances sit on pruning's bound. The pins
// are amd64's: the medoid is chosen under float arithmetic that other
// architectures may fuse into multiply-adds.
func TestGraphDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned for amd64 float arithmetic, not %s", runtime.GOARCH)
	}
	fixture, _ := getEngine(t)
	sift, err := New(dataset.SIFT(3000, 1, 5).Base, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	dupBase, _ := duplicateCorpus()
	dup, err := New(dupBase, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		e    *Engine
		want string
	}{
		{"fixture", fixture, "b82c1e727cd8a60a68259d404203956975a07ce790a69c55b11837521b737a62"},
		{"sift", sift, "0780df04f9312105481d48dc38d453641c1ba415de1f9222b5b4f29c12dd666c"},
		{"duplicates", dup, "f88dafdfaacb8e18a59e0c317d83c1283d9375ec4f0872f9802102522766c04e"},
	} {
		if got := graphDigest(tc.e); got != tc.want {
			t.Errorf("%s: graph digest %s, pinned %s", tc.name, got, tc.want)
		}
	}
}

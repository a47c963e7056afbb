package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"drimann/internal/dataset"
	"drimann/internal/engine"
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

// searchDigest hashes a SearchBatch result: every answer's ids and items, then
// every Metrics field.
func searchDigest(res *engine.Result) string {
	h := sha256.New()
	put := func(v any) { binary.Write(h, binary.LittleEndian, v) }
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Int, reflect.Int32, reflect.Int64:
			put(v.Int())
		case reflect.Uint32, reflect.Uint64:
			put(v.Uint())
		case reflect.Float64:
			put(math.Float64bits(v.Float()))
		case reflect.Slice, reflect.Array:
			put(int64(v.Len()))
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		default:
			panic(fmt.Sprintf("searchDigest: unhandled kind %s", v.Kind()))
		}
	}
	walk(reflect.ValueOf(*res))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGraphSearchDigest pins a default engine's SearchBatch bit for bit —
// answers and every simulated metric — over the 24-dimensional fixture's
// queries and a 128-dimensional SIFT-shaped corpus's, so a traversal that
// visits, abandons or charges one dimension differently fails here. The pins
// are amd64's, as TestGraphDigest's are.
func TestGraphSearchDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned for amd64 float arithmetic, not %s", runtime.GOARCH)
	}
	_, fixture := getEngine(t)
	for _, tc := range []struct {
		name string
		s    *dataset.Synth
		want string
	}{
		{"fixture", fixture, "39bc9541188ab610ca60ab0f0a7f7d2c3bbb0b12dd05a240bb35556fe77927a1"},
		{"sift", dataset.SIFT(3000, 100, 5), "f466a272f6ecc2696091a2e90bfc4c53ee3365948989c1543f3468c9b6f105da"},
	} {
		e, err := New(tc.s.Base, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.SearchBatch(tc.s.Queries)
		if err != nil {
			t.Fatal(err)
		}
		if got := searchDigest(res); got != tc.want {
			t.Errorf("%s: search digest %s, pinned %s", tc.name, got, tc.want)
		}
	}
}

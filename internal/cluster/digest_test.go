package cluster_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"testing"

	"drimann/internal/cluster"
	"drimann/internal/core"
)

// searchDigest hashes a whole Result: every query's IDs and Items, and every
// Metrics field, floats by their bits (core's twin; test helpers do not cross
// packages).
func searchDigest(res *core.Result) string {
	h := fnv.New64a()
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
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestSearchDigest pins a 2-shard x 2-replica AssignKMeans fleet's
// SearchBatch bit for bit — answers and every simulated metric: the shard
// split, the fleet-wide waves, the replica spread and the front door's clock
// all feed it. The pin is amd64's: other architectures may fuse float
// multiply-adds in the host-time model.
func TestSearchDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned for amd64 float arithmetic, not %s", runtime.GOARCH)
	}
	ix, s := testFixture(t, 6000, 64)
	cl, err := cluster.New(ix, s.Queries, cluster.Options{
		Shards: 2, Replicas: 2, Assignment: cluster.AssignKMeans, Engine: engineOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.SearchBatch(s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := searchDigest(res), "43b1f8133035c6be"; got != want {
		t.Fatalf("Cluster.SearchBatch digest %s, pinned %s", got, want)
	}
}

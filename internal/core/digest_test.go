package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// searchDigest hashes a whole Result: every query's IDs and Items, and every
// Metrics field, floats by their bits. It walks the types by reflection, so a
// field added to Metrics is hashed without touching this function.
func searchDigest(res *Result) string {
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

// TestSearchDigest pins a DefaultOptions engine's SearchBatch bit for bit —
// answers and every simulated metric — so a change meant to leave the default
// path alone cannot move it unnoticed. The equivalence suites compare two
// paths of one commit and would move together. The pin is amd64's: other
// architectures may fuse float multiply-adds in the host-time model.
func TestSearchDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned for amd64 float arithmetic, not %s", runtime.GOARCH)
	}
	f := getFixture(t)
	e, err := New(f.ix, f.s.Queries, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.SearchBatch(f.s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := searchDigest(res), "45b6fa3b31f79619"; got != want {
		t.Fatalf("SearchBatch digest %s, pinned %s", got, want)
	}
}

package cluster_test

import (
	"testing"

	"drimann/internal/cluster"
	"drimann/internal/core"
	"drimann/internal/dataset"
	"drimann/internal/graph"
)

// TestShortVectorsAreAnError: every entry point that slices a vector set by
// its N and D refuses one whose Data holds fewer than N*D bytes — an error,
// where each used to slice past the end and panic (the graph backend inside
// a launch worker, which no caller can recover from).
func TestShortVectorsAreAnError(t *testing.T) {
	ix, s, base := durableFixture(t, 2000, 8, 100)
	eng, err := core.New(ix, s.Queries, engineOpts())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(ix, s.Queries, cluster.Options{Shards: 2, Engine: engineOpts()})
	if err != nil {
		t.Fatal(err)
	}
	gopts := graph.DefaultOptions()
	gopts.NumDPUs = 8
	g, err := graph.New(dataset.U8Set{N: 300, D: s.Base.D, Data: s.Base.Data[:300*s.Base.D]}, gopts)
	if err != nil {
		t.Fatal(err)
	}
	// Three vectors' worth of N over one vector's bytes, with no spare
	// capacity to read past.
	short := dataset.U8Set{N: 3, D: ix.Dim, Data: make([]uint8, ix.Dim)}
	copy(short.Data, s.Queries.Vec(0))
	ids := []int32{int32(base), int32(base + 1), int32(base + 2)}
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"core.SearchBatch", func() error { _, err := eng.SearchBatch(short); return err }},
		{"core.SearchBatchProbed", func() error {
			_, err := eng.SearchBatchProbed(short, eng.Locator().Probes(dataset.U8Set{N: 3, D: ix.Dim, Data: make([]uint8, 3*ix.Dim)}), true)
			return err
		}},
		{"graph.SearchBatch", func() error { _, err := g.SearchBatch(short); return err }},
		{"cluster.SearchBatch", func() error { _, err := cl.SearchBatch(short); return err }},
		{"core.Insert", func() error { return eng.Insert(short, ids) }},
		{"cluster.Insert", func() error { return cl.Insert(short, ids) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.call(); err == nil {
				t.Fatal("3 x D vectors over D bytes accepted")
			}
		})
	}
}

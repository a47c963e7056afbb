package ivf

import (
	"math/rand"
	"slices"
	"testing"

	"drimann/internal/dataset"
	"drimann/internal/pq"
)

// mutableFixture builds an index over the first base of the corpus and keeps
// the tail as an insert pool; ids are corpus positions throughout, so
// s.Base.Vec(id) is every id's vector.
func mutableFixture(t testing.TB) (*Index, *dataset.Synth, int) {
	t.Helper()
	s := dataset.Generate(dataset.SynthConfig{
		N: 4000, D: 16, NumQueries: 40, NumClusters: 24, Seed: 11, Noise: 10,
	})
	base := 3200
	ix, err := Build(dataset.U8Set{N: base, D: s.Base.D, Data: s.Base.Data[:base*s.Base.D]},
		BuildConfig{NList: 32, PQ: pq.Config{M: 16, CB: 64}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return ix, s, base
}

// liveSet assembles the logical corpus (vectors + ids) of the index's
// current live ids out of the generator corpus.
func liveSet(ix *Index, s *dataset.Synth) (dataset.U8Set, []int32) {
	ids := ix.LiveIDs()
	vecs := dataset.U8Set{N: len(ids), D: s.Base.D}
	for _, id := range ids {
		vecs.Data = append(vecs.Data, s.Base.Vec(int(id))...)
	}
	return vecs, ids
}

// requireSameContents fails unless both indexes hold bit-identical inverted
// lists and codes (nil and empty compare equal: a cluster emptied by deletes
// matches a cluster a fresh build never filled).
func requireSameContents(t *testing.T, got, want *Index) {
	t.Helper()
	for c := 0; c < want.NList; c++ {
		if !slices.Equal(got.Lists[c], want.Lists[c]) {
			t.Fatalf("cluster %d ids diverge:\n got %v\nwant %v", c, got.Lists[c], want.Lists[c])
		}
		if !slices.Equal(got.Codes[c], want.Codes[c]) {
			t.Fatalf("cluster %d codes diverge", c)
		}
	}
}

// TestMutateCompactBitIdentity drives randomized insert/delete/compact
// interleavings and checks the LSM overlay's central contract: after
// Compact, the index is bit-identical to a frozen-quantizer rebuild over the
// same logical corpus.
func TestMutateCompactBitIdentity(t *testing.T) {
	t.Run("pq", func(t *testing.T) {
		ix, s, base := mutableFixture(t)
		rng := rand.New(rand.NewSource(77))
		live := make([]int32, base)
		for i := range live {
			live[i] = int32(i)
		}
		pool := make([]int32, s.Base.N-base)
		for i := range pool {
			pool[i] = int32(base + i)
		}
		for op := 0; op < 600; op++ {
			switch r := rng.Intn(10); {
			case r < 5 && len(pool) > 0: // insert a pool point
				i := rng.Intn(len(pool))
				id := pool[i]
				pool = append(pool[:i], pool[i+1:]...)
				if _, err := ix.Insert(id, s.Base.Vec(int(id))); err != nil {
					t.Fatal(err)
				}
				live = append(live, id)
			case r < 9 && len(live) > 0: // delete a live point (may be a fresh insert)
				i := rng.Intn(len(live))
				id := live[i]
				live = append(live[:i], live[i+1:]...)
				if _, _, err := ix.Delete(id); err != nil {
					t.Fatal(err)
				}
				pool = append(pool, id)
			case r == 9: // occasional mid-stream compaction
				ix.Compact()
			}
		}
		ix.Compact()
		if ix.HasMutations() || ix.MutationBytes() != 0 {
			t.Fatal("overlay must be empty after Compact")
		}
		vecs, ids := liveSet(ix, s)
		want, err := RebuildFrozen(ix, vecs, ids)
		if err != nil {
			t.Fatal(err)
		}
		requireSameContents(t, ix, want)
	})
}

// TestMutableSearchVisibility pins the between-compaction promise on the
// search path: an inserted point is findable immediately (its own
// vector as the query ranks it), and a deleted point never surfaces, in
// both the base list (tombstone filter) and the append segment.
func TestMutableSearchVisibility(t *testing.T) {
	ix, s, base := mutableFixture(t)
	const nprobe, k = 32, 10
	id := int32(base)
	vec := s.Base.Vec(int(id))
	found := func(id int32, vec []uint8) bool {
		for _, it := range ix.SearchInt(vec, nprobe, k) {
			if it.ID == id {
				return true
			}
		}
		return false
	}
	if found(id, vec) {
		t.Fatal("pool point visible before insert")
	}
	if _, err := ix.Insert(id, vec); err != nil {
		t.Fatal(err)
	}
	if !found(id, vec) {
		t.Fatal("inserted point not findable from the append segment")
	}
	if _, _, err := ix.Delete(id); err != nil {
		t.Fatal(err)
	}
	if found(id, vec) {
		t.Fatal("append-deleted point still visible")
	}
	// Base-list tombstone: delete an existing point and query with its own
	// vector (which must have ranked it before).
	victim := int32(0)
	if !found(victim, s.Base.Vec(0)) {
		t.Skip("victim not in its own top-k; pick unsuitable for this corpus")
	}
	if _, _, err := ix.Delete(victim); err != nil {
		t.Fatal(err)
	}
	if found(victim, s.Base.Vec(0)) {
		t.Fatal("tombstoned base point still visible")
	}
}

// TestDeleteThenReinsert pins the replace sequence: deleting a base-list id
// and reinserting the same id (same vector) serves from the append segment
// between compactions, and compacts back to exactly the never-mutated index.
func TestDeleteThenReinsert(t *testing.T) {
	ix, s, _ := mutableFixture(t)
	vecs, ids := liveSet(ix, s)
	pristine, err := RebuildFrozen(ix, vecs, ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int32{0, 17, 1031} {
		if _, _, err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
		if _, err := ix.Insert(id, s.Base.Vec(int(id))); err != nil {
			t.Fatal(err)
		}
	}
	if !ix.HasMutations() {
		t.Fatal("delete-then-reinsert must leave an overlay")
	}
	ix.Compact()
	requireSameContents(t, ix, pristine)
}

func TestMutationValidation(t *testing.T) {
	ix, s, base := mutableFixture(t)
	if _, err := ix.Insert(int32(base), s.Base.Vec(0)[:8]); err == nil {
		t.Fatal("dim mismatch must fail")
	}
	if _, err := ix.Insert(-1, s.Base.Vec(0)); err == nil {
		t.Fatal("negative id must fail")
	}
	if _, err := ix.Insert(0, s.Base.Vec(0)); err == nil {
		t.Fatal("live id must fail")
	}
	if _, _, err := ix.Delete(int32(base)); err == nil {
		t.Fatal("deleting a non-live id must fail")
	}
	if _, _, err := ix.Delete(0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Delete(0); err == nil {
		t.Fatal("double delete must fail")
	}
	if _, err := ix.Insert(0, s.Base.Vec(0)); err != nil {
		t.Fatalf("reinsert after delete must succeed: %v", err)
	}
}

// TestAppendLogRoundTrip serializes a live overlay and replays it onto a
// fresh build of the same base; both compact to identical contents.
func TestAppendLogRoundTrip(t *testing.T) {
	ix, s, base := mutableFixture(t)
	ix2, _, _ := mutableFixture(t)
	for i := 0; i < 50; i++ {
		if _, err := ix.Insert(int32(base+i), s.Base.Vec(base+i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []int32{3, 99, 1500} {
		if _, _, err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	log := ix.EncodeAppendLog()
	if err := ix2.DecodeAppendLog(log); err != nil {
		t.Fatal(err)
	}
	if got := ix2.EncodeAppendLog(); !slices.Equal(got, log) {
		t.Fatal("re-encoded log differs from the original")
	}
	ix.Compact()
	ix2.Compact()
	requireSameContents(t, ix2, ix)
}

func TestAppendLogRejectsCorruption(t *testing.T) {
	ix, s, base := mutableFixture(t)
	if _, err := ix.Insert(int32(base), s.Base.Vec(base)); err != nil {
		t.Fatal(err)
	}
	good := ix.EncodeAppendLog()
	cases := map[string][]byte{
		"empty":     {},
		"badmagic":  append([]byte{1, 2, 3, 4}, good[4:]...),
		"truncated": good[:len(good)-3],
		"trailing":  append(slices.Clone(good), 0),
	}
	for name, data := range cases {
		if err := ix.DecodeAppendLog(data); err == nil {
			t.Fatalf("%s log must fail to decode", name)
		}
	}
	// Errors must leave the previous overlay intact.
	if got := ix.EncodeAppendLog(); !slices.Equal(got, good) {
		t.Fatal("failed decode disturbed the live overlay")
	}
}

// FuzzAppendLog throws arbitrary bytes at the append-log decoder: it must
// never panic or over-allocate, and any log it accepts must re-encode to a
// decodable log.
func FuzzAppendLog(f *testing.F) {
	ix, s, base := mutableFixture(f)
	for i := 0; i < 30; i++ {
		if _, err := ix.Insert(int32(base+i), s.Base.Vec(base+i)); err != nil {
			f.Fatal(err)
		}
	}
	for _, id := range []int32{1, 2, 500} {
		if _, _, err := ix.Delete(id); err != nil {
			f.Fatal(err)
		}
	}
	valid := ix.EncodeAppendLog()
	f.Add(valid)
	f.Add(valid[:8])
	f.Add([]byte{})
	for i := 0; i < len(valid); i += 7 {
		mut := slices.Clone(valid)
		mut[i] ^= 0xff
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := ix.DecodeAppendLog(data); err != nil {
			return
		}
		re := ix.EncodeAppendLog()
		if err := ix.DecodeAppendLog(re); err != nil {
			t.Fatalf("accepted log did not round-trip: %v", err)
		}
	})
}

package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// mustAppend appends one record and ends its batch, so it is durable.
func mustAppend(t *testing.T, w *WAL, payload []byte) {
	t.Helper()
	if err := w.Append(payload); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.BatchEnd(); err != nil {
		t.Fatalf("BatchEnd: %v", err)
	}
}

func TestWALRoundTrip(t *testing.T) {
	fs := NewMemFS(FaultPlan{})
	w, err := createWAL(fs, "log", SyncEveryBatch)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("alpha"), {}, []byte("gamma-gamma"), {0, 1, 2, 255}}
	for _, p := range want {
		mustAppend(t, w, p)
	}
	data, err := fs.ReadFile("log")
	if err != nil {
		t.Fatal(err)
	}
	recs, valid, err := DecodeWAL(data)
	if err != nil {
		t.Fatal(err)
	}
	if valid != len(data) {
		t.Fatalf("valid=%d, want %d (no torn tail)", valid, len(data))
	}
	if len(recs) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if !bytes.Equal(recs[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, recs[i], want[i])
		}
	}
}

func TestWALTruncatesTornTail(t *testing.T) {
	fs := NewMemFS(FaultPlan{})
	w, err := createWAL(fs, "log", SyncEveryBatch)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, []byte("first"))
	mustAppend(t, w, []byte("second"))
	good, _ := fs.ReadFile("log")

	cases := map[string][]byte{
		"half frame":     good[:len(good)-3], // cut into second record's payload
		"frame only":     good[:len(good)-6], // length present, payload missing
		"one extra byte": append(append([]byte{}, good...), 0x7f),
		"flipped bit": func() []byte {
			b := append([]byte{}, good...)
			b[len(b)-1] ^= 0x01 // corrupt second payload's last byte
			return b
		}(),
	}
	for name, data := range cases {
		recs, valid, err := DecodeWAL(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(recs) < 1 || !bytes.Equal(recs[0], []byte("first")) {
			t.Fatalf("%s: lost the intact first record (%d recs)", name, len(recs))
		}
		if len(recs) > 2 {
			t.Fatalf("%s: invented records (%d)", name, len(recs))
		}
		if valid > len(data) {
			t.Fatalf("%s: valid=%d beyond %d bytes", name, valid, len(data))
		}
	}

	if _, _, err := DecodeWAL([]byte("not a wal")); !errors.Is(err, ErrWALHeader) {
		t.Fatalf("bad header error = %v, want ErrWALHeader", err)
	}
	if _, _, err := DecodeWAL(nil); !errors.Is(err, ErrWALHeader) {
		t.Fatalf("empty error = %v, want ErrWALHeader", err)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := Manifest{Seq: 42, Snapshot: "snap-00000042", WAL: "wal-00000042"}
	enc := m.encode()
	got, err := decodeManifest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("round trip %+v != %+v", got, m)
	}
	for i := range enc {
		bad := append([]byte{}, enc...)
		bad[i] ^= 0x10
		if _, err := decodeManifest(bad); err == nil {
			t.Fatalf("flipping byte %d went undetected", i)
		}
	}
	if _, err := decodeManifest(enc[:10]); err == nil {
		t.Fatal("truncated manifest went undetected")
	}
}

func TestMutationRecordRoundTrip(t *testing.T) {
	ids := []int32{7, -1, 1 << 20}
	vecs := make([]byte, 3*5)
	for i := range vecs {
		vecs[i] = byte(i * 13)
	}
	ins, err := EncodeInsert(ids, 5, vecs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeMutation(ins)
	if err != nil {
		t.Fatal(err)
	}
	if m.Op != OpInsert || m.Dim != 5 || len(m.IDs) != 3 || !bytes.Equal(m.Vecs, vecs) {
		t.Fatalf("insert round trip: %+v", m)
	}
	for i, id := range ids {
		if m.IDs[i] != id {
			t.Fatalf("id %d = %d, want %d", i, m.IDs[i], id)
		}
	}

	del := EncodeDelete(ids[:2])
	m, err = DecodeMutation(del)
	if err != nil {
		t.Fatal(err)
	}
	if m.Op != OpDelete || len(m.IDs) != 2 || m.IDs[0] != 7 || m.IDs[1] != -1 {
		t.Fatalf("delete round trip: %+v", m)
	}

	if _, err := EncodeInsert(ids, 4, vecs); err == nil {
		t.Fatal("mismatched vecs length accepted")
	}
	for _, bad := range [][]byte{nil, {OpInsert}, {99, 0, 0, 0, 0}, ins[:len(ins)-1], append(append([]byte{}, del...), 0)} {
		if _, err := DecodeMutation(bad); err == nil {
			t.Fatalf("bad record %v accepted", bad)
		}
	}
}

func TestSyncPolicyString(t *testing.T) {
	for p, want := range map[SyncPolicy]string{SyncEveryBatch: "every-batch", SyncNever: "off", SyncPolicy(9): "SyncPolicy(9)"} {
		if got := p.String(); got != want {
			t.Fatalf("SyncPolicy(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}

// TestWriteFileAtomicCrashMatrix overwrites an existing good file at
// every possible crash point and checks the reader always sees either
// the complete old content or the complete new content — the property
// the in-place os.Create save path lacked.
func TestWriteFileAtomicCrashMatrix(t *testing.T) {
	oldContent := []byte("old-good-content")
	newContent := bytes.Repeat([]byte("new!"), 64)
	scenario := func(fs *MemFS) error {
		return WriteFileAtomic(fs, "file", func(w io.Writer) error {
			_, err := w.Write(newContent)
			return err
		})
	}
	seed := func(fs *MemFS) {
		if err := WriteFileAtomic(fs, "file", func(w io.Writer) error {
			_, err := w.Write(oldContent)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}

	dry := NewMemFS(FaultPlan{})
	seed(dry)
	opsBefore := dry.Ops()
	if err := scenario(dry); err != nil {
		t.Fatal(err)
	}
	total := dry.Ops()

	for _, torn := range []bool{false, true} {
		for op := opsBefore + 1; op <= total; op++ {
			fs := NewMemFS(FaultPlan{CrashAtOp: op, TornWrite: torn})
			seed(fs)
			err := scenario(fs)
			if !fs.Crashed() {
				t.Fatalf("op %d: expected a crash", op)
			}
			if err == nil {
				t.Fatalf("op %d: crash not surfaced", op)
			}
			fs.Reboot()
			got, err := fs.ReadFile("file")
			if err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			if !bytes.Equal(got, oldContent) && !bytes.Equal(got, newContent) {
				t.Fatalf("op %d torn=%v: torn hybrid %q", op, torn, got)
			}
		}
	}
}

// TestStoreCrashMatrix drives a full store life cycle — create with
// snapshot A, append three synced records, checkpoint to snapshot B,
// append one more — crashing at every mutating filesystem operation.
// After reboot + Open, the recovered {snapshot, WAL prefix} must be a
// consistent generation (never snapshot B with generation-1 records or
// vice versa), and every record acknowledged before the crash must be
// present.
func TestStoreCrashMatrix(t *testing.T) {
	snapA, snapB := []byte("snapshot-A"), []byte("snapshot-B")
	gen1 := [][]byte{[]byte("r1"), []byte("r2"), []byte("r3")}
	gen2 := [][]byte{[]byte("r4")}
	writeBytes := func(b []byte) func(io.Writer) error {
		return func(w io.Writer) error { _, err := w.Write(b); return err }
	}

	// acked collects records that were durably acknowledged before the
	// crash (Append then BatchEnd returned nil under SyncEveryBatch).
	appendBatch := func(st *Store, r []byte) error {
		if err := st.Append(r); err != nil {
			return err
		}
		return st.BatchEnd()
	}
	scenario := func(fs *MemFS, acked *[][]byte) error {
		st, err := Create(Options{Dir: "store", Policy: SyncEveryBatch, FS: fs}, writeBytes(snapA))
		if err != nil {
			return err
		}
		for _, r := range gen1 {
			if err := appendBatch(st, r); err != nil {
				return err
			}
			*acked = append(*acked, r)
		}
		if err := st.Checkpoint(writeBytes(snapB)); err != nil {
			return err
		}
		*acked = nil // checkpoint folded gen-1 records into snapshot B
		for _, r := range gen2 {
			if err := appendBatch(st, r); err != nil {
				return err
			}
			*acked = append(*acked, r)
		}
		return st.Close()
	}

	dry := NewMemFS(FaultPlan{})
	var drop [][]byte
	if err := scenario(dry, &drop); err != nil {
		t.Fatal(err)
	}
	total := dry.Ops()
	if total < 10 {
		t.Fatalf("scenario too small for a meaningful matrix: %d ops", total)
	}

	for _, torn := range []bool{false, true} {
		for op := 1; op <= total; op++ {
			fs := NewMemFS(FaultPlan{CrashAtOp: op, TornWrite: torn})
			var acked [][]byte
			if err := scenario(fs, &acked); err == nil {
				t.Fatalf("op %d: crash not surfaced", op)
			}
			fs.Reboot()

			st, err := Open(Options{Dir: "store", FS: fs})
			if errors.Is(err, ErrNotExists) {
				// Crashed before the very first manifest landed: the
				// store never existed, so nothing was ever acked.
				if len(acked) != 0 {
					t.Fatalf("op %d: %d acked records but no store", op, len(acked))
				}
				continue
			}
			if err != nil {
				t.Fatalf("op %d: Open: %v", op, err)
			}
			snap, err := st.SnapshotBytes()
			if err != nil {
				t.Fatalf("op %d: snapshot: %v", op, err)
			}
			recs, err := st.WALRecords()
			if err != nil {
				t.Fatalf("op %d: WAL: %v", op, err)
			}

			var okPrefixes [][][]byte
			switch {
			case bytes.Equal(snap, snapA):
				okPrefixes = prefixes(gen1)
			case bytes.Equal(snap, snapB):
				okPrefixes = prefixes(gen2)
			default:
				t.Fatalf("op %d torn=%v: torn snapshot %q", op, torn, snap)
			}
			if !containsPrefix(okPrefixes, recs) {
				t.Fatalf("op %d torn=%v: snapshot %q with records %q is not a valid generation prefix", op, torn, snap, recs)
			}
			// Durability: acked records of the surviving generation
			// must all be present. (acked is reset at checkpoint, so
			// it always refers to the newest generation the scenario
			// reached; if the crash rolled back to generation 1, the
			// checkpoint never committed and acked still holds gen-1
			// appends.)
			for i, r := range acked {
				if i >= len(recs) || !bytes.Equal(recs[i], r) {
					t.Fatalf("op %d torn=%v: acked record %d (%q) lost; recovered %q from snapshot %q", op, torn, i, r, recs, snap)
				}
			}
		}
	}
}

func prefixes(recs [][]byte) [][][]byte {
	out := make([][][]byte, 0, len(recs)+1)
	for i := 0; i <= len(recs); i++ {
		out = append(out, recs[:i])
	}
	return out
}

func containsPrefix(prefixes [][][]byte, recs [][]byte) bool {
	for _, p := range prefixes {
		if len(p) != len(recs) {
			continue
		}
		ok := true
		for i := range p {
			if !bytes.Equal(p[i], recs[i]) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestStoreSyncFailure pins error-on-sync handling: a failed sync under
// SyncEveryBatch surfaces from BatchEnd (the mutation must not be
// acknowledged) and the store keeps working afterwards.
func TestStoreSyncFailure(t *testing.T) {
	fs := NewMemFS(FaultPlan{FailSyncAt: 4}) // 1: snap temp, 2: wal header, 3: manifest temp, 4: first record
	st, err := Create(Options{Dir: "store", Policy: SyncEveryBatch, FS: fs}, func(w io.Writer) error {
		_, err := w.Write([]byte("snap"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := st.BatchEnd(); !errors.Is(err, ErrInjectedSync) {
		t.Fatalf("BatchEnd under failing sync = %v, want ErrInjectedSync", err)
	}
	if err := st.Append([]byte("fine")); err != nil {
		t.Fatal(err)
	}
	if err := st.BatchEnd(); err != nil {
		t.Fatalf("BatchEnd after sync recovered: %v", err)
	}
	recs, err := st.WALRecords()
	if err != nil {
		t.Fatal(err)
	}
	// Both byte sequences are in the log (the write preceded the failed
	// sync); what the failure guarantees is only that "doomed" was not
	// acknowledged — after a crash it may or may not survive.
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
}

func TestStoreCreateTwiceFails(t *testing.T) {
	fs := NewMemFS(FaultPlan{})
	snap := func(w io.Writer) error { _, err := w.Write([]byte("s")); return err }
	if _, err := Create(Options{Dir: "d", FS: fs}, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(Options{Dir: "d", FS: fs}, snap); !errors.Is(err, ErrExists) {
		t.Fatalf("second Create = %v, want ErrExists", err)
	}
	if _, err := Open(Options{Dir: "elsewhere", FS: fs}); !errors.Is(err, ErrNotExists) {
		t.Fatalf("Open of empty dir = %v, want ErrNotExists", err)
	}
}

// TestStoreOnDisk exercises the OS-backed FS end to end in a temp dir:
// create, append, reopen, replay, checkpoint, reopen again.
func TestStoreOnDisk(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := Create(Options{Dir: dir, Policy: SyncEveryBatch}, func(w io.Writer) error {
		_, err := w.Write([]byte("disk-snap"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.BatchEnd(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Options{Dir: dir, Policy: SyncEveryBatch})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := re.SnapshotBytes()
	if err != nil || !bytes.Equal(snap, []byte("disk-snap")) {
		t.Fatalf("snapshot %q err %v", snap, err)
	}
	recs, err := re.WALRecords()
	if err != nil || len(recs) != 3 {
		t.Fatalf("%d records err %v", len(recs), err)
	}
	if err := re.Checkpoint(func(w io.Writer) error {
		_, err := w.Write([]byte("disk-snap-2"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if re.Manifest().Seq != 2 {
		t.Fatalf("seq %d after checkpoint, want 2", re.Manifest().Seq)
	}
	if err := re.Append([]byte("post-rotate")); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 { // MANIFEST + snap-2 + wal-2; generation 1 removed
		names := []string{}
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("dir holds %v, want exactly 3 files", names)
	}
}

// FuzzWALDecode is the WAL-framing analogue of ivf's FuzzAppendLog:
// arbitrary bytes never panic the strict decoder, the decoded prefix is
// re-encodable to an image that decodes to the same records, and valid
// never exceeds the input length.
func FuzzWALDecode(f *testing.F) {
	fs := NewMemFS(FaultPlan{})
	w, _ := createWAL(fs, "seed", SyncNever)
	w.Append([]byte("hello"))
	w.Append([]byte{})
	w.Append(bytes.Repeat([]byte{0xab}, 300))
	seed, _ := fs.ReadFile("seed")
	f.Add(seed)
	f.Add(seed[:len(seed)-2])
	f.Add([]byte{})
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], walMagic)
	binary.LittleEndian.PutUint32(hdr[4:], walVersion)
	f.Add(hdr[:])
	f.Add(append(hdr[:], 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid, err := DecodeWAL(data)
		if err != nil {
			return
		}
		if valid > len(data) {
			t.Fatalf("valid %d > len %d", valid, len(data))
		}
		// Re-encode the decoded records and decode again: must be
		// lossless and fully valid.
		re := NewMemFS(FaultPlan{})
		w, err := createWAL(re, "re", SyncNever)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		img, _ := re.ReadFile("re")
		recs2, valid2, err := DecodeWAL(img)
		if err != nil {
			t.Fatal(err)
		}
		if valid2 != len(img) || len(recs2) != len(recs) {
			t.Fatalf("re-decode: %d/%d records, valid %d/%d", len(recs2), len(recs), valid2, len(img))
		}
		for i := range recs {
			if !bytes.Equal(recs[i], recs2[i]) {
				t.Fatalf("record %d changed across re-encode", i)
			}
		}
		// Sanity: each returned payload's CRC must match what the image
		// claims at its frame (the decoder only accepts checksummed
		// prefixes).
		off := walHeaderSize
		for i, r := range recs {
			if crc := binary.LittleEndian.Uint32(data[off+4:]); crc32.ChecksumIEEE(r) != crc {
				t.Fatalf("record %d accepted with mismatched crc", i)
			}
			off += recFrameSize + len(r)
		}
	})
}

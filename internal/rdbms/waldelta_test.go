package rdbms

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// walRecord is one decoded WAL record of a test's segment walk.
type walRecord struct {
	seg    int // index into the walked files
	end    int // offset just past the record in that file
	commit bool
	gen    uint64 // of a commit record
	id     PageID // of a page record
	delta  bool   // page record: delta, not image
}

// walkSegments decodes the given segment files in order; every one must scan
// cleanly to its end.
func walkSegments(t *testing.T, files ...string) []walRecord {
	t.Helper()
	var out []walRecord
	for i, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			continue
		}
		sc := scanWAL(data)
		for sc.next() {
			out = append(out, walRecord{seg: i, end: sc.off, commit: sc.commit, gen: sc.gen,
				id: sc.id, delta: !sc.commit && sc.image == nil})
		}
		if sc.err != nil {
			t.Fatalf("%s: %v", name, sc.err)
		}
	}
	return out
}

// pageKinds spells the page records of id in order: 'i' image, 'd' delta.
func pageKinds(recs []walRecord, id PageID) string {
	var s []byte
	for _, r := range recs {
		if r.commit || r.id != id {
			continue
		}
		if r.delta {
			s = append(s, 'd')
		} else {
			s = append(s, 'i')
		}
	}
	return string(s)
}

// garbageSlot overwrites page id's data-file slot the way a checkpoint killed
// mid-write leaves it: bytes that fail the slot checksum.
func garbageSlot(t *testing.T, path string, id PageID) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	junk := bytes.Repeat([]byte{0xA5}, pageSlotSize)
	if _, err := f.WriteAt(junk, pageOffset(id)); err != nil {
		t.Fatal(err)
	}
}

// deltaTable opens a database whose table "t" holds n two-column rows,
// checkpointed: the next touch of any page is its first since the checkpoint.
func deltaTable(t *testing.T, path string, opts Options, n int) (*DB, *Table, []RID) {
	t.Helper()
	db, err := OpenFile(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := db.CreateTable("t", NewSchema(
		Column{Name: "id", Type: DTInt},
		Column{Name: "name", Type: DTText},
	))
	if err != nil {
		t.Fatal(err)
	}
	rids := fillTable(t, tab, 0, n)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return db, tab, rids
}

// updateAndCommit rewrites one row in place (same length, so the tuple keeps
// its slot and the page changes in a few bytes) and commits.
func updateAndCommit(t *testing.T, db *DB, tab *Table, rid RID, id int, name string) {
	t.Helper()
	if got, err := tab.Update(rid, Row{Int(int64(id)), Text(name)}); err != nil || got != rid {
		t.Fatalf("update %v: moved to %v, err %v", rid, got, err)
	}
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverTornSlotsRebuiltFromLog is the first-touch rule's test: every
// page dirtied since the checkpoint — one of them logged as an image and
// then three deltas — has its slot overwritten with garbage, as a checkpoint
// killed mid-write leaves it, and reopen must rebuild all of them from the
// log alone.
func TestRecoverTornSlotsRebuiltFromLog(t *testing.T) {
	path := tempDBPath(t)
	db, tab, rids := deltaTable(t, path, Options{}, 600)
	rid := rids[10]
	before := db.Pool().Stats()
	updateAndCommit(t, db, tab, rid, 10, "one-1")
	updateAndCommit(t, db, tab, rid, 10, "two-2")
	updateAndCommit(t, db, tab, rids[11], 11, "side-x")
	updateAndCommit(t, db, tab, rid, 10, "333-3")
	after := db.Pool().Stats()
	if d := after.WALDeltas - before.WALDeltas; d < 3 {
		t.Fatalf("four commits on one page logged %d deltas, want >= 3", d)
	}
	if kinds := pageKinds(walkSegments(t, path+".wal"), rid.Page); kinds != "iddd" {
		t.Fatalf("page %d logged as %q, want image then three deltas", rid.Page, kinds)
	}
	want := scanModel(tab)
	fp := db.disk
	fp.mu.RLock()
	var dirty []PageID
	for id := range fp.ckptDirty {
		dirty = append(dirty, id)
	}
	fp.mu.RUnlock()
	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	for _, id := range dirty {
		garbageSlot(t, path, id)
	}

	db2 := mustOpenFile(t, path)
	defer db2.Close()
	requireModel(t, db2.Table("t"), want, "after torn checkpoint")
	if err := db2.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

// crashAfterTruncatingSegmentZero checkpoints db, whose every change is
// committed, and crashes it the way a kill inside resetWAL does: segment 0
// emptied, the numbered segments — which must hold a delta whose image was in
// segment 0 — still on disk. It returns the data file as the checkpoint left
// it.
func crashAfterTruncatingSegmentZero(t *testing.T, db *DB, path string) []byte {
	t.Helper()
	var survivors []string
	for _, name := range listSegmentFiles(t, path) {
		survivors = append(survivors, filepath.Join(tDir(path), name))
	}
	orphans := 0
	seen := map[PageID]bool{}
	for _, r := range walkSegments(t, survivors...) {
		if !r.commit && r.delta && !seen[r.id] {
			orphans++
		}
		seen[r.id] = true
	}
	if orphans == 0 {
		t.Fatal("no surviving delta has its image in segment 0")
	}
	saved := make(map[string][]byte)
	for _, name := range survivors {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		saved[name] = data
	}
	// The checkpoint appends nothing: the saved segments are exactly what
	// resetWAL is about to delete.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	checkpointed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range saved {
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return checkpointed
}

// TestRecoverSuffixAfterInterruptedCompaction is idempotence's test: a crash
// inside resetWAL after segment 0 was truncated and before the numbered
// segments were deleted leaves a suffix of the log whose deltas had their
// images in segment 0. Replaying it over the checkpointed file must leave
// the file as the checkpoint wrote it, byte for byte.
func TestRecoverSuffixAfterInterruptedCompaction(t *testing.T) {
	path := tempDBPath(t)
	opts := segmentOptions(-1) // rotate, never compact
	db, tab, rids := deltaTable(t, path, opts, 3000)
	// Segment 0: the first touch — an image — of every heap page.
	for i := 0; i < len(rids); i += 50 {
		if _, err := tab.Update(rids[i], Row{Int(int64(i)), Text("first")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	if db.Pool().Stats().WALRotations == 0 {
		t.Fatal("the image batch did not outgrow the first segment")
	}
	// Later segments: the same pages again, several times over.
	for round := 0; round < 3; round++ {
		for i := round; i < len(rids); i += 50 {
			if _, err := tab.Update(rids[i], Row{Int(int64(i)), Text("later")}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.FlushWAL(); err != nil {
			t.Fatal(err)
		}
	}
	want := scanModel(tab)
	checkpointed := crashAfterTruncatingSegmentZero(t, db, path)
	if err := requireSuffixReplayConverges(t, path, opts, want, checkpointed).Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverSuffixOverFreedPages is the same crash for pages that are dead
// by the checkpoint: allocated after the previous one (images in segment 0),
// changed again after the rotation (deltas in the survivors), then freed with
// their table. The surviving deltas still need something to apply to — a page
// the log holds keeps its slot written until the checkpoint, live or not.
func TestRecoverSuffixOverFreedPages(t *testing.T) {
	path := tempDBPath(t)
	opts := segmentOptions(-1)
	db, tab, _ := deltaTable(t, path, opts, 600)
	u, err := db.CreateTable("u", tab.Schema)
	if err != nil {
		t.Fatal(err)
	}
	rids := fillTable(t, u, 0, 3000)
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	if db.Pool().Stats().WALRotations == 0 {
		t.Fatal("the image batch did not outgrow the first segment")
	}
	for i := 0; i < len(rids); i += 50 {
		if _, err := u.Update(rids[i], Row{Int(int64(i)), Text("later")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	freed := make(map[PageID]bool)
	for _, id := range u.heap.pages {
		freed[id] = true
	}
	if err := db.DropTable("u"); err != nil {
		t.Fatal(err)
	}
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	// A table made of some of the freed pages: their new contents are logged
	// against the images the log already holds.
	v, err := db.CreateTable("v", tab.Schema)
	if err != nil {
		t.Fatal(err)
	}
	fillTable(t, v, 0, 400)
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	reused := 0
	for _, id := range v.heap.pages {
		if freed[id] {
			reused++
		}
	}
	if reused == 0 {
		t.Fatalf("table v is on pages %v, none of them freed by the drop", v.heap.pages)
	}
	want, wantV := scanModel(tab), scanModel(v)
	checkpointed := crashAfterTruncatingSegmentZero(t, db, path)
	db2 := requireSuffixReplayConverges(t, path, opts, want, checkpointed)
	defer db2.Close()
	if db2.Table("u") != nil {
		t.Fatal("the dropped table came back")
	}
	requireModel(t, db2.Table("v"), wantV, "table on reused pages")
}

// TestRecoverBaseSurvivesTruncateTail: the page count does not shrink past a
// freed page the log holds a record of until a checkpoint has written its
// slot — a surviving delta for it must find a base below the page count.
func TestRecoverBaseSurvivesTruncateTail(t *testing.T) {
	db := mustOpenFile(t, tempDBPath(t))
	defer db.Close()
	fp := db.disk
	id := fp.alloc()
	if err := fp.commitWAL(fp.epoch); err != nil {
		t.Fatal(err)
	}
	fp.free([]PageID{id})
	fp.promotePendingFree()
	if n := fp.truncateTail(); n != 0 || fp.pageCount() != int(id)+1 {
		t.Fatalf("truncateTail dropped %d pages (count %d) with page %d still in the log", n, fp.pageCount(), id)
	}
	if err := fp.checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := fp.truncateTail(); n != 1 {
		t.Fatalf("truncateTail after the checkpoint dropped %d pages, want 1", n)
	}
}

// requireSuffixReplayConverges reopens the store crashAfterTruncatingSegmentZero
// left behind: table "t" must read as want, every slot verify, and the data
// file end up as the checkpoint wrote it, byte for byte. It returns the store
// reopened once more.
func requireSuffixReplayConverges(t *testing.T, path string, opts Options, want map[int64]string, checkpointed []byte) *DB {
	t.Helper()
	db, err := OpenFile(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireModel(t, db.Table("t"), want, "after replaying the suffix")
	if err := db.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	replayed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replayed, checkpointed) {
		t.Fatalf("replaying a log suffix over the checkpointed file changed it (%d bytes, %d before)", len(replayed), len(checkpointed))
	}
	db, err = OpenFile(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestRecoverDeltaWithoutBaseFailsOpen: a committed delta whose page has no
// earlier record in the log and whose slot cannot be read is not a torn
// tail. The open fails with ErrWALDeltaBase and leaves the log as it was.
func TestRecoverDeltaWithoutBaseFailsOpen(t *testing.T) {
	path := tempDBPath(t)
	db, tab, rids := deltaTable(t, path, Options{}, 600)
	rid := rids[10]
	updateAndCommit(t, db, tab, rid, 10, "one-1")
	updateAndCommit(t, db, tab, rid, 10, "two-2")
	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	// Cut the first batch — the page's image — out of the log.
	recs := walkSegments(t, path+".wal")
	cut := -1
	for _, r := range recs {
		if r.commit {
			cut = r.end
			break
		}
	}
	if kinds := pageKinds(recs, rid.Page); cut < 0 || kinds != "id" {
		t.Fatalf("log holds %q for page %d, first commit ends at %d", kinds, rid.Page, cut)
	}
	data, err := os.ReadFile(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	orphaned := append([]byte(walMagic), data[cut:]...)
	if err := os.WriteFile(path+".wal", orphaned, 0o644); err != nil {
		t.Fatal(err)
	}

	// With a readable slot the delta has a base (this is the suffix case).
	probe := filepath.Join(t.TempDir(), "probe.dsdb")
	copyFile(t, path, probe)
	copyFile(t, path+".wal", probe+".wal")
	if pdb, err := OpenFile(probe, Options{}); err != nil {
		t.Fatalf("delta over a readable slot: %v", err)
	} else if err := pdb.Close(); err != nil {
		t.Fatal(err)
	}

	garbageSlot(t, path, rid.Page)
	if _, err := OpenFile(path, Options{}); !errors.Is(err, ErrWALDeltaBase) {
		t.Fatalf("open = %v, want ErrWALDeltaBase", err)
	}
	if after, _ := os.ReadFile(path + ".wal"); !bytes.Equal(after, orphaned) {
		t.Fatalf("refused open rewrote the WAL (%d -> %d bytes)", len(orphaned), len(after))
	}
}

// TestRecoverMalformedDeltaFailsOpen: a delta record that passes its checksum
// and would write outside its page is a writer's bug or targeted damage, not a
// torn tail: the open fails instead of quietly discarding it and every batch
// after it.
func TestRecoverMalformedDeltaFailsOpen(t *testing.T) {
	path := tempDBPath(t)
	db, tab, rids := deltaTable(t, path, Options{}, 600)
	updateAndCommit(t, db, tab, rids[10], 10, "one-1")
	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, deltaRecord(rids[10].Page, run(PageSize-5, 6, 1))...)
	if err := os.WriteFile(path+".wal", data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path, Options{}); !errors.Is(err, errWALBadDelta) {
		t.Fatalf("open = %v, want the malformed-delta error", err)
	}
	if after, _ := os.ReadFile(path + ".wal"); !bytes.Equal(after, data) {
		t.Fatalf("refused open rewrote the WAL (%d -> %d bytes)", len(data), len(after))
	}
}

// TestDeltaRecordRoundTrip: for pages differing in anything from nothing to
// every byte, the record the commit path encodes is either refused as no
// smaller than the image (the buffer left as it was) or decodes, through the
// scanner, to runs that turn the base into the page exactly. Six changed
// bytes cost 21.
func TestDeltaRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prefix := []byte("kept")
	for trial := 0; trial < 400; trial++ {
		var base, cur [PageSize]byte
		rng.Read(base[:])
		cur = base
		changes := []int{0, 1, 3, 40, 600, 3000, PageSize}[trial%7]
		for i := 0; i < changes; i++ {
			at := rng.Intn(PageSize)
			for n := 1 + rng.Intn(12); n > 0 && at < PageSize; n-- {
				cur[at] ^= byte(1 + rng.Intn(255))
				at++
			}
		}
		rec, ok := appendDeltaRec(append([]byte(nil), prefix...), 9, &base, &cur)
		if !ok {
			if changes < 600 || !bytes.Equal(rec, prefix) {
				t.Fatalf("trial %d (%d changes): delta refused, buffer %q", trial, changes, rec)
			}
			continue
		}
		if len(rec)-len(prefix) >= walPageRecSize {
			t.Fatalf("trial %d: delta record of %d bytes", trial, len(rec)-len(prefix))
		}
		sc := scanWAL(append([]byte(walMagic), rec[len(prefix):]...))
		if !sc.next() || sc.image != nil || sc.id != 9 {
			t.Fatalf("trial %d: scan: %v", trial, sc.err)
		}
		got := base
		applyDelta(got[:], sc.delta)
		if got != cur {
			t.Fatalf("trial %d (%d changes): applying the delta does not rebuild the page", trial, changes)
		}
	}
	var base, cur [PageSize]byte
	copy(cur[4001:], "sixsix")
	if rec, ok := appendDeltaRec(nil, 1, &base, &cur); !ok || len(rec) != 21 {
		t.Fatalf("six changed bytes: %d-byte record, ok %v", len(rec), ok)
	}
}

// deltaRecord frames payload as a delta record for page id.
func deltaRecord(id PageID, payload []byte) []byte {
	rec := []byte{walDeltaRec}
	rec = binary.LittleEndian.AppendUint32(rec, uint32(id))
	rec = binary.LittleEndian.AppendUint16(rec, uint16(len(payload)))
	rec = append(rec, payload...)
	return binary.LittleEndian.AppendUint32(rec, crc32.Checksum(rec, castagnoli))
}

// run encodes one delta run.
func run(off, n int, fill byte) []byte {
	r := binary.LittleEndian.AppendUint16(nil, uint16(off))
	r = binary.LittleEndian.AppendUint16(r, uint16(n))
	return append(r, bytes.Repeat([]byte{fill}, n)...)
}

// TestWALScanRefusesDamagedDeltas: a delta record whose length no writer
// produces is damage, like any torn tail; one that passes its checksum but
// would write outside its page, or whose runs do not fill its payload, is not
// something a torn append leaves behind and fails the scan loudly, as an
// intact record of the removed commit type does.
func TestWALScanRefusesDamagedDeltas(t *testing.T) {
	flipped := deltaRecord(3, run(100, 6, 1))
	flipped[walDeltaHdrSize+walRunHdrSize] ^= 0xFF
	cases := []struct {
		name string
		rec  []byte
		want error // nil: the record decodes
	}{
		{"one run", deltaRecord(3, run(100, 6, 1)), nil},
		{"no runs", deltaRecord(3, nil), nil},
		{"run ending at the page end", deltaRecord(3, run(PageSize-6, 6, 1)), nil},
		{"run past the page end", deltaRecord(3, run(PageSize-5, 6, 1)), errWALBadDelta},
		{"empty run", deltaRecord(3, run(100, 0, 1)), errWALBadDelta},
		{"run longer than the payload", deltaRecord(3, run(100, 6, 1)[:8]), errWALBadDelta},
		{"payload ending inside a run header", deltaRecord(3, append(run(100, 6, 1), 7, 0)), errWALBadDelta},
		{"as long as an image", deltaRecord(3, run(0, walPageRecSize-walDeltaHdrSize-4-walRunHdrSize, 1)), errWALTorn},
		{"failing its checksum", flipped, errWALTorn},
	}
	for _, tc := range cases {
		sc := scanWAL(append([]byte(walMagic), tc.rec...))
		got := sc.next()
		if tc.want == nil {
			if !got || sc.err != nil || sc.image != nil || sc.id != 3 {
				t.Errorf("%s: next = %v, err %v", tc.name, got, sc.err)
			}
			continue
		}
		if got || !errors.Is(sc.err, tc.want) || (tc.want != errWALTorn && errors.Is(sc.err, errWALTorn)) {
			t.Errorf("%s: next = %v, err %v, want %v", tc.name, got, sc.err, tc.want)
		}
	}
	removed := make([]byte, walRemovedCommitRecSize)
	removed[0] = walRemovedCommitRec
	binary.LittleEndian.PutUint32(removed[13:], crc32.Checksum(removed[:13], castagnoli))
	sc := scanWAL(append([]byte(walMagic), removed...))
	if sc.next() || !errors.Is(sc.err, errFormatVersion) || errors.Is(sc.err, errWALTorn) {
		t.Errorf("removed commit record: err = %v, want a format-version error", sc.err)
	}
}

// FuzzWALScan: whatever the bytes, the one WAL decoder neither panics nor
// reads past the segment, hands out only images of a page's size and deltas
// that stay inside one, and stops either cleanly at the end, at damage, or —
// only at a checksummed delta with impossible runs or an intact record of the
// removed commit type — loudly.
func FuzzWALScan(f *testing.F) {
	// A real segment: images, deltas (the same pages committed again) and
	// commit records.
	path := filepath.Join(f.TempDir(), "seed.dsdb")
	db, err := OpenFile(path, Options{})
	if err != nil {
		f.Fatal(err)
	}
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}, Column{Name: "s", Type: DTText}))
	for i := 0; i < 2; i++ {
		if _, err := tab.Insert(Row{Int(int64(i)), Text("seed")}); err != nil {
			f.Fatal(err)
		}
		if err := db.FlushWAL(); err != nil {
			f.Fatal(err)
		}
	}
	if err := db.SimulateCrash(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(path + ".wal")
	if err != nil {
		f.Fatal(err)
	}
	kinds := map[byte]bool{}
	for sc := scanWAL(seg); sc.next(); {
		switch {
		case sc.commit:
			kinds['c'] = true
		case sc.image != nil:
			kinds['i'] = true
		default:
			kinds['d'] = true
		}
	}
	if len(kinds) != 3 {
		f.Fatalf("seed segment holds record kinds %v, want image, delta and commit", kinds)
	}
	f.Add(seg)
	f.Add(append([]byte(walMagic), deltaRecord(1, run(PageSize-5, 6, 1))...))
	f.Add(append([]byte(walMagic), deltaRecord(1, append(run(8, 4, 2), run(4000, 90, 3)...))...))
	removed := make([]byte, walRemovedCommitRecSize)
	removed[0] = walRemovedCommitRec
	binary.LittleEndian.PutUint32(removed[13:], crc32.Checksum(removed[:13], castagnoli))
	f.Add(append([]byte(walMagic), removed...))

	f.Fuzz(func(t *testing.T, data []byte) {
		sc := scanWAL(data)
		var img [PageSize]byte
		for sc.next() {
			switch {
			case sc.commit:
			case sc.image != nil:
				if len(sc.image) != PageSize {
					t.Fatalf("image of %d bytes", len(sc.image))
				}
			default:
				applyDelta(img[:], sc.delta) // panics on a run outside the page
			}
			if sc.off > len(data) {
				t.Fatalf("scanned to %d of %d bytes", sc.off, len(data))
			}
		}
		switch {
		case sc.err == nil:
			if len(data) >= len(walMagic) && sc.off != len(data) {
				t.Fatalf("clean end at %d of %d bytes", sc.off, len(data))
			}
		case errors.Is(sc.err, errWALTorn):
		case errors.Is(sc.err, errWALBadDelta):
			if data[sc.off] != walDeltaRec {
				t.Fatalf("malformed-delta error at a record of type %d: %v", data[sc.off], sc.err)
			}
		case errors.Is(sc.err, errFormatVersion):
			if data[sc.off] != walRemovedCommitRec {
				t.Fatalf("format error at a record of type %d: %v", data[sc.off], sc.err)
			}
		default:
			t.Fatalf("scan ended with %v", sc.err)
		}
	})
}

package rdbms

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
)

// TestMetaOutOfLineRoundTrip: values of assorted sizes (empty, small,
// multi-page) survive commit + reopen through the out-of-line chains, and
// deletions stick.
func TestMetaOutOfLineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.dsdb")
	db, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("0123456789abcdef"), 3*PageSize/16) // ~3 pages
	vals := map[string][]byte{
		"a":        []byte("small"),
		"big":      big,
		"empty":    {},
		"sheet:x":  []byte(`{"version":3}`),
		"sheet:x:": []byte("prefix sibling"),
	}
	for k, v := range vals {
		db.PutMeta(k, v)
	}
	db.PutMeta("doomed", []byte("going away"))
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	db.DeleteMeta("doomed")
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for k, v := range vals {
		got, ok, err := db2.MetaValue(k)
		if err != nil || !ok {
			t.Fatalf("meta %q missing after reopen: %v", k, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("meta %q: got %d bytes, want %d", k, len(got), len(v))
		}
	}
	if _, ok, err := db2.MetaValue("doomed"); ok || err != nil {
		t.Fatalf("deleted meta key resurrected after reopen (err %v)", err)
	}
	keys := db2.MetaKeys("sheet:x")
	if len(keys) != 2 {
		t.Fatalf("MetaKeys(sheet:x) = %v, want 2 entries", keys)
	}
}

// TestMetaUnchangedValuesSkipRewrite: a commit whose meta values did not
// change restages no segments; rewriting an identical value is free.
func TestMetaUnchangedValuesSkipRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "clean.dsdb")
	db, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	v := bytes.Repeat([]byte("x"), 2*PageSize)
	db.PutMeta("k", v)
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	before := db.Pool().Stats().ManifestSegments
	db.PutMeta("k", v) // identical bytes
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	if got := db.Pool().Stats().ManifestSegments - before; got != 0 {
		t.Fatalf("identical PutMeta restaged %d segments, want 0", got)
	}
	db.PutMeta("k", append(v, 'y'))
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	if got := db.Pool().Stats().ManifestSegments - before; got != 1 {
		t.Fatalf("changed PutMeta restaged %d segments, want 1", got)
	}
}

// TestMetaChainPagesReclaimed: deleting (or shrinking) a large value
// returns its chain pages to the free list, and they are reused by later
// growth instead of growing the file.
func TestMetaChainPagesReclaimed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gc.dsdb")
	db, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.PutMeta("fat", bytes.Repeat([]byte("z"), 8*PageSize))
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	db.DeleteMeta("fat")
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	// The frees promote at the next staging.
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	if free := db.Pool().Stats().FreePages; free < 8 {
		t.Fatalf("deleted 8-page meta chain left %d free pages, want >= 8", free)
	}
	pages := db.disk.pageCount()
	for i := 0; i < 4; i++ {
		db.PutMeta(fmt.Sprintf("slim%d", i), bytes.Repeat([]byte("w"), PageSize))
	}
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	if got := db.disk.pageCount(); got != pages {
		t.Fatalf("new meta values grew the file %d -> %d pages despite free chain pages", pages, got)
	}
}

// TestMetaValueSurfacesChainErrors: MetaValue distinguishes a missing key
// (ok=false, no error) from an unreadable chain (error).
func TestMetaValueSurfacesChainErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metaerr.dsdb")
	db, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, ok, err := db.MetaValue("absent"); ok || err != nil {
		t.Fatalf("absent key: ok=%v err=%v, want false/nil", ok, err)
	}
	// Point a key at a chain referencing a page the pager does not know.
	db.mu.Lock()
	db.metaLoc["broken"] = metaChainLoc{pages: []PageID{9999}, n: 10}
	db.mu.Unlock()
	if _, ok, err := db.MetaValue("broken"); ok || err == nil {
		t.Fatalf("broken chain: ok=%v err=%v, want false/non-nil", ok, err)
	}
}

package rdbms

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// wideSchema is a schema of n text columns.
func wideSchema(n int) Schema {
	cols := make([]Column, n)
	for i := range cols {
		cols[i] = Column{Name: fmt.Sprintf("c%d", i), Type: DTText}
	}
	return NewSchema(cols...)
}

// TestCatalogRecordsContinue: a page list with more runs than one record
// holds continues in recMore records and decodes to the same list, and a
// schema with more columns than one record holds round-trips.
func TestCatalogRecordsContinue(t *testing.T) {
	// Every other page: one run per page.
	ids := make([]PageID, 2*maxRecordPairs+7)
	for i := range ids {
		ids[i] = PageID(2 * i)
	}
	blob := appendRunRecords(nil, Row{Int(recFree)}, ids)
	var got []PageID
	records := 0
	for len(blob) > 0 {
		rec, rest, err := NextRecord(blob)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(recMore)
		if records == 0 {
			want = recFree
		}
		if tag := rec.Int(); tag != want {
			t.Fatalf("record %d has tag %d, want %d", records, tag, want)
		}
		got = rec.pages(got, 2*len(ids))
		if rec.Err != nil {
			t.Fatal(rec.Err)
		}
		blob = rest
		records++
	}
	if records != 3 || !reflect.DeepEqual(got, ids) {
		t.Fatalf("%d pages in %d records came back as %d pages", len(ids), records, len(got))
	}

	tab := &Table{Schema: wideSchema(maxRecordPairs + 5), indexes: map[string]*tableIndex{"c3": nil, "c1": nil}}
	schema, indexed, err := decodeSchema(encodeSchema(tab))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(schema, tab.Schema) || !reflect.DeepEqual(indexed, []string{"c1", "c3"}) {
		t.Fatalf("schema of %d columns came back with %d, indexes %v", tab.Schema.Arity(), schema.Arity(), indexed)
	}
}

// TestCatalogRecordDecodeIsStrict: what the catalog codec must refuse — a
// frame longer than its row, a datum of the wrong type, a page run outside
// the file — is refused with an error that says what is wrong.
func TestCatalogRecordDecodeIsStrict(t *testing.T) {
	padded := AppendRecord(nil, Row{Int(recFree)})
	padded[0]++ // the frame claims one byte more than the row fills
	if _, _, err := NextRecord(append(padded, 0)); err == nil || !strings.Contains(err.Error(), "holds a") {
		t.Errorf("frame with a byte after its row: %v", err)
	}
	rec, _, err := NextRecord(AppendRecord(nil, Row{Int(recMeta), Int(7)}))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Int(); rec.Text() != "" || rec.Err == nil || !strings.Contains(rec.Err.Error(), "datum 1") {
		t.Errorf("int where the key belongs: %v", rec.Err)
	}
	rec, _, err = NextRecord(appendRunRecords(nil, Row{Int(recFree)}, []PageID{8, 9, 10}))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Int(); rec.pages(nil, 10) != nil || rec.Err == nil || !strings.Contains(rec.Err.Error(), "outside the 10-page file") {
		t.Errorf("run past the end of the file: %v", rec.Err)
	}
}

// TestCommitCostFollowsDDL: a commit without DDL stages no schema
// bytes however many wide tables the catalog holds, an unchanged commit
// stages and logs nothing at all, and one AddColumn re-stages exactly that
// table's schema record plus the root that locates it.
func TestCommitCostFollowsDDL(t *testing.T) {
	db := mustOpenFile(t, tempDBPath(t))
	defer db.Close()
	for i := 0; i < 40; i++ {
		if _, err := db.CreateTable(fmt.Sprintf("wide%02d", i), wideSchema(256)); err != nil {
			t.Fatal(err)
		}
	}
	hot, err := db.CreateTable("hot", NewSchema(Column{Name: "v", Type: DTInt}))
	if err != nil {
		t.Fatal(err)
	}
	rid, err := hot.Insert(Row{Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	delta := func(step func()) IOStats {
		t.Helper()
		before := db.Pool().Stats()
		step()
		if err := db.FlushWAL(); err != nil {
			t.Fatal(err)
		}
		after := db.Pool().Stats()
		return IOStats{
			WALAppends: after.WALAppends - before.WALAppends, WALSyncs: after.WALSyncs - before.WALSyncs,
			ManifestBytes: after.ManifestBytes - before.ManifestBytes, ManifestSegments: after.ManifestSegments - before.ManifestSegments,
		}
	}

	got := delta(func() {
		if _, err := hot.Update(rid, Row{Int(2)}); err != nil {
			t.Fatal(err)
		}
	})
	if want := (IOStats{WALAppends: 1, WALSyncs: 1}); got != want {
		t.Errorf("one-row update beside 40 wide tables cost %+v, want one heap page and no manifest bytes", got)
	}
	if got := delta(func() {}); got != (IOStats{}) {
		t.Errorf("commit of nothing cost %+v", got)
	}

	wide := db.Table("wide07")
	got = delta(func() {
		if err := wide.AddColumn(Column{Name: "extra", Type: DTInt}); err != nil {
			t.Fatal(err)
		}
	})
	db.mu.Lock()
	root := len(db.manifestLocked())
	db.mu.Unlock()
	record := len(encodeSchema(wide))
	want := IOStats{
		WALAppends: int64((record+PageSize-1)/PageSize + (root+metaPayload-1)/metaPayload), WALSyncs: 1,
		ManifestBytes: int64(record + root), ManifestSegments: 1,
	}
	if got != want {
		t.Errorf("AddColumn on one of 40 wide tables cost %+v, want %+v (its %d-byte schema record and the %d-byte root)", got, want, record, root)
	}
}

package rdbms

import (
	"bytes"
	"encoding/binary"
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

// refNextRecord is the record decoder NextRecord replaced, kept as the
// reference it must match: decode the frame's row whole, then refuse it
// unless re-encoding it fills the frame exactly.
func refNextRecord(buf []byte) (Row, []byte, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || n > uint64(len(buf)-sz) {
		return nil, nil, fmt.Errorf("record frame of %d bytes runs past the %d that remain", n, len(buf))
	}
	frame := buf[sz : sz+int(n)]
	row, err := decodeRow(frame, nil)
	if err != nil {
		return nil, nil, err
	}
	if encodedSize(row) != len(frame) {
		return nil, nil, fmt.Errorf("record frame of %d bytes holds a %d-byte row", len(frame), encodedSize(row))
	}
	return row, buf[sz+int(n):], nil
}

// framed prefixes body with its length, as AppendRecord frames a row.
func framed(body ...byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

// TestNextRecordMatchesDecodeRow: each malformed frame is refused with the
// message the whole-row decoder gave it, and a schema record with an odd
// number of pair datums fails decodeSchema.
func TestNextRecordMatchesDecodeRow(t *testing.T) {
	for _, c := range []struct {
		name string
		buf  []byte
		want string
	}{
		{"non-minimal varint", framed(1, byte(DTInt), 0x8a, 0x00), "record frame of 4 bytes holds a 3-byte row"},
		{"non-minimal count", framed(0x81, 0x00, byte(DTNull)), "record frame of 3 bytes holds a 2-byte row"},
		{"trailing byte", framed(1, byte(DTInt), 0x0a, 0), "record frame of 4 bytes holds a 3-byte row"},
		{"truncated text", framed(1, byte(DTText), 5, 'a', 'b'), "rdbms: corrupt text at column 0"},
		{"truncated row", framed(2, byte(DTNull)), "rdbms: truncated tuple at column 1"},
		{"unknown type", framed(1, 9), "rdbms: unknown datum type 9 at column 0"},
		{"count above 1<<20", framed(binary.AppendUvarint(nil, 1<<20+1)...), "rdbms: implausible column count 1048577"},
		{"frame past the end", []byte{5, 0}, "record frame of 5 bytes runs past the 2 that remain"},
	} {
		_, _, want := refNextRecord(c.buf)
		_, _, got := NextRecord(c.buf)
		if want == nil || got == nil || got.Error() != want.Error() || got.Error() != c.want {
			t.Errorf("%s: NextRecord says %v, the row decoder %v, want %q", c.name, got, want, c.want)
		}
	}
	odd := append(AppendRecord(nil, nil), AppendRecord(nil, Row{Text("a"), Int(int64(DTInt)), Text("b")})...)
	if _, _, err := decodeSchema(odd); err == nil || err.Error() != "datum 3 is missing or not BIGINT" {
		t.Errorf("schema record of three pair datums: %v", err)
	}
}

// FuzzNextRecord: on any bytes, NextRecord accepts exactly the frames the
// whole-row decoder accepts, returns the same rest, and hands out the same
// datums through Int and Text.
func FuzzNextRecord(f *testing.F) {
	f.Add(AppendRecord(nil, Row{Int(recTable), Text("t"), Int(-3), Int(1 << 40)}))
	f.Add(AppendRecord(AppendRecord(nil, Row{Text("c0"), Int(1)}), Row{Null, Float(2.5), Bool(true)}))
	f.Add(framed(1, byte(DTInt), 0x8a, 0x00))
	f.Add(framed(1, byte(DTText), 5, 'a', 'b'))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, buf []byte) {
		want, wantRest, wantErr := refNextRecord(buf)
		rec, rest, err := NextRecord(buf)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("NextRecord error %v, the row decoder's %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(rest, wantRest) {
			t.Fatalf("rest of %d bytes, want %d", len(rest), len(wantRest))
		}
		for i, d := range want {
			switch d.typ {
			case DTInt:
				if v := rec.Int(); v != d.i || rec.Err != nil {
					t.Fatalf("datum %d: Int() = %d, %v, want %d", i, v, rec.Err, d.i)
				}
			case DTText:
				if v := rec.Text(); v != d.s || rec.Err != nil {
					t.Fatalf("datum %d: Text() = %q, %v, want %q", i, v, rec.Err, d.s)
				}
			default:
				if rec.Int(); rec.Err == nil {
					t.Fatalf("datum %d of type %v read as an int", i, d.typ)
				}
				return
			}
		}
		if err := rec.Done(); err != nil {
			t.Fatalf("all %d datums read, Done says %v", len(want), err)
		}
	})
}

package rdbms

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// The system catalog is persisted in two parts, split by how often they
// change, both in the row codec of codec.go (rows of text and ints, each
// framed by its byte length):
//
// The root is written into the meta page chain on every commit and holds
// only what moves with data: per table its name, free hint, tuple count and
// heap extent; the directory of the metadata key-value store (per key the
// value's byte length and page chain); and the pager's free-page list. Page
// lists are contiguous runs — heaps allocate mostly sequentially — so the
// root grows with the number of tables and keys, not with their size.
//
// A table's schema record — column names and types, indexed columns — changes
// only on DDL. It is an out-of-line value of the metadata store under a
// reserved key (schemaKey), staged by the same path as any other value: a
// commit rewrites the records of the tables whose schema changed and no
// other. B+ tree indexes are rebuilt from the heaps on open, so a schema
// record stores just the indexed column names.
//
// Neither part carries a version of its own (the data-file header's covers
// them), so decoding is strict instead: a record tag this format does not
// define, a datum of the wrong type or bytes after the last record fail the
// open rather than being dropped on the floor.

// Root record tags: the first datum of every root record.
const (
	recTable = 1 + iota // name, free hint, tuple count, then page runs
	recMeta             // key, value length, then page runs
	recFree             // page runs of the free list
	recMore             // further page runs of the record before it
)

const (
	// maxRecordPairs bounds one record — page runs as (first, count),
	// columns as (name, type) — to well under the codec's limit on datums
	// per row; longer lists continue in further records.
	maxRecordPairs = 1 << 16

	// schemaKeyPrefix reserves the metadata keys that hold schema records.
	// MetaKeys never lists them.
	schemaKeyPrefix = "\x00schema:"
)

// schemaKey is the metadata key of a table's schema record; name is the
// table's lower-cased catalog key.
func schemaKey(name string) string { return schemaKeyPrefix + name }

// pages expands the rest of the record as page runs (first, count pairs),
// appending to dst. limit is the file's page count: no run may reach past it.
func (r *RecordReader) pages(dst []PageID, limit int) []PageID {
	for r.More() {
		first, count := r.Int(), r.Int()
		if r.Err != nil {
			break
		}
		if first < 0 || count <= 0 || first > int64(limit) || count > int64(limit)-first {
			r.Err = fmt.Errorf("page run of %d from %d is outside the %d-page file", count, first, limit)
			break
		}
		for i := int64(0); i < count; i++ {
			dst = append(dst, PageID(first+i))
		}
	}
	return dst
}

// appendRunRecords appends the record head followed by ids as page runs,
// continuing in recMore records when there are more runs than one holds.
func appendRunRecords(dst []byte, head Row, ids []PageID) []byte {
	runs := 0
	for i := 0; i < len(ids); {
		if runs == maxRecordPairs {
			dst = AppendRecord(dst, head)
			head, runs = Row{Int(recMore)}, 0
		}
		j := i + 1
		for j < len(ids) && ids[j] == ids[j-1]+1 {
			j++
		}
		head = append(head, Int(int64(ids[i])), Int(int64(j-i)))
		runs++
		i = j
	}
	return AppendRecord(dst, head)
}

// manifestLocked serializes the catalog root. Every dirty metadata value —
// schema records included — must already be staged (stageMetaLocked) so the
// directory reflects the chains being committed. Cost follows the number of
// tables, keys and page runs; no schema is encoded here. db.mu must be held.
func (db *DB) manifestLocked() []byte {
	var out []byte
	names := make([]string, 0, len(db.tables))
	for k := range db.tables {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		t := db.tables[k]
		head := Row{Int(recTable), Text(t.Name), Int(int64(t.heap.freeHint)), Int(int64(t.heap.tuples))}
		out = appendRunRecords(out, head, t.heap.pages)
	}
	keys := make([]string, 0, len(db.metaLoc))
	for k := range db.metaLoc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		loc := db.metaLoc[k]
		out = appendRunRecords(out, Row{Int(recMeta), Text(k), Int(int64(loc.n))}, loc.pages)
	}
	// Written even when empty: the root is never zero bytes long, so there is
	// always a chain page to carry a change of it.
	return appendRunRecords(out, Row{Int(recFree)}, db.disk.freePages())
}

// encodeSchema serializes a table's schema record: a head record with the
// indexed column names, then the columns as (name, type) pairs.
func encodeSchema(t *Table) []byte {
	idxCols := make([]string, 0, len(t.indexes))
	for col := range t.indexes {
		idxCols = append(idxCols, col)
	}
	sort.Strings(idxCols)
	head := make(Row, 0, len(idxCols))
	for _, col := range idxCols {
		head = append(head, Text(col))
	}
	out := AppendRecord(nil, head)
	for cols := t.Schema.Cols; len(cols) > 0; {
		n := min(len(cols), maxRecordPairs)
		r := make(Row, 0, 2*n)
		for _, c := range cols[:n] {
			r = append(r, Text(c.Name), Int(int64(c.Type)))
		}
		out = AppendRecord(out, r)
		cols = cols[n:]
	}
	return out
}

// decodeSchema parses a schema record: the columns and the names of the
// indexed ones.
func decodeSchema(blob []byte) (Schema, []string, error) {
	rec, rest, err := NextRecord(blob)
	if err != nil {
		return Schema{}, nil, err
	}
	var indexed []string
	for rec.More() {
		indexed = append(indexed, rec.Text())
	}
	var schema Schema
	for rec.Err == nil && len(rest) > 0 {
		if rec, rest, err = NextRecord(rest); err != nil {
			return Schema{}, nil, err
		}
		schema.Cols = slices.Grow(schema.Cols, rec.n/2)
		for rec.More() {
			schema.Cols = append(schema.Cols, Column{Name: rec.Text(), Type: DType(rec.Int())})
		}
	}
	return schema, indexed, rec.Err
}

// loadManifest rebuilds the catalog from the root read off the meta chain:
// heap extents, the metadata directory and the free list come from the
// root, each table's schema from its schema record, and B+ tree indexes by
// scanning the heaps. Other metadata values stay on disk until MetaValue asks
// for them. A table without a schema record, or a schema record without its
// table, fails the open.
func (db *DB) loadManifest(root []byte) error {
	limit := db.disk.pageCount()
	// pages collects the page list of the current record and of the recMore
	// records after it; keep stores it once the next record starts.
	var pages []PageID
	var keep func([]PageID)
	for n := 0; len(root) > 0; n++ {
		rec, rest, err := NextRecord(root)
		if err != nil {
			return fmt.Errorf("rdbms: catalog root record %d: %w", n, err)
		}
		root = rest
		tag := rec.Int()
		if tag != recMore && keep != nil {
			keep(pages)
			pages = nil
		}
		switch tag {
		case recTable:
			t := &Table{Name: rec.Text(), db: db, heap: newHeapFile(db.disk, db.pool), indexes: make(map[string]*tableIndex)}
			t.heap.freeHint, t.heap.tuples = int(rec.Int()), int(rec.Int())
			db.tables[strings.ToLower(t.Name)] = t
			keep = func(p []PageID) { t.heap.pages = p }
		case recMeta:
			key, size := rec.Text(), int(rec.Int())
			keep = func(p []PageID) { db.metaLoc[key] = metaChainLoc{pages: p, n: size} }
		case recFree:
			keep = db.disk.setFreePages
		default:
			if rec.Err == nil && (tag != recMore || keep == nil) {
				rec.Err = fmt.Errorf("unknown or misplaced record tag %d", tag)
			}
		}
		pages = rec.pages(pages, limit)
		if rec.Err != nil {
			return fmt.Errorf("rdbms: catalog root record %d: %w", n, rec.Err)
		}
	}
	if keep != nil {
		keep(pages)
	}

	for k := range db.metaLoc {
		if strings.HasPrefix(k, schemaKeyPrefix) && db.tables[k[len(schemaKeyPrefix):]] == nil {
			return fmt.Errorf("rdbms: catalog holds schema record %q without its table", k)
		}
	}
	for k, t := range db.tables {
		loc, ok := db.metaLoc[schemaKey(k)]
		if !ok {
			return fmt.Errorf("rdbms: catalog holds table %q without its schema record", t.Name)
		}
		val, err := db.disk.readMetaValue(loc.pages, loc.n)
		if err != nil {
			return fmt.Errorf("rdbms: schema record of table %q: %w", t.Name, err)
		}
		var indexed []string
		if t.Schema, indexed, err = decodeSchema(val); err != nil {
			return fmt.Errorf("rdbms: schema record of table %q: %w", t.Name, err)
		}
		for _, col := range indexed {
			i := t.Schema.ColIndex(col)
			if i < 0 {
				return fmt.Errorf("rdbms: schema record of table %q indexes unknown column %q", t.Name, col)
			}
			idx := &tableIndex{col: i, tree: NewBTree(64)}
			// An unreadable page fails no open, so the scrubber can still
			// repair it; the index keeps the failure for IndexScan.
			idx.err = t.heap.scan(func(rid RID, r Row) bool {
				idx.tree.Insert(indexKey(attrAt(r, i)), rid)
				return true
			})
			t.indexes[strings.ToLower(col)] = idx
		}
	}
	return nil
}

// attrAt returns the i-th attribute, padding NULL for tuples stored before
// an AddColumn widened the schema.
func attrAt(r Row, i int) Datum {
	if i >= len(r) {
		return Null
	}
	return r[i]
}

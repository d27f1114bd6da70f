package rdbms

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// The catalog manifest is the serialized system-table state written into
// the meta page chain on every WAL commit: table schemas, heap extents and
// index definitions, plus the *directory* of the generic metadata key-value
// store that upper layers (the hybrid store, the engine) use to persist
// their own manifests. Metadata values themselves live out-of-line in
// per-key page chains (see writeMetaValue): a commit restages only the
// chains of keys that actually changed, so manifest write cost follows the
// dirty set instead of the total metadata size. Heap tuples live in
// checksummed pages; the manifest only records which pages belong to which
// heap (as contiguous runs — heaps allocate mostly sequentially). B+ tree
// indexes are rebuilt from the heaps on open, so the manifest stores just
// the indexed column names.
type dbManifest struct {
	Tables []tableManifest `json:"tables"`
	// MetaDir lists the out-of-line metadata value chains, sorted by key.
	MetaDir []metaDirEntry `json:"meta_dir,omitempty"`
	// FreePages is the pager's free-page list: pages owned by dropped or
	// truncated heaps, reused by later allocations.
	FreePages []uint32 `json:"free_pages,omitempty"`
}

// metaDirEntry locates one out-of-line metadata value.
type metaDirEntry struct {
	Key   string   `json:"k"`
	Pages []uint32 `json:"p,omitempty"`
	Len   int      `json:"n"`
}

type tableManifest struct {
	Name string           `json:"name"`
	Cols []columnManifest `json:"cols"`
	// PageRuns is the heap's page extent: {first page, count} per contiguous
	// ascending run. Large heaps serialize to a handful of runs instead of
	// one integer per page, keeping the per-commit catalog blob small.
	PageRuns []pageRun `json:"page_runs,omitempty"`
	FreeHint int       `json:"free_hint"`
	Tuples   int       `json:"tuples"`
	Indexes  []string  `json:"indexes,omitempty"`
}

type pageRun struct {
	First uint32 `json:"f"`
	Count uint32 `json:"c"`
}

type columnManifest struct {
	Name string `json:"name"`
	Type uint8  `json:"type"`
}

// packPageRuns run-length encodes a heap's page list.
func packPageRuns(pages []PageID) []pageRun {
	var runs []pageRun
	for _, id := range pages {
		if n := len(runs); n > 0 && uint32(id) == runs[n-1].First+runs[n-1].Count {
			runs[n-1].Count++
			continue
		}
		runs = append(runs, pageRun{First: uint32(id), Count: 1})
	}
	return runs
}

// heapPages expands a table manifest's page extent.
func (tm *tableManifest) heapPages() []PageID {
	var out []PageID
	for _, r := range tm.PageRuns {
		for i := uint32(0); i < r.Count; i++ {
			out = append(out, PageID(r.First+i))
		}
	}
	return out
}

// manifestLocked serializes the catalog and the metadata directory. Every
// dirty metadata value must already be staged (stageMetaLocked) so the
// directory reflects the chains being committed. db.mu must be held.
func (db *DB) manifestLocked() ([]byte, error) {
	m := dbManifest{}
	if fp := db.filePager(); fp != nil {
		m.FreePages = fp.freePageIDs()
		keys := make([]string, 0, len(db.metaLoc))
		for k := range db.metaLoc {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			loc := db.metaLoc[k]
			e := metaDirEntry{Key: k, Len: loc.n}
			for _, id := range loc.pages {
				e.Pages = append(e.Pages, uint32(id))
			}
			m.MetaDir = append(m.MetaDir, e)
		}
	}
	keys := make([]string, 0, len(db.tables))
	for k := range db.tables {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t := db.tables[k]
		tm := tableManifest{Name: t.Name, FreeHint: t.heap.freeHint, Tuples: t.heap.tuples}
		for _, c := range t.Schema.Cols {
			tm.Cols = append(tm.Cols, columnManifest{Name: c.Name, Type: uint8(c.Type)})
		}
		tm.PageRuns = packPageRuns(t.heap.pages)
		idxCols := make([]string, 0, len(t.indexes))
		for col := range t.indexes {
			idxCols = append(idxCols, col)
		}
		sort.Strings(idxCols)
		tm.Indexes = idxCols
		m.Tables = append(m.Tables, tm)
	}
	return json.Marshal(m)
}

// loadManifest rebuilds the catalog from a serialized manifest: schemas and
// heap extents are restored directly, B+ tree indexes by scanning the heaps.
// Metadata values referenced by the directory stay on disk until GetMeta
// asks for them. The manifest carries no version of its own (the data-file
// header's covers it), so decoding is strict instead: a field this format
// does not define — inline metadata values, an explicit page list — fails
// the open rather than being dropped on the floor.
func (db *DB) loadManifest(blob []byte) error {
	var m dbManifest
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return fmt.Errorf("rdbms: catalog manifest is corrupt or not of data file format version %d: %w", fileVersion, err)
	}
	for _, e := range m.MetaDir {
		loc := metaChainLoc{n: e.Len}
		for _, id := range e.Pages {
			loc.pages = append(loc.pages, PageID(id))
		}
		db.metaLoc[e.Key] = loc
	}
	if fp := db.filePager(); fp != nil {
		fp.setFreePageIDs(m.FreePages)
	}
	for _, tm := range m.Tables {
		schema := Schema{}
		for _, c := range tm.Cols {
			schema.Cols = append(schema.Cols, Column{Name: c.Name, Type: DType(c.Type)})
		}
		h := newHeapFile(db.disk, db.pool)
		h.pages = tm.heapPages()
		h.freeHint = tm.FreeHint
		h.tuples = tm.Tuples
		t := &Table{
			Name:    tm.Name,
			Schema:  schema,
			db:      db,
			heap:    h,
			indexes: make(map[string]*tableIndex),
		}
		for _, col := range tm.Indexes {
			i := schema.ColIndex(col)
			if i < 0 {
				return fmt.Errorf("rdbms: manifest index on unknown column %q of %q", col, tm.Name)
			}
			idx := &tableIndex{col: i, tree: NewBTree(64)}
			h.scan(func(rid RID, r Row) bool {
				idx.tree.Insert(indexKey(attrAt(r, i)), rid)
				return true
			})
			t.indexes[strings.ToLower(col)] = idx
		}
		db.tables[strings.ToLower(tm.Name)] = t
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

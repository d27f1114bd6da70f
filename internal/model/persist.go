package model

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"strings"

	"dataspread/internal/posmap"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// Store manifests make a HybridStore round-trip across database restarts.
// Tuples already live in the (durable) rdbms heaps; what the manifest adds
// is the state that exists only in memory: region rectangles and kinds,
// positional-map orderings (the RID sequences), ROM column indirections and
// RCV surrogate maps.
//
// The format is segmented and dirty-tracked so Save cost follows what
// changed, not sheet size:
//
//	sheet:<name>               root: rects, kinds, segment ids (tiny)
//	sheet:<name>:seg:<id>      header: table name, column indirection,
//	                           surrogate counters (O(cols))
//	sheet:<name>:seg:<id>:order  full positional ordering (O(rows)),
//	                           stamped with a generation
//	sheet:<name>:seg:<id>:delta  mutations logged since the order was
//	                           written (O(edits)), bound to its generation
//
// Each positional map is wrapped in posmap.Tracked: a save serializes the
// full ordering only when the map has no persisted base or its op log
// outgrew the delta ratio; otherwise it appends the log to the delta key —
// a 100-row insert on a 1M-cell sheet persists ~100 ops, not the whole
// ordering. Unchanged segments are skipped outright (and the rdbms meta KV
// double-checks with byte equality, so even rewritten-but-identical blobs
// cost nothing at commit).
//
// Every value is length-framed rows of the heap's own row codec
// (rdbms.AppendRecord / rdbms.EachRecord), the catalog root's encoding:
//
//	root    (name, positional scheme — always "hierarchical", the counted
//	        tree every ordering is kept in — seq, next segment, overflow
//	        segment, regions), then per region (from row, from col, to row, to col, kind, segment)
//	header  (kind, table, next column, headers, next row id, next column id,
//	        column indirection)
//	order   (generation, column generation, rows, columns)
//	delta   (generation, column generation, row ops, column ops), then per
//	        op (kind, position, count, pointers)
//
// An ordering — tuple pointers packed page<<16|slot, or RCV surrogates, which
// pack the same way — and a column indirection are one text datum each: the
// entry count, then each entry as the varint of its difference from the one
// before (consecutive slots of one page differ by 1, so a dense table costs a
// byte a row). No value carries a
// version of its own; the data-file header's covers them, and decoding is
// strict instead: a missing or mistyped datum, one too many, an unknown kind,
// a count that does not match or a trailing byte fails the load with an
// error naming store, segment and record.
//
// B+ tree key indexes (RCV) are not serialized: the backing table carries
// the key attribute, so they are rebuilt by a heap scan on load, exactly
// like catalog indexes.

// storeMetaKey is the metadata KV key prefix for store manifests.
const storeMetaKey = "sheet:"

// positionalScheme is the root record's scheme name: every ordering is a
// posmap.Tracked, and a root naming another scheme fails the load.
const positionalScheme = "hierarchical"

// segHeader is a segment's non-positional state (O(cols), rewritten freely
// — the meta KV's byte-equality check skips unchanged headers at commit).
type segHeader struct {
	Kind      string // "rom", "com", "rcv", "tom"
	Table     string
	ColPos    []int
	NextCol   int
	Headers   bool
	NextRowID int64
	NextColID int64
}

func packRID(r rdbms.RID) uint64   { return uint64(r.Page)<<16 | uint64(r.Slot) }
func unpackRID(v uint64) rdbms.RID { return rdbms.RID{Page: rdbms.PageID(v >> 16), Slot: uint16(v)} }

// packDatum packs a sequence of integers — key gives each element's — into one
// text datum (see the encoding above).
func packDatum[T any](vs []T, key func(T) uint64) rdbms.Datum {
	buf := binary.AppendUvarint(make([]byte, 0, len(vs)+binary.MaxVarintLen64), uint64(len(vs)))
	prev := uint64(0)
	for _, v := range vs {
		k := key(v)
		buf = binary.AppendVarint(buf, int64(k-prev))
		prev = k
	}
	return rdbms.Text(string(buf))
}

// unpackDatum unpacks packDatum's text: exactly the entries it counts.
func unpackDatum[T any](s string, val func(uint64) T) ([]T, error) {
	buf := []byte(s)
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || n > uint64(len(buf)-sz) {
		return nil, fmt.Errorf("sequence of %d entries in %d bytes", n, len(buf))
	}
	buf = buf[sz:]
	out := make([]T, n)
	prev := uint64(0)
	for i := range out {
		d, sz := binary.Varint(buf)
		if sz <= 0 {
			return nil, fmt.Errorf("sequence ends at entry %d of %d", i, n)
		}
		buf = buf[sz:]
		prev += uint64(d)
		out[i] = val(prev)
	}
	if len(buf) > 0 {
		return nil, fmt.Errorf("%d bytes after the sequence's %d entries", len(buf), n)
	}
	return out, nil
}

// wantRecords closes a value's decode: the records it must hold, all there.
func wantRecords(n, want int, err error) error {
	if err == nil && n != want {
		err = fmt.Errorf("%d records where %d belong", n, want)
	}
	return err
}

// encode serializes the header as its one record (see the encoding above).
func (hdr *segHeader) encode() []byte {
	headers := int64(0)
	if hdr.Headers {
		headers = 1
	}
	return rdbms.AppendRecord(nil, rdbms.Row{rdbms.Text(hdr.Kind), rdbms.Text(hdr.Table), rdbms.Int(int64(hdr.NextCol)),
		rdbms.Int(headers), rdbms.Int(hdr.NextRowID), rdbms.Int(hdr.NextColID),
		packDatum(hdr.ColPos, func(c int) uint64 { return uint64(c) })})
}

func (h *HybridStore) rootKey() string { return storeMetaKey + h.name }

func (h *HybridStore) segKey(seg int, suffix string) string {
	k := fmt.Sprintf("%s%s:seg:%d", storeMetaKey, h.name, seg)
	if suffix != "" {
		k += ":" + suffix
	}
	return k
}

// SaveManifest writes the store manifest into the database metadata KV,
// rewriting only the segments whose state changed since the last save.
// Call it before rdbms.DB.FlushWAL/Checkpoint/Close so the store state is
// included in the durable image.
func (h *HybridStore) SaveManifest() error { return h.saveManifest(false) }

// SaveManifestFull is SaveManifest with dirty tracking bypassed: every
// segment rewrites its full ordering. It is the reference writer the
// incremental path is tested against.
func (h *HybridStore) SaveManifestFull() error { return h.saveManifest(true) }

func (h *HybridStore) saveManifest(full bool) error {
	// GC segments of regions dropped since the last save.
	for _, seg := range h.deadSegs {
		h.deleteSegment(seg)
	}
	h.deadSegs = nil
	if _, err := h.saveSegment(overflowSeg, h.overflow, full); err != nil {
		return err
	}
	root := rdbms.AppendRecord(nil, rdbms.Row{rdbms.Text(h.name), rdbms.Text(positionalScheme), rdbms.Int(int64(h.seq)),
		rdbms.Int(int64(h.nextSeg)), rdbms.Int(overflowSeg), rdbms.Int(int64(len(h.regions)))})
	for _, reg := range h.regions {
		kind, err := h.saveSegment(reg.seg, reg.tr, full)
		if err != nil {
			return err
		}
		root = rdbms.AppendRecord(root, rdbms.Row{
			rdbms.Int(int64(reg.rect.From.Row)), rdbms.Int(int64(reg.rect.From.Col)),
			rdbms.Int(int64(reg.rect.To.Row)), rdbms.Int(int64(reg.rect.To.Col)),
			rdbms.Text(kind), rdbms.Int(int64(reg.seg))})
	}
	h.db.PutMeta(h.rootKey(), root)
	return nil
}

// saveSegment persists one translator as segment seg — its header, then its
// orderings as far as they changed — and returns its kind.
func (h *HybridStore) saveSegment(seg int, tr Translator, full bool) (string, error) {
	var hdr segHeader
	var rows, cols *posmap.Tracked
	rom := "rom"
	if com, ok := tr.(*COM); ok {
		tr, rom = com.inner, "com" // a COM is its inner ROM, transposed
	}
	switch tr := tr.(type) {
	case *ROM:
		hdr, rows = segHeader{Kind: rom, Table: tr.cfg.TableName, ColPos: tr.colPos, NextCol: tr.nextCol}, tr.rowMap
	case *RCV:
		hdr = segHeader{Kind: "rcv", Table: tr.cfg.TableName, NextRowID: tr.nextRowID, NextColID: tr.nextColID}
		rows, cols = tr.rowIDs.m, tr.colIDs.m
	case *TOM:
		hdr, rows = segHeader{Kind: "tom", Table: tr.db.Name, Headers: tr.headers}, tr.rowMap
	default:
		return "", fmt.Errorf("model: cannot serialize translator %T", tr)
	}
	h.db.PutMeta(h.segKey(seg, ""), hdr.encode())
	h.saveOrder(seg, full, rows, cols)
	return hdr.Kind, nil
}

// saveOrder persists a segment's tracked orderings (cols is nil but for an
// rcv segment): the full dump when either has no usable base (or the caller
// forces it), the op logs when one grew, nothing when the segment is clean.
func (h *HybridStore) saveOrder(seg int, full bool, rows, cols *posmap.Tracked) {
	maps := []*posmap.Tracked{rows}
	if cols != nil {
		maps = append(maps, cols)
	}
	var gen [2]uint64
	needFull, dirty := full, false
	for i, t := range maps {
		gen[i] = t.Gen()
		needFull = needFull || t.NeedsFull()
		dirty = dirty || t.DeltaDirty()
	}
	switch {
	case needFull:
		row := rdbms.Row{rdbms.Int(int64(gen[0] + 1)), rdbms.Int(0), packDatum(nil, packRID), packDatum(nil, packRID)}
		for i, t := range maps {
			row[i], row[2+i] = rdbms.Int(int64(gen[i]+1)), packDatum(t.FetchRange(1, t.Len()), packRID)
			t.MarkBase()
		}
		h.db.PutMeta(h.segKey(seg, "order"), rdbms.AppendRecord(nil, row))
		h.db.DeleteMeta(h.segKey(seg, "delta"))
	case dirty:
		head := rdbms.Row{rdbms.Int(int64(gen[0])), rdbms.Int(int64(gen[1])), rdbms.Int(0), rdbms.Int(0)}
		var ops []byte
		for i, t := range maps {
			head[2+i] = rdbms.Int(int64(len(t.Ops())))
			for _, op := range t.Ops() {
				ops = rdbms.AppendRecord(ops, rdbms.Row{rdbms.Int(int64(op.Kind)), rdbms.Int(int64(op.Pos)),
					rdbms.Int(int64(op.N)), packDatum(op.RIDs, packRID)})
			}
			t.MarkDeltaSaved()
		}
		h.db.PutMeta(h.segKey(seg, "delta"), append(rdbms.AppendRecord(nil, head), ops...))
	}
}

// deleteSegment drops a segment's meta keys (region retired by a structural
// edit or migration).
func (h *HybridStore) deleteSegment(seg int) {
	h.db.DeleteMeta(h.segKey(seg, ""))
	h.db.DeleteMeta(h.segKey(seg, "order"))
	h.db.DeleteMeta(h.segKey(seg, "delta"))
}

// isSegKeyTail reports whether the remainder of a meta key after
// "sheet:<name>:" follows the segment grammar: "seg:<digits>" optionally
// suffixed by ":order" or ":delta". Listing and GC match this exactly, so
// stores whose names happen to share a prefix are never touched.
func isSegKeyTail(tail string) bool {
	rest, ok := strings.CutPrefix(tail, "seg:")
	digits, suf, hasSuf := strings.Cut(rest, ":")
	if !ok || digits == "" || hasSuf && suf != "order" && suf != "delta" {
		return false
	}
	return strings.Trim(digits, "0123456789") == ""
}

// DropManifest removes the store's persisted manifest — the root and every
// segment key of the store (used when a store is replaced during
// migration). Only keys matching the segment grammar are deleted, so a
// store whose name extends this store's prefix survives.
func (h *HybridStore) DropManifest() {
	h.db.DeleteMeta(h.rootKey())
	prefix := storeMetaKey + h.name + ":"
	for _, k := range h.db.MetaKeys(prefix) {
		if isSegKeyTail(k[len(prefix):]) {
			h.db.DeleteMeta(k)
		}
	}
}

// Drop retires the whole store: every region's backing tables (linked TOM
// tables are left intact — their Drop is a no-op), the overflow table, and
// the persisted manifest. Used when migration replaces a store, so the old
// cells do not leak into the durable catalog forever.
func (h *HybridStore) Drop() error {
	for _, r := range h.regions {
		if err := r.tr.Drop(); err != nil {
			return err
		}
	}
	if err := h.overflow.Drop(); err != nil {
		return err
	}
	h.DropManifest()
	return nil
}

// StoreNames lists the names of stores with a persisted manifest. Segment
// keys (which share the prefix) are excluded by the exact segment grammar,
// so stores whose names contain ':' still list.
func StoreNames(db *rdbms.DB) []string {
	keys := db.MetaKeys(storeMetaKey)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		name := k[len(storeMetaKey):]
		if i := strings.LastIndex(name, ":seg:"); i >= 0 && isSegKeyTail(name[i+1:]) {
			continue
		}
		out = append(out, name)
	}
	return out
}

// loadValue reads one manifest value of a store and decodes it; what names it
// ("root", "segment 3 order") in the error of a value that cannot be read or
// decoded. found is false, with no error, when the key does not exist.
func loadValue(db *rdbms.DB, store, key, what string, decode func(blob []byte) error) (found bool, err error) {
	blob, ok, err := db.MetaValue(key)
	if err != nil {
		return false, fmt.Errorf("model: store %q %s unreadable: %w", store, what, err)
	}
	if ok {
		if err = decode(blob); err != nil {
			err = fmt.Errorf("model: store %q %s: %w", store, what, err)
		}
	}
	return ok, err
}

// LoadHybridStore reattaches a persisted store: region translators are
// rebuilt over the (already loaded) catalog tables, positional maps from
// their order segments plus delta replay, and RCV key indexes by heap scan.
func LoadHybridStore(db *rdbms.DB, name string) (*HybridStore, error) {
	h := &HybridStore{db: db}
	type regionRoot struct {
		rect sheet.Range
		kind string
		seg  int
	}
	var regions []regionRoot
	overflow, declared := 0, 0
	found, err := loadValue(db, name, storeMetaKey+name, "root", func(blob []byte) error {
		n, err := rdbms.EachRecord(blob, func(i int, rec *rdbms.RecordReader) error {
			if i == 0 {
				var scheme string
				h.name, scheme, h.seq, h.nextSeg = rec.Text(), rec.Text(), int(rec.Int()), int(rec.Int())
				overflow, declared = int(rec.Int()), int(rec.Int())
				if scheme != positionalScheme {
					return fmt.Errorf("unknown positional scheme %q", scheme)
				}
				return nil
			}
			rr := regionRoot{rect: sheet.NewRange(int(rec.Int()), int(rec.Int()), int(rec.Int()), int(rec.Int())),
				kind: rec.Text(), seg: int(rec.Int())}
			switch rr.kind {
			case "rom", "com", "rcv", "tom":
				regions = append(regions, rr)
				return nil
			}
			return fmt.Errorf("unknown region kind %q", rr.kind)
		})
		return wantRecords(n, 1+declared, err)
	})
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("model: no persisted store %q", name)
	}
	ov, err := h.loadSegment(overflow, "rcv")
	if err != nil {
		return nil, err
	}
	h.overflow = ov.(*RCV)
	for _, rr := range regions {
		tr, err := h.loadSegment(rr.seg, rr.kind)
		if err != nil {
			return nil, err
		}
		h.regions = append(h.regions, storeRegion{rect: rr.rect, tr: tr, seg: rr.seg})
	}
	return h, nil
}

// loadSegment rebuilds one translator from its segment: the header — it must
// be of the kind the root (or, for the overflow segment, the format) says —
// names its table, and its orderings are the order value's base with the
// delta value's ops replayed over it.
func (h *HybridStore) loadSegment(seg int, kind string) (Translator, error) {
	value := func(suffix string, decode func(i int, rec *rdbms.RecordReader) error, want func() int) error {
		what := fmt.Sprintf("segment %d %s", seg, cmp.Or(suffix, "header"))
		found, err := loadValue(h.db, h.name, h.segKey(seg, suffix), what, func(blob []byte) error {
			n, err := rdbms.EachRecord(blob, decode)
			return wantRecords(n, want(), err)
		})
		if err == nil && !found && suffix != "delta" {
			err = fmt.Errorf("model: store %q missing %s", h.name, what)
		}
		return err
	}
	one := func() int { return 1 }
	var hdr segHeader
	if err := value("", func(_ int, rec *rdbms.RecordReader) (err error) {
		hdr.Kind, hdr.Table, hdr.NextCol, hdr.Headers = rec.Text(), rec.Text(), int(rec.Int()), rec.Int() != 0
		hdr.NextRowID, hdr.NextColID = rec.Int(), rec.Int()
		if hdr.Kind != kind {
			return fmt.Errorf("a %q segment where the root holds a %q region", hdr.Kind, kind)
		}
		hdr.ColPos, err = unpackDatum(rec.Text(), func(v uint64) int { return int(v) })
		return err
	}, one); err != nil {
		return nil, err
	}
	table := h.db.Table(hdr.Table)
	if table == nil {
		return nil, fmt.Errorf("model: store %q segment %d references missing table %q", h.name, seg, hdr.Table)
	}
	// The order value: generations and full orderings, rows then columns.
	var gen, colGen int64
	var base, colBase []rdbms.RID
	if err := value("order", func(_ int, rec *rdbms.RecordReader) (err error) {
		gen, colGen = rec.Int(), rec.Int()
		if base, err = unpackDatum(rec.Text(), unpackRID); err == nil {
			colBase, err = unpackDatum(rec.Text(), unpackRID)
		}
		return err
	}, one); err != nil {
		return nil, err
	}
	// The delta value, when there is one: the ops logged since, rows' first.
	var ops, colOps []posmap.Op
	nOps, nColOps := 0, 0
	if err := value("delta", func(i int, rec *rdbms.RecordReader) (err error) {
		if i == 0 {
			dGen, dColGen := rec.Int(), rec.Int()
			nOps, nColOps = int(rec.Int()), int(rec.Int())
			// Order and delta commit atomically (one WAL batch), so a generation
			// mismatch means a manifest bug, not a torn write — refuse to guess.
			if rec.Err == nil && (dGen != gen || dColGen != colGen) {
				err = fmt.Errorf("generation %d/%d does not match the order's %d/%d", dGen, dColGen, gen, colGen)
			}
			return err
		}
		op := posmap.Op{Kind: posmap.OpKind(rec.Int()), Pos: int(rec.Int()), N: int(rec.Int())}
		if op.RIDs, err = unpackDatum(rec.Text(), unpackRID); err != nil {
			return err
		}
		if i <= nOps {
			ops = append(ops, op)
		} else {
			colOps = append(colOps, op)
		}
		return nil
	}, func() int { return 1 + nOps + nColOps }); err != nil {
		return nil, err
	}
	rows, err := rebuildTracked(base, uint64(gen), ops)
	if err != nil {
		return nil, fmt.Errorf("model: store %q segment %d: %w", h.name, seg, err)
	}
	if kind != "rcv" && len(colBase)+len(colOps) > 0 {
		return nil, fmt.Errorf("model: store %q segment %d: a column ordering in a %q segment", h.name, seg, kind)
	}
	cfg := Config{DB: h.db, TableName: hdr.Table}
	switch kind {
	case "rom":
		return &ROM{cfg: cfg, table: table, rowMap: rows, colPos: hdr.ColPos, nextCol: hdr.NextCol}, nil
	case "com":
		return &COM{inner: &ROM{cfg: cfg, table: table, rowMap: rows, colPos: hdr.ColPos, nextCol: hdr.NextCol}}, nil
	case "tom":
		return &TOM{db: table, rowMap: rows, headers: hdr.Headers}, nil
	}
	cols, err := rebuildTracked(colBase, uint64(colGen), colOps)
	if err != nil {
		return nil, fmt.Errorf("model: store %q segment %d: %w", h.name, seg, err)
	}
	r := &RCV{
		cfg:       cfg,
		table:     table,
		rowIDs:    idMap{m: rows},
		colIDs:    idMap{m: cols},
		nextRowID: hdr.NextRowID,
		nextColID: hdr.NextColID,
		index:     rdbms.NewBTree(64),
	}
	// The table is self-describing (key attribute per tuple): rebuild the
	// key index and the cell count by scanning the heap. A heap that cannot
	// be read whole fails the load: a partial index would show the sheet
	// with cells missing and accept writes over them.
	if err := table.Scan(func(rid rdbms.RID, row rdbms.Row) bool {
		r.index.Insert(row[0].Int64(), rid)
		r.cells++
		return true
	}); err != nil {
		return nil, fmt.Errorf("model: store %q segment %d: %w", h.name, seg, err)
	}
	return r, nil
}

// rebuildTracked reconstructs one ordering from its base, generation and
// replay ops.
func rebuildTracked(base []rdbms.RID, gen uint64, ops []posmap.Op) (*posmap.Tracked, error) {
	t := posmap.NewTracked()
	if len(base) > 0 && !t.InsertMany(1, base) {
		return nil, fmt.Errorf("positional map rejected %d base entries", len(base))
	}
	t.BeginDelta(gen)
	for _, op := range ops {
		if err := t.Apply(op); err != nil {
			return nil, err
		}
	}
	t.MarkDeltaSaved()
	return t, nil
}

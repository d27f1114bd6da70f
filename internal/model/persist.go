package model

import (
	"encoding/json"
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
// B+ tree key indexes (RCV) are not serialized: the backing table carries
// the key attribute, so they are rebuilt by a heap scan on load, exactly
// like catalog indexes.

// storeMetaKey is the metadata KV key prefix for store manifests.
const storeMetaKey = "sheet:"

// storeFormatVersion is the one store manifest layout this build reads and
// writes; LoadHybridStore refuses any other.
const storeFormatVersion = 3

// storeRoot is the root manifest: the region map and segment directory.
type storeRoot struct {
	Version  int          `json:"version"`
	Name     string       `json:"name"`
	Scheme   string       `json:"scheme"`
	Seq      int          `json:"seq"`
	NextSeg  int          `json:"next_seg"`
	Overflow int          `json:"overflow_seg"`
	Regions  []regionRoot `json:"regions,omitempty"`
}

type regionRoot struct {
	// Rect is {fromRow, fromCol, toRow, toCol} in absolute coordinates.
	Rect [4]int `json:"rect"`
	Kind string `json:"kind"` // "rom", "com", "rcv", "tom"
	Seg  int    `json:"seg"`
}

// segHeader is a segment's non-positional state (O(cols), rewritten freely
// — the meta KV's byte-equality check skips unchanged headers at commit).
type segHeader struct {
	Kind      string `json:"kind"`
	Table     string `json:"table"`
	ColPos    []int  `json:"col_pos,omitempty"`
	NextCol   int    `json:"next_col,omitempty"`
	Headers   bool   `json:"headers,omitempty"`
	NextRowID int64  `json:"next_row_id,omitempty"`
	NextColID int64  `json:"next_col_id,omitempty"`
}

// segOrder is a segment's full positional ordering, stamped with the
// generation its deltas must match.
type segOrder struct {
	Gen     uint64   `json:"gen"`
	RowRIDs []uint64 `json:"rids,omitempty"` // rom/com/tom: packed page<<16|slot
	ColGen  uint64   `json:"col_gen,omitempty"`
	RowIDs  []int64  `json:"row_ids,omitempty"` // rcv surrogates
	ColIDs  []int64  `json:"col_ids,omitempty"`
}

// segDelta is the op log accumulated since the segment's order write.
type segDelta struct {
	Gen    uint64  `json:"gen"`
	ColGen uint64  `json:"col_gen,omitempty"`
	Ops    []opRec `json:"ops,omitempty"`
	ColOps []opRec `json:"col_ops,omitempty"`
}

// opRec is one serialized posmap mutation.
type opRec struct {
	K uint8    `json:"k"`
	P int      `json:"p"`
	N int      `json:"n,omitempty"`
	V []uint64 `json:"v,omitempty"`
}

func packRID(r rdbms.RID) uint64   { return uint64(r.Page)<<16 | uint64(r.Slot) }
func unpackRID(v uint64) rdbms.RID { return rdbms.RID{Page: rdbms.PageID(v >> 16), Slot: uint16(v)} }

func mapRIDs(m posmap.Map) []uint64 {
	rids := m.FetchRange(1, m.Len())
	out := make([]uint64, len(rids))
	for i, r := range rids {
		out[i] = packRID(r)
	}
	return out
}

func encodeOps(ops []posmap.Op) []opRec {
	out := make([]opRec, len(ops))
	for i, op := range ops {
		rec := opRec{K: uint8(op.Kind), P: op.Pos, N: op.N}
		if len(op.RIDs) > 0 {
			rec.V = make([]uint64, len(op.RIDs))
			for j, r := range op.RIDs {
				rec.V[j] = packRID(r)
			}
		}
		out[i] = rec
	}
	return out
}

func decodeOp(rec opRec) posmap.Op {
	op := posmap.Op{Kind: posmap.OpKind(rec.K), Pos: rec.P, N: rec.N}
	if len(rec.V) > 0 {
		op.RIDs = make([]rdbms.RID, len(rec.V))
		for j, v := range rec.V {
			op.RIDs[j] = unpackRID(v)
		}
	}
	return op
}

func (h *HybridStore) rootKey() string { return storeMetaKey + h.name }

func (h *HybridStore) segKey(seg int, suffix string) string {
	k := fmt.Sprintf("%s%s:seg:%d", storeMetaKey, h.name, seg)
	if suffix != "" {
		k += ":" + suffix
	}
	return k
}

func putJSON(db *rdbms.DB, key string, v any) error {
	blob, err := json.Marshal(v)
	if err != nil {
		return err
	}
	db.PutMeta(key, blob)
	return nil
}

// SaveManifest writes the store manifest into the database metadata KV,
// rewriting only the segments whose state changed since the last save.
// Call it before rdbms.DB.FlushWAL/Checkpoint/Close so the store state is
// included in the durable image.
func (h *HybridStore) SaveManifest() error { return h.saveManifest(false) }

// SaveManifestFull is SaveManifest with dirty tracking bypassed: every
// segment rewrites its full ordering. It is the reference writer the
// incremental path is tested against, and a repair hook.
func (h *HybridStore) SaveManifestFull() error { return h.saveManifest(true) }

func (h *HybridStore) saveManifest(full bool) error {
	// GC segments of regions dropped since the last save.
	for _, seg := range h.deadSegs {
		h.deleteSegment(seg)
	}
	h.deadSegs = nil
	root := storeRoot{
		Version:  storeFormatVersion,
		Name:     h.name,
		Scheme:   h.scheme,
		Seq:      h.seq,
		NextSeg:  h.nextSeg,
		Overflow: overflowSeg,
	}
	if err := h.saveRCVSegment(root.Overflow, h.overflow, full); err != nil {
		return err
	}
	for _, reg := range h.regions {
		rr := regionRoot{Rect: [4]int{
			reg.rect.From.Row, reg.rect.From.Col, reg.rect.To.Row, reg.rect.To.Col,
		}, Seg: reg.seg}
		var err error
		switch tr := reg.tr.(type) {
		case *ROM:
			rr.Kind = "rom"
			err = h.saveROMSegment(reg.seg, "rom", tr, full)
		case *COM:
			rr.Kind = "com"
			err = h.saveROMSegment(reg.seg, "com", tr.inner, full)
		case *RCV:
			rr.Kind = "rcv"
			err = h.saveRCVSegment(reg.seg, tr, full)
		case *TOM:
			rr.Kind = "tom"
			err = h.saveTOMSegment(reg.seg, tr, full)
		default:
			err = fmt.Errorf("model: cannot serialize translator %T", reg.tr)
		}
		if err != nil {
			return err
		}
		root.Regions = append(root.Regions, rr)
	}
	return putJSON(h.db, h.rootKey(), &root)
}

func (h *HybridStore) saveROMSegment(seg int, kind string, r *ROM, full bool) error {
	hdr := segHeader{Kind: kind, Table: r.cfg.TableName, ColPos: r.colPos, NextCol: r.nextCol}
	if err := putJSON(h.db, h.segKey(seg, ""), &hdr); err != nil {
		return err
	}
	return h.saveMapOrder(seg, r.rowMap, full)
}

func (h *HybridStore) saveTOMSegment(seg int, t *TOM, full bool) error {
	hdr := segHeader{Kind: "tom", Table: t.db.Name, Headers: t.headers}
	if err := putJSON(h.db, h.segKey(seg, ""), &hdr); err != nil {
		return err
	}
	return h.saveMapOrder(seg, t.rowMap, full)
}

// saveMapOrder persists one tracked ordering: the full dump when the map
// has no usable base (or the caller forces it), the op log when it grew,
// nothing when the segment is clean.
func (h *HybridStore) saveMapOrder(seg int, t *posmap.Tracked, full bool) error {
	switch {
	case full || t.NeedsFull():
		ord := segOrder{Gen: t.Gen() + 1, RowRIDs: mapRIDs(t)}
		if err := putJSON(h.db, h.segKey(seg, "order"), &ord); err != nil {
			return err
		}
		h.db.DeleteMeta(h.segKey(seg, "delta"))
		t.MarkBase()
	case t.DeltaDirty():
		d := segDelta{Gen: t.Gen(), Ops: encodeOps(t.Ops())}
		if err := putJSON(h.db, h.segKey(seg, "delta"), &d); err != nil {
			return err
		}
		t.MarkDeltaSaved()
	}
	return nil
}

func (h *HybridStore) saveRCVSegment(seg int, r *RCV, full bool) error {
	hdr := segHeader{
		Kind: "rcv", Table: r.cfg.TableName,
		NextRowID: r.nextRowID, NextColID: r.nextColID,
	}
	if err := putJSON(h.db, h.segKey(seg, ""), &hdr); err != nil {
		return err
	}
	rt, ct := r.rowIDs.m, r.colIDs.m
	switch {
	case full || rt.NeedsFull() || ct.NeedsFull():
		ord := segOrder{
			Gen: rt.Gen() + 1, ColGen: ct.Gen() + 1,
			RowIDs: r.rowIDs.Range(1, rt.Len()),
			ColIDs: r.colIDs.Range(1, ct.Len()),
		}
		if err := putJSON(h.db, h.segKey(seg, "order"), &ord); err != nil {
			return err
		}
		h.db.DeleteMeta(h.segKey(seg, "delta"))
		rt.MarkBase()
		ct.MarkBase()
	case rt.DeltaDirty() || ct.DeltaDirty():
		d := segDelta{
			Gen: rt.Gen(), ColGen: ct.Gen(),
			Ops: encodeOps(rt.Ops()), ColOps: encodeOps(ct.Ops()),
		}
		if err := putJSON(h.db, h.segKey(seg, "delta"), &d); err != nil {
			return err
		}
		rt.MarkDeltaSaved()
		ct.MarkDeltaSaved()
	}
	return nil
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
	if !ok {
		return false
	}
	digits := rest
	if i := strings.IndexByte(rest, ':'); i >= 0 {
		digits = rest[:i]
		if suf := rest[i+1:]; suf != "order" && suf != "delta" {
			return false
		}
	}
	if digits == "" {
		return false
	}
	for i := 0; i < len(digits); i++ {
		if digits[i] < '0' || digits[i] > '9' {
			return false
		}
	}
	return true
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

// LoadHybridStore reattaches a persisted store: region translators are
// rebuilt over the (already loaded) catalog tables, positional maps from
// their order segments plus delta replay, and RCV key indexes by heap scan.
func LoadHybridStore(db *rdbms.DB, name string) (*HybridStore, error) {
	blob, ok, err := db.MetaValue(storeMetaKey + name)
	if err != nil {
		return nil, fmt.Errorf("model: store %q manifest unreadable: %w", name, err)
	}
	if !ok {
		return nil, fmt.Errorf("model: no persisted store %q", name)
	}
	var root storeRoot
	if err := json.Unmarshal(blob, &root); err != nil {
		return nil, fmt.Errorf("model: corrupt root manifest for store %q: %w", name, err)
	}
	if root.Version != storeFormatVersion {
		return nil, fmt.Errorf("model: store %q manifest is format version %d, this build reads only version %d",
			name, root.Version, storeFormatVersion)
	}
	h := &HybridStore{db: db, scheme: root.Scheme, name: root.Name, seq: root.Seq, nextSeg: root.NextSeg}
	ov, err := h.loadRCVSegment(root.Overflow)
	if err != nil {
		return nil, err
	}
	h.overflow = ov
	for _, rr := range root.Regions {
		rect := sheet.NewRange(rr.Rect[0], rr.Rect[1], rr.Rect[2], rr.Rect[3])
		var tr Translator
		switch rr.Kind {
		case "rom":
			tr, err = h.loadROMSegment(rr.Seg)
		case "com":
			var inner *ROM
			inner, err = h.loadROMSegment(rr.Seg)
			if err == nil {
				tr = &COM{inner: inner}
			}
		case "rcv":
			tr, err = h.loadRCVSegment(rr.Seg)
		case "tom":
			tr, err = h.loadTOMSegment(rr.Seg)
		default:
			err = fmt.Errorf("model: unknown region kind %q", rr.Kind)
		}
		if err != nil {
			return nil, err
		}
		h.regions = append(h.regions, storeRegion{rect: rect, tr: tr, seg: rr.Seg})
	}
	return h, nil
}

func (h *HybridStore) loadSegHeader(seg int) (*segHeader, error) {
	blob, ok, err := h.db.MetaValue(h.segKey(seg, ""))
	if err != nil {
		return nil, fmt.Errorf("model: store %q segment %d header unreadable: %w", h.name, seg, err)
	}
	if !ok {
		return nil, fmt.Errorf("model: store %q missing segment %d header", h.name, seg)
	}
	var hdr segHeader
	if err := json.Unmarshal(blob, &hdr); err != nil {
		return nil, fmt.Errorf("model: corrupt segment %d header for store %q: %w", seg, h.name, err)
	}
	return &hdr, nil
}

func (h *HybridStore) loadSegOrder(seg int) (*segOrder, *segDelta, error) {
	blob, ok, err := h.db.MetaValue(h.segKey(seg, "order"))
	if err != nil {
		return nil, nil, fmt.Errorf("model: store %q segment %d order unreadable: %w", h.name, seg, err)
	}
	if !ok {
		return nil, nil, fmt.Errorf("model: store %q missing segment %d order", h.name, seg)
	}
	var ord segOrder
	if err := json.Unmarshal(blob, &ord); err != nil {
		return nil, nil, fmt.Errorf("model: corrupt segment %d order for store %q: %w", seg, h.name, err)
	}
	dblob, ok, err := h.db.MetaValue(h.segKey(seg, "delta"))
	if err != nil {
		return nil, nil, fmt.Errorf("model: store %q segment %d delta unreadable: %w", h.name, seg, err)
	}
	if !ok {
		return &ord, nil, nil
	}
	var d segDelta
	if err := json.Unmarshal(dblob, &d); err != nil {
		return nil, nil, fmt.Errorf("model: corrupt segment %d delta for store %q: %w", seg, h.name, err)
	}
	// Order and delta commit atomically (one WAL batch), so a generation
	// mismatch means a manifest bug, not a torn write — refuse to guess.
	if d.Gen != ord.Gen || d.ColGen != ord.ColGen {
		return nil, nil, fmt.Errorf("model: store %q segment %d delta generation %d/%d does not match order %d/%d",
			h.name, seg, d.Gen, d.ColGen, ord.Gen, ord.ColGen)
	}
	return &ord, &d, nil
}

// rebuildTracked reconstructs one ordering from its base RIDs, generation
// and replay ops.
func rebuildTracked(scheme string, base []rdbms.RID, gen uint64, ops []opRec) (*posmap.Tracked, error) {
	t := posmap.NewTracked(scheme)
	if len(base) > 0 && !t.InsertMany(1, base) {
		return nil, fmt.Errorf("model: positional map rejected %d base entries", len(base))
	}
	t.BeginDelta(gen)
	for _, rec := range ops {
		if err := t.Apply(decodeOp(rec)); err != nil {
			return nil, err
		}
	}
	t.MarkDeltaSaved()
	return t, nil
}

func (h *HybridStore) loadMapOrder(seg int) (*posmap.Tracked, error) {
	ord, d, err := h.loadSegOrder(seg)
	if err != nil {
		return nil, err
	}
	base := make([]rdbms.RID, len(ord.RowRIDs))
	for i, v := range ord.RowRIDs {
		base[i] = unpackRID(v)
	}
	var ops []opRec
	if d != nil {
		ops = d.Ops
	}
	return rebuildTracked(h.scheme, base, ord.Gen, ops)
}

func (h *HybridStore) loadROMSegment(seg int) (*ROM, error) {
	hdr, err := h.loadSegHeader(seg)
	if err != nil {
		return nil, err
	}
	table := h.db.Table(hdr.Table)
	if table == nil {
		return nil, fmt.Errorf("model: manifest references missing table %q", hdr.Table)
	}
	rowMap, err := h.loadMapOrder(seg)
	if err != nil {
		return nil, err
	}
	return &ROM{
		cfg:     Config{DB: h.db, Scheme: h.scheme, TableName: hdr.Table},
		table:   table,
		rowMap:  rowMap,
		colPos:  append([]int(nil), hdr.ColPos...),
		nextCol: hdr.NextCol,
	}, nil
}

func (h *HybridStore) loadTOMSegment(seg int) (*TOM, error) {
	hdr, err := h.loadSegHeader(seg)
	if err != nil {
		return nil, err
	}
	table := h.db.Table(hdr.Table)
	if table == nil {
		return nil, fmt.Errorf("model: manifest references missing linked table %q", hdr.Table)
	}
	rowMap, err := h.loadMapOrder(seg)
	if err != nil {
		return nil, err
	}
	return &TOM{db: table, rowMap: rowMap, headers: hdr.Headers}, nil
}

func (h *HybridStore) loadRCVSegment(seg int) (*RCV, error) {
	hdr, err := h.loadSegHeader(seg)
	if err != nil {
		return nil, err
	}
	table := h.db.Table(hdr.Table)
	if table == nil {
		return nil, fmt.Errorf("model: manifest references missing table %q", hdr.Table)
	}
	ord, d, err := h.loadSegOrder(seg)
	if err != nil {
		return nil, err
	}
	toRIDs := func(ids []int64) []rdbms.RID {
		out := make([]rdbms.RID, len(ids))
		for i, id := range ids {
			out[i] = idToRID(id)
		}
		return out
	}
	var rowOps, colOps []opRec
	if d != nil {
		rowOps, colOps = d.Ops, d.ColOps
	}
	rowT, err := rebuildTracked(h.scheme, toRIDs(ord.RowIDs), ord.Gen, rowOps)
	if err != nil {
		return nil, err
	}
	colT, err := rebuildTracked(h.scheme, toRIDs(ord.ColIDs), ord.ColGen, colOps)
	if err != nil {
		return nil, err
	}
	r := &RCV{
		cfg:       Config{DB: h.db, Scheme: h.scheme, TableName: hdr.Table},
		table:     table,
		rowIDs:    idMap{m: rowT},
		colIDs:    idMap{m: colT},
		nextRowID: hdr.NextRowID,
		nextColID: hdr.NextColID,
		index:     rdbms.NewBTree(64),
	}
	// The table is self-describing (key attribute per tuple): rebuild the
	// key index and the cell count by scanning the heap.
	table.Scan(func(rid rdbms.RID, row rdbms.Row) bool {
		r.index.Insert(row[0].Int64(), rid)
		r.cells++
		return true
	})
	return r, nil
}

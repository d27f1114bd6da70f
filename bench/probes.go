package main

import (
	"fmt"
	"path/filepath"
	"strconv"
	"time"

	"dataspread"
	"dataspread/internal/core"
	"dataspread/internal/depgraph"
	"dataspread/internal/formula"
	"dataspread/internal/hybrid"
	"dataspread/internal/model"
	"dataspread/internal/posmap"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
	"dataspread/internal/workload"
)

// The per-layer metrics of the traced run. Layers are measured from
// outside, by timing calls into their public functions: the client round
// trips during the rounds, then — server closed — the same logical ops
// replayed one depth down on an in-process engine over the same file, and
// structure probes on the workload's own sheet. No layer has a bound; they
// exist so that a change in an end-to-end number can name its layer.
var perLayer = []metricDef{
	{Name: "client.set_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.struct_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.get_range_self_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.set_cells_self_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.requests", Unit: "count", Better: "lower"},
	{Name: "core.snapshot_range_ms", Unit: "ms", Better: "lower"},
	{Name: "core.get_cells_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "core.set_ms", Unit: "ms", Better: "lower"},
	{Name: "core.set_cells_ms", Unit: "ms", Better: "lower"},
	{Name: "core.insert_row_ms", Unit: "ms", Better: "lower"},
	{Name: "core.tick_return_ms", Unit: "ms", Better: "lower"},
	{Name: "core.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "core.load_engine_ms", Unit: "ms", Better: "lower"},
	{Name: "core.open_sheet_cells_per_s", Unit: "cells/s", Better: "higher"},
	{Name: "core.save_ms", Unit: "ms", Better: "lower"},
	{Name: "core.struct_relocated", Unit: "count", Better: "lower"},
	{Name: "core.struct_rewritten", Unit: "count", Better: "lower"},
	{Name: "core.struct_recomputed", Unit: "count", Better: "lower"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.evictions_per_view", Unit: "count", Better: "lower"},
	{Name: "cache.warm_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "model.get_cells_ms", Unit: "ms", Better: "lower"},
	{Name: "model.update_cells_ms", Unit: "ms", Better: "lower"},
	{Name: "model.insert_row_ms", Unit: "ms", Better: "lower"},
	{Name: "model.insert_col_ms", Unit: "ms", Better: "lower"},
	{Name: "model.materialize_cells_per_s", Unit: "cells/s", Better: "higher"},
	{Name: "model.save_manifest_ms", Unit: "ms", Better: "lower"},
	{Name: "model.load_store_ms", Unit: "ms", Better: "lower"},
	{Name: "model.storage_bytes", Unit: "B", Better: "lower"},
	{Name: "posmap.fetch_range_ns", Unit: "ns", Better: "lower"},
	{Name: "posmap.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "posmap.delete_ns", Unit: "ns", Better: "lower"},
	{Name: "rdbms.pool_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "rdbms.pages_read_per_view", Unit: "count", Better: "lower"},
	{Name: "rdbms.disk_reads_per_view", Unit: "count", Better: "lower"},
	{Name: "rdbms.get_many_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "rdbms.scan_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "rdbms.insert_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "rdbms.commit_ms", Unit: "ms", Better: "lower"},
	{Name: "rdbms.wal_syncs_per_commit", Unit: "count", Better: "lower"},
	{Name: "rdbms.wal_appends_per_commit", Unit: "count", Better: "lower"},
	{Name: "rdbms.wal_bytes_per_cell", Unit: "B/cell", Better: "lower"},
	{Name: "rdbms.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "rdbms.checkpoint_pages", Unit: "count", Better: "lower"},
	{Name: "rdbms.manifest_bytes_per_save", Unit: "B", Better: "lower"},
	{Name: "rdbms.open_ms", Unit: "ms", Better: "lower"},
	{Name: "depgraph.build_ms", Unit: "ms", Better: "lower"},
	{Name: "depgraph.cone_ms", Unit: "ms", Better: "lower"},
	{Name: "depgraph.shift_ms", Unit: "ms", Better: "lower"},
	{Name: "formula.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "formula.eval_ns", Unit: "ns", Better: "lower"},
	{Name: "hybrid.decompose_ms", Unit: "ms", Better: "lower"},
	{Name: "hybrid.regions", Unit: "count", Better: "lower"},
	{Name: "hybrid.cost_vs_rom", Unit: "ratio", Better: "lower"},
}

// ioCount accumulates the storage counters of one kind of phase over the
// measured rounds, read from the server's own database handle.
type ioCount struct {
	ops int
	io  rdbms.IOStats
}

func (c *ioCount) add(ops int, before, after rdbms.IOStats) {
	c.ops += ops
	c.io.PoolHits += after.PoolHits - before.PoolHits
	c.io.PoolMisses += after.PoolMisses - before.PoolMisses
	c.io.PagesRead += after.PagesRead - before.PagesRead
	c.io.DiskReads += after.DiskReads - before.DiskReads
	c.io.WALSyncs += after.WALSyncs - before.WALSyncs
	c.io.WALAppends += after.WALAppends - before.WALAppends
	c.io.ManifestBytes += after.ManifestBytes - before.ManifestBytes
}

// timed runs fn, records it as a span and returns its duration in ms.
func (r *runner) timed(name string, op, parent int, fn func() error) (float64, int, error) {
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	return ms(t1.Sub(t0)), r.tr.add(name, op, parent, t0, t1), err
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// probes fills in the per-layer metrics after the open burst, with the
// server closed.
func (r *runner) probes() error {
	L := r.res.Layer
	tr := r.tr

	// Counted during the rounds.
	L["rdbms.pool_hit_ratio"] = ratio(r.viewIO.io.PoolHits, r.viewIO.io.PoolHits+r.viewIO.io.PoolMisses)
	L["rdbms.pages_read_per_view"] = ratio(r.viewIO.io.PagesRead, int64(r.viewIO.ops))
	L["rdbms.disk_reads_per_view"] = ratio(r.viewIO.io.DiskReads, int64(r.viewIO.ops))
	L["rdbms.wal_syncs_per_commit"] = ratio(r.editIO.io.WALSyncs, int64(r.editIO.ops))
	L["rdbms.wal_appends_per_commit"] = ratio(r.editIO.io.WALAppends, int64(r.editIO.ops))
	L["rdbms.manifest_bytes_per_save"] = ratio(r.editIO.io.ManifestBytes, int64(r.editIO.ops))
	L["rdbms.open_ms"] = tr.medianMs("rdbms.open")
	var importNs int64
	for _, s := range tr.spans {
		if s.Name == "core.open_sheet" {
			importNs += s.End - s.Start
		}
	}
	L["core.open_sheet_cells_per_s"] = float64(r.res.Cells) / (float64(importNs) / 1e9)

	if err := r.engineProbes(); err != nil {
		return err
	}
	L["serve.get_range_self_ms"] = r.res.AsTimed["view_p50_ms"] - L["core.snapshot_range_ms"]
	L["serve.set_cells_self_ms"] = tr.medianMs("client.set_cells") - L["core.set_cells_ms"]
	return r.structureProbes()
}

// engineProbes replays the last round's ops on in-process engines over the
// run's file, one depth at a time.
func (r *runner) engineProbes() error {
	L := r.res.Layer
	tr := r.tr
	m := r.w.main()
	// Closed with everything else by shutdown.
	if err := r.openDB(); err != nil {
		return err
	}
	db := r.db

	var loadStore, loadEngine []float64
	var err error
	var eng *core.Engine
	for i := 0; i < 3; i++ {
		d, _, err := r.timed("model.load_store", tr.nextOp(), 0, func() error {
			_, err := model.LoadHybridStore(db, r.name)
			return err
		})
		if err != nil {
			return err
		}
		loadStore = append(loadStore, d)
		if eng != nil {
			if err := eng.Close(); err != nil {
				return err
			}
		}
		d, _, err = r.timed("core.load_engine", tr.nextOp(), 0, func() error {
			eng, err = core.Load(db, r.name, r.opts)
			return err
		})
		if err != nil {
			return err
		}
		loadEngine = append(loadEngine, d)
		if err := eng.Drain(); err != nil {
			return err
		}
	}
	L["model.load_store_ms"] = median(loadStore)
	L["core.load_engine_ms"] = median(loadEngine)
	L["model.storage_bytes"] = float64(eng.Store().StorageBytes())

	// Reads: the last round's viewport walk, first through the engine's
	// cache (a warming pass, then the measured one), then past it.
	var snap, get []float64
	coreSpan := make([]int, len(r.lastViews))
	for pass := 0; pass < 2; pass++ {
		before := eng.CacheStats()
		for i, v := range r.lastViews {
			d, id, err := r.timed("core.snapshot_range", v.op, v.span, func() error {
				_, _, err := eng.SnapshotRange(v.g)
				return err
			})
			if err != nil {
				return err
			}
			if pass == 1 {
				snap, coreSpan[i] = append(snap, d), id
			}
		}
		after := eng.CacheStats()
		L["cache.hit_ratio"] = ratio(after.Hits-before.Hits, after.Hits-before.Hits+after.Misses-before.Misses)
		L["cache.evictions_per_view"] = ratio(after.Evictions-before.Evictions, int64(len(r.lastViews)))
	}
	for i, v := range r.lastViews {
		d, _, err := r.timed("model.get_cells", v.op, coreSpan[i], func() error {
			_, err := eng.Store().GetCells(v.g)
			return err
		})
		if err != nil {
			return err
		}
		get = append(get, d)
	}
	L["core.snapshot_range_ms"] = median(snap)
	L["model.get_cells_ms"] = median(get)
	warm := r.lastViews[len(r.lastViews)-1].g
	eng.GetCells(warm)
	const peeks = 200
	t0 := time.Now()
	for i := 0; i < peeks; i++ {
		if _, ok := eng.PeekCells(warm); !ok {
			return fmt.Errorf("viewport %v not resident after a read", warm)
		}
	}
	L["cache.warm_ns_per_cell"] = float64(time.Since(t0).Nanoseconds()) / float64(peeks*warm.Area())

	// Writes, each followed by an untimed drain so the next starts at rest.
	var set, save, setCells, walPerCell, update, manifest []float64
	for i := 0; i < 30; i++ {
		ref := r.editTarget()
		edit := []core.CellEdit{{Row: ref.Row, Col: ref.Col, Input: r.o.input(ref.Row, ref.Col, r.o.nextVersion())}}
		d, _, err := r.timed("core.set", tr.nextOp(), 0, func() error { return eng.SetCells(edit) })
		if err != nil {
			return err
		}
		set = append(set, d)
		if err := eng.Drain(); err != nil {
			return err
		}
		if err := eng.Set(ref.Row, ref.Col, r.o.input(ref.Row, ref.Col, r.o.nextVersion())); err != nil {
			return err
		}
		d, _, err = r.timed("core.save", tr.nextOp(), 0, eng.Save)
		if err != nil {
			return err
		}
		save = append(save, d)
		if err := eng.Drain(); err != nil {
			return err
		}
	}
	for i, p := range r.lastPastes {
		w0 := db.Pool().Stats().WALBytes
		d, id, err := r.timed("core.set_cells", p.op, p.span, func() error { return eng.SetCells(p.edits) })
		if err != nil {
			return err
		}
		setCells = append(setCells, d)
		if err := eng.Drain(); err != nil {
			return err
		}
		walPerCell = append(walPerCell, float64(db.Pool().Stats().WALBytes-w0)/float64(len(p.edits)))
		if i >= areaCount {
			continue
		}
		// The same batch once more, straight into the store.
		writes := make([]model.CellWrite, len(p.edits))
		for j, ed := range p.edits {
			writes[j] = model.CellWrite{Row: ed.Row, Col: ed.Col, Cell: sheet.Cell{Value: sheet.ParseLiteral(ed.Input)}}
		}
		if d, id, err = r.timed("model.update_cells", p.op, id, func() error { return eng.Store().UpdateCells(writes) }); err != nil {
			return err
		}
		update = append(update, d)
		if d, _, err = r.timed("model.save_manifest", p.op, id, eng.Store().SaveManifest); err != nil {
			return err
		}
		manifest = append(manifest, d)
		if err := db.FlushWAL(); err != nil {
			return err
		}
	}
	L["core.set_ms"], L["core.save_ms"] = median(set), median(save)
	L["core.set_cells_ms"], L["rdbms.wal_bytes_per_cell"] = median(setCells), median(walPerCell)
	L["model.update_cells_ms"], L["model.save_manifest_ms"] = median(update), median(manifest)

	// Structural edits: through the engine, then the store alone.
	var insert, relocated, rewritten, recomputed, storeRow, storeCol []float64
	for i, after := range r.lastStructs {
		op := tr.nextOp()
		d, id, err := r.timed("core.insert_row", op, 0, func() error { return eng.InsertRowsAfter(after, 1) })
		if err != nil {
			return err
		}
		insert = append(insert, d)
		st := eng.LastEditStats()
		relocated = append(relocated, float64(st.Relocated))
		rewritten = append(rewritten, float64(st.Rewritten))
		recomputed = append(recomputed, float64(st.Recomputed))
		if _, _, err := r.timed("core.delete_row", op, 0, func() error { return eng.DeleteRows(after+1, 1) }); err != nil {
			return err
		}
		if i >= 10 {
			continue
		}
		if d, _, err = r.timed("model.insert_row", op, id, func() error { return eng.Store().InsertRowsAfter(after, 1) }); err != nil {
			return err
		}
		storeRow = append(storeRow, d)
		if err := eng.Store().DeleteRows(after+1, 1); err != nil {
			return err
		}
	}
	for i := 0; i < 3; i++ {
		col := min(8, m.maxCol())
		d, _, err := r.timed("model.insert_col", tr.nextOp(), 0, func() error { return eng.Store().InsertColumnsAfter(col, 1) })
		if err != nil {
			return err
		}
		storeCol = append(storeCol, d)
		if err := eng.Store().DeleteColumns(col+1, 1); err != nil {
			return err
		}
	}
	L["core.insert_row_ms"] = median(insert)
	L["core.struct_relocated"], L["core.struct_rewritten"], L["core.struct_recomputed"] = median(relocated), median(rewritten), median(recomputed)
	L["model.insert_row_ms"], L["model.insert_col_ms"] = median(storeRow), median(storeCol)

	var tickReturn, drain []float64
	for i := 0; i < 5; i++ {
		r.o.ticks++
		tick := []core.CellEdit{{Row: 1, Col: 1, Input: workload.Tick(r.o.ticks).Input}}
		op := tr.nextOp()
		d, id, err := r.timed("core.tick_return", op, 0, func() error { return eng.SetCells(tick) })
		if err != nil {
			return err
		}
		tickReturn = append(tickReturn, d)
		if d, _, err = r.timed("core.drain", op, id, eng.Drain); err != nil {
			return err
		}
		drain = append(drain, d)
	}
	L["core.tick_return_ms"], L["core.drain_ms"] = median(tickReturn), median(drain)
	if err := eng.Close(); err != nil {
		return err
	}

	before := db.Pool().Stats().CheckpointPages
	d, _, err := r.timed("rdbms.checkpoint", tr.nextOp(), 0, db.Checkpoint)
	if err != nil {
		return err
	}
	L["rdbms.checkpoint_ms"] = d
	L["rdbms.checkpoint_pages"] = float64(db.Pool().Stats().CheckpointPages - before)

	// Cache-cold reads: a synchronous engine does not revalidate on load,
	// so nothing is resident; each viewport sits on tiles of its own.
	cold, err := core.Load(db, r.name, core.Options{CacheBlocks: r.opts.CacheBlocks})
	if err != nil {
		return err
	}
	var coldMs []float64
	const coldViews = 30
	for i := 0; i < coldViews; i++ {
		row := 1 + i*max(2*viewRows, (m.maxRow()-viewRows)/coldViews)
		if row+viewRows-1 > m.maxRow() {
			break
		}
		g := sheet.NewRange(row, 1, row+viewRows-1, viewCols)
		d, _, err := r.timed("core.get_cells_cold", tr.nextOp(), 0, func() error {
			cold.GetCells(g)
			return cold.ReadErr()
		})
		if err != nil {
			return err
		}
		coldMs = append(coldMs, d)
	}
	L["core.get_cells_cold_ms"] = median(coldMs)
	return r.tableProbes(db)
}

// tableProbes times the row store alone: reads on the main sheet's largest
// table, writes and commits on a scratch table.
func (r *runner) tableProbes(db *rdbms.DB) error {
	L := r.res.Layer
	var table *rdbms.Table
	for _, name := range db.TableNames() {
		if t := db.Table(name); table == nil || t.RowCount() > table.RowCount() {
			table = t
		}
	}
	var rids []rdbms.RID
	rows := 0
	t0 := time.Now()
	table.Scan(func(rid rdbms.RID, _ rdbms.Row) bool {
		if len(rids) < 4096 {
			rids = append(rids, rid)
		}
		rows++
		return true
	})
	L["rdbms.scan_rows_per_s"] = float64(rows) / time.Since(t0).Seconds()
	proj := make([]int, min(viewCols, table.Schema.Arity()))
	for i := range proj {
		proj[i] = i
	}
	fetched := 0
	t0 = time.Now()
	for lo := 0; lo+viewRows <= len(rids); lo += viewRows {
		if err := table.GetMany(rids[lo:lo+viewRows], proj, func(int, rdbms.Row) error { fetched++; return nil }); err != nil {
			return err
		}
	}
	L["rdbms.get_many_ns_per_row"] = float64(time.Since(t0).Nanoseconds()) / float64(max(1, fetched))

	cols := make([]rdbms.Column, 16)
	row := make(rdbms.Row, len(cols))
	for i := range cols {
		cols[i] = rdbms.Column{Name: "c" + strconv.Itoa(i), Type: rdbms.DTText}
		row[i] = rdbms.Text("N1.0000123456e+10")
	}
	scratch, err := db.CreateTable("bench_probe", rdbms.NewSchema(cols...))
	if err != nil {
		return err
	}
	const inserts = 20000
	var rid rdbms.RID
	t0 = time.Now()
	for i := 0; i < inserts; i++ {
		if rid, err = scratch.Insert(row); err != nil {
			return err
		}
	}
	if err := db.FlushWAL(); err != nil {
		return err
	}
	L["rdbms.insert_rows_per_s"] = inserts / time.Since(t0).Seconds()
	var commit []float64
	for i := 0; i < 30; i++ {
		d, _, err := r.timed("rdbms.commit", r.tr.nextOp(), 0, func() error {
			if rid, err = scratch.Update(rid, row); err != nil {
				return err
			}
			return db.FlushWAL()
		})
		if err != nil {
			return err
		}
		commit = append(commit, d)
	}
	L["rdbms.commit_ms"] = median(commit)
	if err := db.DropTable("bench_probe"); err != nil {
		return err
	}
	return db.FlushWAL()
}

// sheetResolver evaluates formulas against a generated sheet: the map
// resolver of the formula probe.
type sheetResolver struct{ sh *sheet.Sheet }

func (s sheetResolver) CellValue(r sheet.Ref) sheet.Value { return s.sh.Get(r).Value }

func (s sheetResolver) VisitRange(g sheet.Range, fn func(sheet.Ref, sheet.Value) bool) {
	for row := g.From.Row; row <= g.To.Row; row++ {
		for col := g.From.Col; col <= g.To.Col; col++ {
			ref := sheet.Ref{Row: row, Col: col}
			if s.sh.Filled(ref) && !fn(ref, s.sh.Get(ref).Value) {
				return
			}
		}
	}
}

// structureProbes times the layers that have no file under them, on
// structures rebuilt from the workload's own main sheet.
func (r *runner) structureProbes() error {
	L := r.res.Layer
	m := r.w.main()
	sh, cells := m.build(r.seed, r.w.Main)
	opts := hybrid.Options{Params: hybrid.PostgresCost, Models: hybrid.AllModels}

	var agg *hybrid.Decomposition
	d, _, err := r.timed("hybrid.decompose", r.tr.nextOp(), 0, func() (err error) {
		agg, err = hybrid.Decompose(sh, "agg", opts)
		return err
	})
	if err != nil {
		return err
	}
	box, _ := sh.Bounds()
	L["hybrid.decompose_ms"] = d
	L["hybrid.regions"] = float64(len(agg.Regions))
	L["hybrid.cost_vs_rom"] = hybrid.CostOf(sh, agg.Regions, opts.Params) / opts.Params.ROMCost(box.Rows(), box.Cols())

	layout, err := hybrid.Decompose(sh, m.Algo, opts)
	if err != nil {
		return err
	}
	db, err := dataspread.OpenFileDB(filepath.Join(r.dir, "materialize.dsdb"), dataspread.WithBufferPoolPages(importPoolPages))
	if err != nil {
		return err
	}
	d, _, err = r.timed("model.materialize", r.tr.nextOp(), 0, func() error {
		_, err := model.Materialize(db, "probe", "", sh, layout)
		return err
	})
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	L["model.materialize_cells_per_s"] = float64(cells) / (d / 1e3)

	type cellFormula struct {
		ref sheet.Ref
		src string
	}
	var formulas []cellFormula
	sh.EachSorted(func(ref sheet.Ref, c sheet.Cell) {
		if c.HasFormula() {
			formulas = append(formulas, cellFormula{ref, c.Formula})
		}
	})
	exprs := make([]formula.Expr, len(formulas))
	t0 := time.Now()
	for i, f := range formulas {
		if exprs[i], err = formula.Parse(f.src); err != nil {
			return err
		}
	}
	L["formula.parse_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(len(formulas))
	res := sheetResolver{sh}
	t0 = time.Now()
	for _, e := range exprs {
		formula.Eval(e, res)
	}
	L["formula.eval_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(len(formulas))

	g := depgraph.New()
	reads := make([][]sheet.Range, len(exprs))
	for i, e := range exprs {
		reads[i] = formula.Refs(e)
	}
	t0 = time.Now()
	for i, f := range formulas {
		g.Set(f.ref, reads[i])
	}
	L["depgraph.build_ms"] = ms(time.Since(t0))
	var cone, shift []float64
	at, _ := m.structRows()
	for i := 0; i < 5; i++ {
		t0 = time.Now()
		g.AffectedFrom([]sheet.Ref{{Row: 1, Col: 1}})
		cone = append(cone, ms(time.Since(t0)))
		t0 = time.Now()
		g.Shift(depgraph.Rows, at, 1)
		shift = append(shift, ms(time.Since(t0)))
		g.Shift(depgraph.Rows, at, -1)
	}
	L["depgraph.cone_ms"], L["depgraph.shift_ms"] = median(cone), median(shift)

	// The hierarchical scheme at the workload's row count.
	h := posmap.NewHierarchical(posmap.DefaultOrder)
	n := m.maxRow()
	for i := 0; i < n; i++ {
		h.Append(rdbms.RID{Page: rdbms.PageID(i / 64), Slot: uint16(i % 64)})
	}
	const reps = 2000
	buf := make([]rdbms.RID, 0, viewRows)
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		buf = h.FetchRangeInto(buf[:0], 1+r.bgRng.Intn(n-viewRows), viewRows)
	}
	L["posmap.fetch_range_ns"] = float64(time.Since(t0).Nanoseconds()) / reps
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		h.Insert(1+r.bgRng.Intn(n), rdbms.RID{Page: 1 << 20, Slot: uint16(i)})
	}
	L["posmap.insert_ns"] = float64(time.Since(t0).Nanoseconds()) / reps
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		h.Delete(1 + r.bgRng.Intn(n))
	}
	L["posmap.delete_ns"] = float64(time.Since(t0).Nanoseconds()) / reps
	return nil
}

package model

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dataspread/internal/hybrid"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// fillROM builds a ROM region of rows×cols with deterministic numbers.
func fillROM(t testing.TB, db *rdbms.DB, rows, cols int) *ROM {
	t.Helper()
	rom, err := NewROM(Config{DB: db, TableName: "rp"}, cols)
	if err != nil {
		t.Fatal(err)
	}
	cells := newCellGrid(rows, cols)
	for i := range cells {
		for c := range cells[i] {
			cells[i][c] = sheet.Cell{Value: sheet.Number(float64((i+1)*1000 + c + 1))}
		}
	}
	if err := rom.UpdateCells(blockWrites(1, 1, cells)); err != nil {
		t.Fatal(err)
	}
	return rom
}

// TestROMProjectionPushdown is the decode-counter acceptance check: a
// k-column viewport over an n-column region materializes exactly k
// attributes per row, while reading the same rows whole pays the full
// n-attribute decode.
func TestROMProjectionPushdown(t *testing.T) {
	const rows, cols = 300, 64
	const vpRows, vpCols = 200, 4
	rom := fillROM(t, rdbms.Open(rdbms.Options{}), rows, cols)
	g := sheet.NewRange(50, 10, 50+vpRows-1, 10+vpCols-1)

	rdbms.ResetDecodedAttrCount()
	cells, err := GetCells(rom, g)
	if err != nil {
		t.Fatal(err)
	}
	batched := rdbms.DecodedAttrCount()
	if want := int64(vpRows * vpCols); batched != want {
		t.Fatalf("batched viewport decoded %d attrs, want exactly %d (O(k) per row)", batched, want)
	}
	// Sanity: the data came back right.
	if !cells[0][0].Value.Equal(sheet.Number(50*1000 + 10)) {
		t.Fatalf("viewport corner = %v", cells[0][0].Value)
	}

	// The same rows read whole decode all n attributes per row.
	rdbms.ResetDecodedAttrCount()
	if _, err := GetCells(rom, sheet.NewRange(g.From.Row, 1, g.To.Row, cols)); err != nil {
		t.Fatal(err)
	}
	if whole := rdbms.DecodedAttrCount(); whole != int64(vpRows*cols) || whole < batched*10 {
		t.Fatalf("whole rows decoded %d attrs vs the viewport's %d — projection pushdown is not pulling its weight", whole, batched)
	}
}

// TestROMGetCellsPinsEachPageOnce: one buffer-pool fetch per distinct heap
// page per range read.
func TestROMGetCellsPinsEachPageOnce(t *testing.T) {
	db := rdbms.Open(rdbms.Options{BufferPoolPages: 1 << 12})
	rom := fillROM(t, db, 2000, 20)
	g := sheet.NewRange(101, 1, 900, 20)
	distinct := make(map[rdbms.PageID]bool)
	for _, rid := range rom.rowMap.FetchRange(101, 800) {
		distinct[rid.Page] = true
	}
	db.Pool().ResetStats()
	if _, err := GetCells(rom, g); err != nil {
		t.Fatal(err)
	}
	st := db.Pool().Stats()
	if fetches := st.PoolHits + st.PoolMisses; fetches != int64(len(distinct)) {
		t.Fatalf("pool fetches = %d, want one per distinct page (%d)", fetches, len(distinct))
	}
}

// TestROMGetCellsAfterColumnChurn exercises the projection map when colPos
// is no longer the identity (inserted + deleted display columns).
func TestROMGetCellsAfterColumnChurn(t *testing.T) {
	rom := fillROM(t, rdbms.Open(rdbms.Options{}), 10, 6)
	if err := rom.Shift(false, 3, 1); err != nil { // new blank display col 3
		t.Fatal(err)
	}
	if err := rom.Shift(false, 5, -1); err != nil { // drops old physical col 4
		t.Fatal(err)
	}
	if err := setCell(rom, 4, 3, sheet.Cell{Value: sheet.Str("new")}); err != nil {
		t.Fatal(err)
	}
	g := sheet.NewRange(1, 1, rom.Rows(), rom.Cols())
	cells, err := GetCells(rom, g)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= rom.Rows(); r++ {
		for c := 1; c <= rom.Cols(); c++ {
			want, err := getCell(rom, r, c)
			if err != nil {
				t.Fatal(err)
			}
			got := cells[r-1][c-1]
			if !got.Value.Equal(want.Value) || got.Formula != want.Formula {
				t.Fatalf("cell (%d,%d): range read %+v != 1x1 read %+v", r, c, got, want)
			}
		}
	}
	// Physical column 4 was dropped, the inserted column 3 is blank but for
	// its one write: the 1x1 reads see the churned projection too.
	if c, _ := getCell(rom, 1, 4); !c.Value.Equal(sheet.Number(1003)) {
		t.Fatalf("(1,4) = %+v, want old column 3", c)
	}
}

// propTranslator builds one translator of the given kind for the property
// test, returning it plus the set of ops it supports.
func propTranslator(t *testing.T, db *rdbms.DB, kind string, seq int) Translator {
	t.Helper()
	cfg := Config{DB: db, TableName: fmt.Sprintf("p%s%d", kind, seq)}
	switch kind {
	case "rom":
		tr, err := NewROM(cfg, 6)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	case "com":
		tr, err := NewCOM(cfg, 6)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 6; j++ {
			if err := tr.Shift(false, j+1, 1); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	case "rcv":
		tr, err := NewRCV(cfg, 6, 6)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	case "tom":
		tab, err := db.CreateTable(cfg.TableName, rdbms.NewSchema(
			rdbms.Column{Name: "name", Type: rdbms.DTText},
			rdbms.Column{Name: "num", Type: rdbms.DTFloat},
			rdbms.Column{Name: "flag", Type: rdbms.DTBool},
		))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if _, err := tab.Insert(rdbms.Row{
				rdbms.Text(fmt.Sprintf("row%d", i)), rdbms.Float(float64(i)), rdbms.Bool(i%2 == 0),
			}); err != nil {
				t.Fatal(err)
			}
		}
		tom, err := LinkTOM(tab, seq%2 == 0)
		if err != nil {
			t.Fatal(err)
		}
		return tom
	}
	t.Fatalf("unknown kind %q", kind)
	return nil
}

// TestRangeReadEquivalenceProperty drives every translator kind through
// random edits and structural churn, then checks GetCells over random
// rectangles against 1×1 reads of each cell — a range read must be
// observationally identical to reading its cells one by one.
func TestRangeReadEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	seq := 0
	for _, kind := range []string{"rom", "com", "rcv", "tom"} {
		seq++
		db := rdbms.Open(rdbms.Options{})
		tr := propTranslator(t, db, kind, seq)
		label := kind
		isTOM := kind == "tom"
		hdr := 0
		if isTOM && tr.Rows() == 7 {
			hdr = 1
		}
		// Random edit churn.
		for op := 0; op < 360; op++ {
			rows, cols := tr.Rows(), tr.Cols()
			r := rng.Float64()
			switch {
			case r < 0.55 || isTOM && r < 0.8:
				// Stay inside the extent: which axes auto-grow differs
				// by model (ROM rows, COM cols, RCV both) and growth
				// semantics are covered elsewhere.
				if rows == 0 || cols == 0 {
					continue
				}
				row := rng.Intn(rows) + 1
				col := rng.Intn(cols) + 1
				if isTOM {
					if rows == hdr {
						continue
					}
					row = rng.Intn(rows-hdr) + 1 + hdr // headers read-only; no auto-grow
					if err := setCell(tr, row, col, sheet.Cell{Value: sheet.Number(float64(op))}); err != nil {
						t.Fatalf("%s: update: %v", label, err)
					}
					continue
				}
				var c sheet.Cell
				switch rng.Intn(4) {
				case 0:
					c = sheet.Cell{Value: sheet.Str(fmt.Sprintf("s%d\x1f\x1b", op))}
				case 1:
					c = sheet.Cell{Value: sheet.Number(float64(op)), Formula: "A1+1"}
				case 2:
					c = sheet.Cell{} // blank (delete for RCV)
				default:
					c = sheet.Cell{Value: sheet.Bool(op%2 == 0)}
				}
				if err := setCell(tr, row, col, c); err != nil {
					t.Fatalf("%s: update(%d,%d): %v", label, row, col, err)
				}
			case r < 0.7:
				at := rng.Intn(rows + 1)
				if isTOM && at < hdr {
					continue
				}
				if err := tr.Shift(true, at+1, 1); err != nil {
					t.Fatalf("%s: insert row: %v", label, err)
				}
			case r < 0.8 && rows > hdr+2:
				at := rng.Intn(rows-hdr) + 1 + hdr
				if err := tr.Shift(true, at, -1); err != nil {
					t.Fatalf("%s: delete row %d: %v", label, at, err)
				}
			case r < 0.9 && !isTOM:
				if err := tr.Shift(false, rng.Intn(cols+1)+1, 1); err != nil {
					t.Fatalf("%s: insert col: %v", label, err)
				}
			case !isTOM && cols > 2:
				if err := tr.Shift(false, rng.Intn(cols)+1, -1); err != nil {
					t.Fatalf("%s: delete col: %v", label, err)
				}
			}
		}
		// Random rectangles, including ones poking past the extent.
		for trial := 0; trial < 12; trial++ {
			rows, cols := tr.Rows(), tr.Cols()
			if rows == 0 || cols == 0 {
				break
			}
			r0 := rng.Intn(rows) + 1
			c0 := rng.Intn(cols) + 1
			r1 := r0 + rng.Intn(rows)
			c1 := c0 + rng.Intn(cols)
			if isTOM {
				if c1 > cols {
					c1 = cols
				}
			}
			checkRangeRead(t, label, tr, sheet.NewRange(r0, c0, r1, c1), func(row, col int) (sheet.Cell, error) {
				if row > tr.Rows() || col > tr.Cols() {
					return sheet.Cell{}, nil
				}
				return getCell(tr, row, col)
			})
		}
	}
}

// checkRangeRead reads g from r three ways — ReadCells, GetCells and one(row,
// col), the cell's 1×1 read — and fails unless they agree: ReadCells visits
// exactly the non-blank cells, each once, at its offset inside g.
func checkRangeRead(t *testing.T, label string, r CellReader, g sheet.Range, one func(row, col int) (sheet.Cell, error)) {
	t.Helper()
	cells, err := GetCells(r, g)
	if err != nil {
		t.Fatalf("%s: GetCells(%v): %v", label, g, err)
	}
	visited := map[[2]int]sheet.Value{}
	err = r.ReadCells(g, func(i, j int, v sheet.Value) {
		switch _, again := visited[[2]int{i, j}]; {
		case i < 0 || j < 0 || i >= g.Rows() || j >= g.Cols():
			t.Fatalf("%s: ReadCells(%v) visits (%d,%d), outside the range", label, g, i, j)
		case v.IsEmpty():
			t.Fatalf("%s: ReadCells(%v) visits blank (%d,%d)", label, g, i, j)
		case again:
			t.Fatalf("%s: ReadCells(%v) visits (%d,%d) twice", label, g, i, j)
		}
		visited[[2]int{i, j}] = v
	})
	if err != nil {
		t.Fatalf("%s: ReadCells(%v): %v", label, g, err)
	}
	for i := range cells {
		for j := range cells[i] {
			row, col := g.From.Row+i, g.From.Col+j
			want, err := one(row, col)
			if err != nil {
				t.Fatalf("%s: 1x1 read (%d,%d): %v", label, row, col, err)
			}
			if got := cells[i][j]; !got.Value.Equal(want.Value) || got.Formula != want.Formula {
				t.Fatalf("%s: rect %v cell (%d,%d): range read %+v != 1x1 read %+v", label, g, row, col, got, want)
			}
			if v, ok := visited[[2]int{i, j}]; ok == want.IsBlank() || ok && !v.Equal(want.Value) {
				t.Fatalf("%s: rect %v cell (%d,%d): ReadCells visited %v (%v), 1x1 read %+v", label, g, row, col, ok, v, want)
			}
		}
	}
}

// TestReadCellsStoreEquivalence is the property over a whole store: a ROM, a
// COM and an RCV region, a linked table and overflow cells around them, every
// value kind, then random rectangles across region edges and the overflow,
// checked against the reference sheet and 1×1 reads.
func TestReadCellsStoreEquivalence(t *testing.T) {
	db := rdbms.Open(rdbms.Options{})
	hs, ref := buildPropStore(t, db)
	tab, err := db.CreateTable("linked", rdbms.NewSchema(
		rdbms.Column{Name: "name", Type: rdbms.DTText},
		rdbms.Column{Name: "flag", Type: rdbms.DTBool},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := tab.Insert(rdbms.Row{rdbms.Text(fmt.Sprintf("n%d", i)), rdbms.Bool(i%2 == 0)}); err != nil {
			t.Fatal(err)
		}
	}
	linked := sheet.NewRange(180, 3, 185, 4)
	if _, err := hs.LinkTable(linked, tab, true); err != nil {
		t.Fatal(err)
	}
	for r := linked.From.Row; r <= linked.To.Row; r++ {
		for c := linked.From.Col; c <= linked.To.Col; c++ {
			cell, err := getCell(hs, r, c)
			if err != nil {
				t.Fatal(err)
			}
			ref.Set(sheet.Ref{Row: r, Col: c}, cell)
		}
	}
	rng := rand.New(rand.NewSource(45))
	shapes := []sheet.Value{sheet.Str("s"), sheet.Str(""), sheet.Bool(true), sheet.Bool(false), sheet.ErrDiv0, sheet.Number(-2.5), {}}
	var writes []CellWrite
	for n := 0; n < 400; n++ {
		r := sheet.Ref{Row: rng.Intn(170) + 1, Col: rng.Intn(24) + 1}
		writes = append(writes, CellWrite{Row: r.Row, Col: r.Col, Cell: sheet.Cell{Value: shapes[rng.Intn(len(shapes))]}})
		ref.Set(r, writes[len(writes)-1].Cell)
	}
	if err := hs.UpdateCells(writes); err != nil {
		t.Fatal(err)
	}
	if hs.overflow.CellCount() == 0 || len(hs.regions) < 4 {
		t.Fatalf("%d regions and %d overflow cells: the store is not mixed", len(hs.regions), hs.overflow.CellCount())
	}
	for trial := 0; trial < 60; trial++ {
		r0, c0 := rng.Intn(190)+1, rng.Intn(24)+1
		g := sheet.NewRange(r0, c0, r0+rng.Intn(64), c0+rng.Intn(16))
		checkRangeRead(t, "store", hs, g, func(row, col int) (sheet.Cell, error) {
			cell, err := getCell(hs, row, col)
			if want := ref.GetRC(row, col); err == nil && !cell.Value.Equal(want.Value) {
				t.Fatalf("store (%d,%d) = %v, reference %v", row, col, cell.Value, want.Value)
			}
			return cell, err
		})
	}
}

// buildPropStore assembles a hybrid store with one region of each kind plus
// overflow cells, mirroring every write into a reference sheet.
func buildPropStore(t testing.TB, db *rdbms.DB) (*HybridStore, *sheet.Sheet) {
	t.Helper()
	hs, err := NewHybridStore(db, "conc")
	if err != nil {
		t.Fatal(err)
	}
	ref := sheet.New("ref")
	regions := []struct {
		rect sheet.Range
		kind hybrid.Kind
	}{
		{sheet.NewRange(1, 1, 80, 10), hybrid.ROM},
		{sheet.NewRange(1, 12, 40, 18), hybrid.COM},
		{sheet.NewRange(100, 1, 160, 8), hybrid.RCV},
	}
	for _, reg := range regions {
		if _, err := hs.AddRegion(reg.rect, reg.kind); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for n := 0; n < 1200; n++ {
		row := rng.Intn(170) + 1
		col := rng.Intn(20) + 1
		c := sheet.Cell{Value: sheet.Number(float64(row*100 + col))}
		if err := setCell(hs, row, col, c); err != nil {
			t.Fatal(err)
		}
		ref.Set(sheet.Ref{Row: row, Col: col}, c)
	}
	return hs, ref
}

func concurrentStoreRead(t *testing.T, hs *HybridStore, ref *sheet.Sheet) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w * 31)))
			for it := 0; it < 15; it++ {
				r0 := rng.Intn(160) + 1
				c0 := rng.Intn(16) + 1
				g := sheet.NewRange(r0, c0, r0+rng.Intn(40), c0+rng.Intn(8))
				cells, err := hs.GetCells(g)
				if err != nil {
					errs <- fmt.Errorf("worker %d: %v", w, err)
					return
				}
				for i := range cells {
					for j := range cells[i] {
						want := ref.GetRC(g.From.Row+i, g.From.Col+j)
						if !cells[i][j].Value.Equal(want.Value) {
							errs <- fmt.Errorf("worker %d: (%d,%d) = %v want %v",
								w, g.From.Row+i, g.From.Col+j, cells[i][j].Value, want.Value)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestStoreConcurrentReadersMem: parallel range reads over a multi-region
// store on the in-memory pager (run under -race).
func TestStoreConcurrentReadersMem(t *testing.T) {
	db := rdbms.Open(rdbms.Options{BufferPoolPages: 16}) // force evictions
	hs, ref := buildPropStore(t, db)
	concurrentStoreRead(t, hs, ref)
}

// TestStoreConcurrentReadersFile: the same workload against the durable
// pager after a full persist/reopen cycle, so reads exercise the
// checksummed file path concurrently.
func TestStoreConcurrentReadersFile(t *testing.T) {
	path := t.TempDir() + "/conc.dsdb"
	db, err := rdbms.OpenFile(path, rdbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hs, ref := buildPropStore(t, db)
	if err := hs.SaveManifest(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := rdbms.OpenFile(path, rdbms.Options{BufferPoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	hs2, err := LoadHybridStore(db2, "conc")
	if err != nil {
		t.Fatal(err)
	}
	concurrentStoreRead(t, hs2, ref)
}

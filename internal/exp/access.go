package exp

import (
	"fmt"
	"math/rand"
	"time"

	"dataspread/internal/model"
	"dataspread/internal/posmap"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
	"dataspread/internal/workload"
)

// Table2Result holds the position-as-is baseline measurements (Table II):
// the cost of storing the position explicitly in every tuple, for a sheet
// of one million cells.
type Table2Result struct {
	Cells                int
	RCVInsert, ROMInsert time.Duration
	RCVFetch, ROMFetch   time.Duration
}

// Table2 reproduces Table II: fetch and insert with Position-as-is. RCV
// stores one tuple per cell, so a row insertion renumbers every subsequent
// tuple; ROM stores one tuple per row, so it renumbers only rows. Fetch is
// an index lookup for both.
func Table2(cfg Config) Table2Result {
	cfg = cfg.Resolve()
	const cols = 100
	rows := cfg.MaxRows / cols // default 10^4 rows x 100 cols = 10^6 cells
	if rows < 100 {
		rows = 100
	}
	res := Table2Result{Cells: rows * cols}

	db := cfg.openDB(1 << 14)

	// RCV with explicit positions: (row, col, value) tuples, indexed on row.
	rcv, _ := db.CreateTable("t2rcv", rdbms.NewSchema(
		rdbms.Column{Name: "row", Type: rdbms.DTInt},
		rdbms.Column{Name: "col", Type: rdbms.DTInt},
		rdbms.Column{Name: "val", Type: rdbms.DTInt},
	))
	for r := 1; r <= rows; r++ {
		for c := 1; c <= cols; c++ {
			rcv.Insert(rdbms.Row{rdbms.Int(int64(r)), rdbms.Int(int64(c)), rdbms.Int(int64(r * c))}) //nolint:errcheck
		}
	}
	rcv.CreateIndex("row") //nolint:errcheck

	// ROM with explicit positions: (rowid, c1..c100), indexed on rowid.
	schema := rdbms.Schema{Cols: []rdbms.Column{{Name: "rowid", Type: rdbms.DTInt}}}
	for c := 0; c < cols; c++ {
		schema.Cols = append(schema.Cols, rdbms.Column{Name: fmt.Sprintf("c%d", c), Type: rdbms.DTInt})
	}
	rom, _ := db.CreateTable("t2rom", schema)
	for r := 1; r <= rows; r++ {
		tuple := make(rdbms.Row, cols+1)
		tuple[0] = rdbms.Int(int64(r))
		for c := 1; c <= cols; c++ {
			tuple[c] = rdbms.Int(int64(r * c))
		}
		rom.Insert(tuple) //nolint:errcheck
	}
	rom.CreateIndex("rowid") //nolint:errcheck

	// Insert a row at position 2: every subsequent tuple's position
	// attribute must be incremented — the cascading update.
	cascade := func(t *rdbms.Table, posCol int) time.Duration {
		start := time.Now()
		type upd struct {
			rid rdbms.RID
			row rdbms.Row
		}
		var updates []upd
		t.Scan(func(rid rdbms.RID, r rdbms.Row) bool {
			if r[posCol].Int64() >= 2 {
				nr := r.Clone()
				nr[posCol] = rdbms.Int(r[posCol].Int64() + 1)
				updates = append(updates, upd{rid, nr})
			}
			return true
		})
		for _, u := range updates {
			t.Update(u.rid, u.row) //nolint:errcheck
		}
		return time.Since(start)
	}
	res.RCVInsert = cascade(rcv, 0)
	res.ROMInsert = cascade(rom, 0)

	// Fetch one (random) row by position through the index.
	rng := rand.New(rand.NewSource(cfg.Seed))
	res.RCVFetch = timeIt(cfg.Reps, func() {
		target := int64(rng.Intn(rows) + 1)
		rcv.IndexScan("row", target, target, func(_ rdbms.RID, _ rdbms.Row) bool { return true })
	})
	res.ROMFetch = timeIt(cfg.Reps, func() {
		target := int64(rng.Intn(rows) + 1)
		rom.IndexScan("rowid", target, target, func(_ rdbms.RID, _ rdbms.Row) bool { return true })
	})

	cfg.printf("Table II: The performance of storing Position-as-is (%d cells)\n", res.Cells)
	cfg.printf("%-10s %12s %12s\n", "Operation", "RCV", "ROM")
	cfg.printf("%-10s %12s %12s\n", "Insert", res.RCVInsert, res.ROMInsert)
	cfg.printf("%-10s %12s %12s\n", "Fetch", res.RCVFetch, res.ROMFetch)
	return res
}

// Fig18Point is one (scheme, rows) measurement.
type Fig18Point struct {
	Scheme                string
	Rows                  int
	Fetch, Insert, Delete time.Duration
}

// Fig18 reproduces Figure 18: positional-mapping performance for fetch,
// insert and delete of a single random row, as the row count grows.
// Measurements run directly against the positional structures (the
// tuple-pointer payload is scheme-independent).
func Fig18(cfg Config) []Fig18Point {
	cfg = cfg.Resolve()
	sizes := []int{}
	for n := 1000; n <= cfg.MaxRows; n *= 10 {
		sizes = append(sizes, n)
	}
	cfg.printf("Figure 18: Positional mapping performance (single random row)\n")
	cfg.printf("%-16s %10s %12s %12s %12s\n", "scheme", "rows", "fetch", "insert", "delete")
	var out []Fig18Point
	for _, scheme := range posmap.Schemes() {
		for _, n := range sizes {
			m := posmap.New(scheme)
			for i := 1; i <= n; i++ {
				m.Insert(i, rdbms.RID{Page: rdbms.PageID(i)})
			}
			rng := rand.New(rand.NewSource(cfg.Seed))
			pt := Fig18Point{Scheme: scheme, Rows: n}
			reps := adaptiveReps(cfg.Reps, scheme, n)
			pt.Fetch = timeIt(reps, func() {
				m.Fetch(rng.Intn(m.Len()) + 1)
			})
			pt.Insert = timeIt(reps, func() {
				m.Insert(rng.Intn(m.Len()+1)+1, rdbms.RID{Page: 1})
			})
			pt.Delete = timeIt(reps, func() {
				m.Delete(rng.Intn(m.Len()) + 1)
			})
			out = append(out, pt)
			cfg.printf("%-16s %10d %12s %12s %12s\n", scheme, n, pt.Fetch, pt.Insert, pt.Delete)
		}
	}
	return out
}

// adaptiveReps trims repetitions for the deliberately slow baselines so the
// harness finishes (the paper likewise reports single measurements for the
// pathological points).
func adaptiveReps(reps int, scheme string, n int) int {
	if scheme == "hierarchical" {
		return reps
	}
	switch {
	case n >= 1_000_000:
		return 2
	case n >= 100_000:
		return 3
	case n >= 10_000:
		return 5
	}
	return reps
}

// SweepPoint is one (model, x) measurement of Figures 22-24.
type SweepPoint struct {
	Model string
	X     float64 // density, #cols or #rows depending on the sweep
	Time  time.Duration
}

// buildTranslator materializes a dense sheet region in one primitive model
// with the hierarchical positional scheme, one UpdateCells per row (blanks
// included, so a ROM gets every row; an RCV stores nothing for them).
func buildTranslator(cfg Config, kind string, rows, cols int, density float64, seed int64) model.Translator {
	db := cfg.openDB(1 << 14)
	mcfg := model.Config{DB: db, TableName: "sweep"}
	var tr model.Translator
	var err error
	switch kind {
	case "rom":
		tr, err = model.NewROM(mcfg, cols)
	case "rcv":
		tr, err = model.NewRCV(mcfg, rows, cols)
	default:
		panic("unknown model " + kind)
	}
	if err != nil {
		panic(err)
	}
	s := workload.Dense(rows, cols, density, seed)
	row := make([]model.CellWrite, cols)
	for r := 1; r <= rows; r++ {
		for c := range row {
			row[c] = model.CellWrite{Row: r, Col: c + 1, Cell: s.GetRC(r, c+1)}
		}
		if err := tr.UpdateCells(row); err != nil {
			panic(err)
		}
	}
	return tr
}

// sweep runs op for RCV and ROM across the x-axis points.
func sweep(cfg Config, title string, points []float64, build func(kind string, x float64) model.Translator,
	op func(tr model.Translator, rng *rand.Rand)) []SweepPoint {
	cfg.printf("%s\n%-8s %12s %12s\n", title, "x", "RCV", "ROM")
	var out []SweepPoint
	for _, x := range points {
		times := make(map[string]time.Duration)
		for _, kind := range []string{"rcv", "rom"} {
			mark := diskMark()
			tr := build(kind, x)
			rng := rand.New(rand.NewSource(cfg.Seed))
			times[kind] = timeIt(cfg.Reps, func() { op(tr, rng) })
			out = append(out, SweepPoint{Model: kind, X: x, Time: times[kind]})
			// Release this point's file-backed database (no-op in-memory).
			closeDiskSince(mark) //nolint:errcheck
		}
		cfg.printf("%-8.3g %12s %12s\n", x, times["rcv"], times["rom"])
	}
	return out
}

// Fig22 reproduces Figure 22: update a 100x20 region, vs sheet density,
// column count and row count.
func Fig22(cfg Config) (byDensity, byCols, byRows []SweepPoint) {
	cfg = cfg.Resolve()
	baseRows := cfg.MaxRows / 100
	if baseRows < 500 {
		baseRows = 500
	}
	update := func(tr model.Translator, rng *rand.Rand) {
		r0 := rng.Intn(maxIntE(tr.Rows()-100, 1)) + 1
		c0 := rng.Intn(maxIntE(tr.Cols()-20, 1)) + 1
		// One UpdateCells of the block: one tuple rewrite per row on ROM, one
		// tuple operation per cell on RCV.
		writes := make([]model.CellWrite, 0, 100*20)
		for r := r0; r <= minIntE(r0+99, tr.Rows()); r++ {
			for c := c0; c <= minIntE(c0+19, tr.Cols()); c++ {
				writes = append(writes, model.CellWrite{Row: r, Col: c, Cell: sheet.Cell{Value: sheet.Number(1)}})
			}
		}
		tr.UpdateCells(writes) //nolint:errcheck
	}
	byDensity = sweep(cfg, "Figure 22(a): update 100x20 region vs density",
		[]float64{0.2, 0.4, 0.6, 0.8, 1.0},
		func(kind string, x float64) model.Translator {
			return buildTranslator(cfg, kind, baseRows, 100, x, cfg.Seed)
		}, update)
	byCols = sweep(cfg, "Figure 22(b): update 100x20 region vs #columns",
		[]float64{30, 50, 70, 100},
		func(kind string, x float64) model.Translator {
			return buildTranslator(cfg, kind, baseRows, int(x), 1.0, cfg.Seed)
		}, update)
	byRows = sweep(cfg, "Figure 22(c): update 100x20 region vs #rows",
		rowPoints(cfg.MaxRows/10),
		func(kind string, x float64) model.Translator {
			return buildTranslator(cfg, kind, int(x), 50, 1.0, cfg.Seed)
		}, update)
	return byDensity, byCols, byRows
}

// Fig23 reproduces Figure 23: insert one row, same sweeps.
func Fig23(cfg Config) (byDensity, byCols, byRows []SweepPoint) {
	cfg = cfg.Resolve()
	baseRows := cfg.MaxRows / 100
	if baseRows < 500 {
		baseRows = 500
	}
	insert := func(tr model.Translator, rng *rand.Rand) {
		tr.Shift(true, rng.Intn(tr.Rows())+1, 1) //nolint:errcheck
	}
	byDensity = sweep(cfg, "Figure 23(a): insert row vs density",
		[]float64{0.2, 0.4, 0.6, 0.8, 1.0},
		func(kind string, x float64) model.Translator {
			return buildTranslator(cfg, kind, baseRows, 100, x, cfg.Seed)
		}, insert)
	byCols = sweep(cfg, "Figure 23(b): insert row vs #columns",
		[]float64{10, 30, 50, 70, 100},
		func(kind string, x float64) model.Translator {
			return buildTranslator(cfg, kind, baseRows, int(x), 1.0, cfg.Seed)
		}, insert)
	byRows = sweep(cfg, "Figure 23(c): insert row vs #rows",
		rowPoints(cfg.MaxRows/10),
		func(kind string, x float64) model.Translator {
			return buildTranslator(cfg, kind, int(x), 50, 1.0, cfg.Seed)
		}, insert)
	return byDensity, byCols, byRows
}

// Fig24 reproduces Figure 24: select a 1000x20 region, same sweeps.
func Fig24(cfg Config) (byDensity, byCols, byRows []SweepPoint) {
	cfg = cfg.Resolve()
	baseRows := cfg.MaxRows / 100
	if baseRows < 1200 {
		baseRows = 1200
	}
	sel := func(tr model.Translator, rng *rand.Rand) {
		rows := 1000
		if rows > tr.Rows() {
			rows = tr.Rows()
		}
		r0 := rng.Intn(maxIntE(tr.Rows()-rows, 1)) + 1
		c0 := rng.Intn(maxIntE(tr.Cols()-20, 1)) + 1
		model.GetCells(tr, sheet.NewRange(r0, c0, r0+rows-1, minIntE(c0+19, tr.Cols()))) //nolint:errcheck
	}
	byDensity = sweep(cfg, "Figure 24(a): select 1000x20 region vs density",
		[]float64{0.2, 0.4, 0.6, 0.8, 1.0},
		func(kind string, x float64) model.Translator {
			return buildTranslator(cfg, kind, baseRows, 100, x, cfg.Seed)
		}, sel)
	byCols = sweep(cfg, "Figure 24(b): select 1000x20 region vs #columns",
		[]float64{30, 50, 70, 100},
		func(kind string, x float64) model.Translator {
			return buildTranslator(cfg, kind, baseRows, int(x), 1.0, cfg.Seed)
		}, sel)
	byRows = sweep(cfg, "Figure 24(c): select 1000x20 region vs #rows",
		rowPoints(cfg.MaxRows/10),
		func(kind string, x float64) model.Translator {
			return buildTranslator(cfg, kind, int(x), 50, 1.0, cfg.Seed)
		}, sel)
	return byDensity, byCols, byRows
}

func rowPoints(max int) []float64 {
	var out []float64
	for n := 1000; n <= max; n *= 10 {
		out = append(out, float64(n))
	}
	if len(out) == 0 {
		out = []float64{1000}
	}
	return out
}

func maxIntE(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minIntE(a, b int) int {
	if a < b {
		return a
	}
	return b
}

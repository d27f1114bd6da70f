package model

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// codecCells is every kind of cell the codec must carry: each value with and
// without a formula, plus a formula that has never been evaluated. The blank
// cell is the gaps around them.
func codecCells() []sheet.Cell {
	values := []sheet.Value{
		sheet.Bool(true), sheet.Bool(false),
		sheet.ErrDiv0, sheet.ErrRef, sheet.ErrValue, sheet.ErrName, sheet.ErrNA, sheet.ErrCycle,
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1<<53 - 1, 1 << 53, 1<<53 + 2, -(1 << 53), -(1<<53 - 1), 1e308, -1e308,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308 / 2, 0.1, -2.5, 42,
		12345678901, -98765432109, 1.0000123456e+10,
	} {
		values = append(values, sheet.Number(f))
	}
	for _, s := range []string{"", "hello", "\x1b", "\x1f", "a\x1fb\x1bc\x1b_", "nul\x00inside", "\xff\xfe invalid utf-8 \xc0", "N42", strings.Repeat("wide ", 60)} {
		values = append(values, sheet.Str(s))
	}
	cells := []sheet.Cell{{Formula: "SUM(A1:A9)"}}
	for _, v := range values {
		cells = append(cells, sheet.Cell{Value: v}, sheet.Cell{Value: v, Formula: "AVERAGE(B2:C2)+D2&\"\x1f\""})
	}
	return cells
}

// sameCell compares as the store must preserve: kind, text, formula, and a
// number by its bits (NaN equals itself, 0 differs from -0).
func sameCell(a, b sheet.Cell) bool {
	fa, _ := a.Value.Num()
	fb, _ := b.Value.Num()
	return a.Value.Kind() == b.Value.Kind() && a.Formula == b.Formula &&
		(a.Value.Kind() == sheet.KindString || math.Float64bits(fa) == math.Float64bits(fb)) &&
		a.Value.Text() == b.Value.Text()
}

// stored is what a store holds of c and reads back: its value, no formula.
func stored(c sheet.Cell) sheet.Cell { return sheet.Cell{Value: c.Value} }

// TestCellCodecRoundTripProperty: every kind of cell's value survives
// encodeCell and decodeCell, a bulk load, 1x1 and range reads, an UpdateCells
// that rewrites every tuple with other kinds, and Save -> Load, in each
// translator; a formula's source is never stored (its home is the engine's
// run registry).
func TestCellCodecRoundTripProperty(t *testing.T) {
	cells := codecCells()
	for _, c := range cells {
		d := encodeCell(c)
		got, err := decodeCell(d)
		if err != nil || !sameCell(got, stored(c)) {
			t.Fatalf("%+v -> %v -> %+v, %v", c, d, got, err)
		}
		f, _ := c.Value.Num()
		if c.Formula == "" && c.Value.Kind() == sheet.KindNumber {
			wantInt := math.Abs(f) < 1<<53 && f == math.Trunc(f) && !(f == 0 && math.Signbit(f))
			if (d.Type() == rdbms.DTInt) != wantInt || (d.Type() == rdbms.DTFloat) == wantInt {
				t.Fatalf("%v stored as %v", f, d.Type())
			}
		}
	}
	// Damage is an error naming the tag where there is one, never a blank cell.
	for _, bad := range []string{
		"",       // no tag at all
		"Zbogus", // unknown tag
		"N\x00\x00\x00\x00\x00\x00\x00\x00SUM(A1)", "SSUM(A1)", // a formula tag of format 7
	} {
		c, err := decodeCell(rdbms.Text(bad))
		if err == nil {
			t.Fatalf("%q decodes to %+v, want an error", bad, c)
		}
		if bad != "" && !strings.Contains(err.Error(), fmt.Sprintf("%q", bad[0])) {
			t.Fatalf("%q: error %q does not name the tag", bad, err)
		}
	}

	const width = 7 // the cases as a grid, one blank column on the right
	layout := func(shift int) *sheet.Sheet {
		s := sheet.New("codec")
		for i := range cells {
			s.Set(sheet.Ref{Row: 1 + i/(width-1), Col: 1 + i%(width-1)}, cells[(i+shift)%len(cells)])
		}
		return s
	}
	check := func(t *testing.T, hs *HybridStore, want *sheet.Sheet) {
		t.Helper()
		box, _ := want.Bounds()
		box.To.Col = width
		grid, err := hs.GetCells(box)
		if err != nil {
			t.Fatal(err)
		}
		for r := box.From.Row; r <= box.To.Row; r++ {
			for c := box.From.Col; c <= box.To.Col; c++ {
				one, err := getCell(hs, r, c)
				if err != nil {
					t.Fatal(err)
				}
				if w := stored(want.GetRC(r, c)); !sameCell(one, w) || !sameCell(grid[r-1][c-1], w) {
					t.Fatalf("(%d,%d): 1x1 read %+v, range read %+v, want %+v", r, c, one, grid[r-1][c-1], w)
				}
			}
		}
	}
	for _, algo := range []string{"rom", "com", "rcv"} {
		t.Run(algo, func(t *testing.T) {
			loaded, rewritten := layout(0), layout(5)
			hs2, _ := persistRoundTrip(t, loaded, algo, func(hs *HybridStore) {
				check(t, hs, loaded)
				var writes []CellWrite
				rewritten.Each(func(r sheet.Ref, c sheet.Cell) {
					writes = append(writes, CellWrite{Row: r.Row, Col: r.Col, Cell: c})
				})
				if err := hs.UpdateCells(writes); err != nil {
					t.Fatal(err)
				}
				check(t, hs, rewritten)
			})
			check(t, hs2, rewritten)
		})
	}
}

// FuzzCellDecode hands decodeCell arbitrary datums: it never panics, what it
// accepts re-encodes to the same cell, and a text datum it cannot read — no
// tag, an unknown one — is an error naming the tag, never a blank cell.
func FuzzCellDecode(f *testing.F) {
	for _, c := range codecCells() {
		d := encodeCell(c)
		f.Add(uint8(d.Type()), d.Int64(), math.Float64bits(d.Float64()), d.Str())
	}
	f.Add(uint8(rdbms.DTText), int64(0), uint64(0), "")
	f.Add(uint8(rdbms.DTText), int64(0), uint64(0), "N1.0000123456e+10")
	f.Add(uint8(rdbms.DTText), int64(0), uint64(0), "Zbogus")
	f.Add(uint8(rdbms.DTFloat), int64(0), uint64(unevaluatedBits+1), "")
	f.Fuzz(func(t *testing.T, typ uint8, i int64, bits uint64, s string) {
		var d rdbms.Datum
		switch rdbms.DType(typ % 5) {
		case rdbms.DTInt:
			d = rdbms.Int(i)
		case rdbms.DTFloat:
			d = rdbms.Float(math.Float64frombits(bits))
		case rdbms.DTText:
			d = rdbms.Text(s)
		case rdbms.DTBool:
			d = rdbms.Bool(i != 0)
		}
		c, err := decodeCell(d)
		if err != nil {
			if d.Type() != rdbms.DTText {
				t.Fatalf("%v datum refused: %v", d.Type(), err)
			}
			if s != "" && !strings.Contains(err.Error(), fmt.Sprintf("%q", s[0])) {
				t.Fatalf("error %q does not name tag %q", err, s[0])
			}
			return
		}
		// Only NULL and a formula awaiting evaluation read blank.
		unevaluated := d.Type() == rdbms.DTFloat && bits == unevaluatedBits
		if c.IsBlank() != (d.IsNull() || unevaluated) || c.Formula != "" {
			t.Fatalf("%v datum %q decodes to %+v", d.Type(), s, c)
		}
		if again, err := decodeCell(encodeCell(c)); err != nil || !sameCell(again, c) {
			t.Fatalf("%+v re-encodes to %+v, %v", c, again, err)
		}
	})
}

// TestFormulaCellStoresValueOnly: a formula cell's stored datum is its value
// alone. A number or a formula not evaluated yet is nine fixed bytes (the
// property TestNumericRecalcRelocatesNothing rests on), any other value is
// stored as a plain cell stores it, and no tuple of any translator carries
// the formula's source text, which reads never return. A number that happens
// to carry the not-evaluated sentinel's bits stays a number.
func TestFormulaCellStoresValueOnly(t *testing.T) {
	const src = "SUM(QQ1:QQ9)*777"
	// A number carrying the not-evaluated sentinel's bits, set or copied
	// into a formula by =A1, still reads back as a NaN.
	for _, formula := range []string{"", "A1"} {
		c := sheet.Cell{Value: sheet.Number(math.Float64frombits(unevaluatedBits)), Formula: formula}
		got, err := decodeCell(encodeCell(c))
		if f, ok := got.Value.Num(); err != nil || !ok || !math.IsNaN(f) {
			t.Fatalf("%+v reads back %+v, %v; want a NaN", c, got, err)
		}
	}
	for _, c := range codecCells() {
		if c.Formula == "" {
			continue
		}
		c.Formula = src
		d := encodeCell(c)
		switch k := c.Value.Kind(); {
		case k == sheet.KindNumber || k == sheet.KindEmpty:
			if d.Type() != rdbms.DTFloat {
				t.Fatalf("%+v stored as %v, want the fixed-width float", c, d.Type())
			}
		case !d.Equal(encodeCell(stored(c))):
			t.Fatalf("%+v stored as %v, a plain cell of its value as %v", c, d, encodeCell(stored(c)))
		}
	}
	s := sheet.New("values")
	for r := 1; r <= 40; r++ {
		for c := 1; c <= 5; c++ {
			cell := sheet.Cell{Value: sheet.Number(float64(r * c)), Formula: src}
			switch (r + c) % 4 {
			case 0:
				cell.Value = sheet.Empty
			case 1:
				cell.Value = sheet.Str("text")
			}
			s.Set(sheet.Ref{Row: r, Col: c}, cell)
		}
	}
	for _, algo := range []string{"rom", "com", "rcv"} {
		t.Run(algo, func(t *testing.T) {
			hs, db := persistRoundTrip(t, s, algo, nil)
			for _, name := range db.TableNames() {
				db.Table(name).Scan(func(rid rdbms.RID, row rdbms.Row) bool {
					for _, d := range row {
						if strings.Contains(d.String(), "QQ") {
							t.Fatalf("table %s tuple %v holds formula source: %v", name, rid, row)
						}
					}
					return true
				})
			}
			grid, err := hs.GetCells(sheet.NewRange(1, 1, 40, 5))
			if err != nil {
				t.Fatal(err)
			}
			for i, row := range grid {
				for j, got := range row {
					if want := stored(s.GetRC(i+1, j+1)); !sameCell(got, want) {
						t.Fatalf("(%d,%d) reads %+v, want %+v", i+1, j+1, got, want)
					}
				}
			}
		})
	}
}

// TestNumericRecalcRelocatesNothing is the property a formula cell's
// fixed-width number buys: on a file-backed ROM region, ticks of a 200 x 14 cone whose results
// alternate between one and twelve significant digits, and a 256 x 16 paste of
// integers over integers of the same magnitude, leave every tuple pointer of
// the positional map and the table's footprint as they were. String results
// change a tuple's width, so those may move once — out of a page too full for
// the long form — and must then stay put, growing nothing.
func TestNumericRecalcRelocatesNothing(t *testing.T) {
	const coneRows, rows, cols = 200, 456, 16
	results := map[string][2]sheet.Value{
		"numbers": {sheet.Number(7), sheet.Number(1.23456789012)},
		"strings": {sheet.Str("a"), sheet.Str("abcdefghijkl")},
	}
	for name, result := range results {
		t.Run(name, func(t *testing.T) {
			db, err := rdbms.OpenFile(filepath.Join(t.TempDir(), "cone.dsdb"), rdbms.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			rom, err := NewROM(Config{DB: db, TableName: "cone"}, cols)
			if err != nil {
				t.Fatal(err)
			}
			load := newCellGrid(rows, cols)
			for i := range load {
				r := i + 1
				for c := range load[i] {
					load[i][c] = sheet.Cell{Value: sheet.Number(float64(10000 + r + c))}
					if r <= coneRows && c >= 2 {
						load[i][c] = sheet.Cell{Formula: fmt.Sprintf("$A%d*%d", r, c)}
					}
				}
			}
			if err := rom.UpdateCells(blockWrites(1, 1, load)); err != nil {
				t.Fatal(err)
			}
			tick := func(n int) {
				t.Helper()
				cone := make([]CellWrite, 0, coneRows*(cols-2))
				for r := 1; r <= coneRows; r++ {
					for c := 3; c <= cols; c++ {
						cone = append(cone, CellWrite{r, c, sheet.Cell{Value: result[n%2], Formula: fmt.Sprintf("$A%d*%d", r, c-1)}})
					}
				}
				if err := rom.UpdateCells(cone); err != nil {
					t.Fatal(err)
				}
				paste := newCellGrid(rows-coneRows, cols)
				for i := range paste {
					for j := range paste[i] {
						paste[i][j] = sheet.Cell{Value: sheet.Number(float64(20000 + n + i + j))}
					}
				}
				if err := rom.UpdateCells(blockWrites(coneRows+1, 1, paste)); err != nil {
					t.Fatal(err)
				}
				if err := db.FlushWAL(); err != nil {
					t.Fatal(err)
				}
			}
			settle := 0
			if name == "strings" {
				settle = 2
			}
			for n := 0; n < settle; n++ {
				tick(n)
			}
			rids := rom.rowMap.FetchRange(1, rows)
			storage, live := rom.table.StorageBytes(), rom.table.LiveBytes()
			for n := settle; n < 50; n++ {
				tick(n)
			}
			for i, rid := range rom.rowMap.FetchRange(1, rows) {
				if rid != rids[i] {
					t.Fatalf("row %d moved from %v to %v", i+1, rids[i], rid)
				}
			}
			if s, l := rom.table.StorageBytes(), rom.table.LiveBytes(); s != storage || l != live {
				t.Fatalf("storage %d -> %d bytes, live %d -> %d", storage, s, live, l)
			}
			// Projection pushdown is what it was: a 50 x 10 viewport decodes
			// 500 attributes, whatever their types.
			rdbms.ResetDecodedAttrCount()
			view, err := rom.GetCells(sheet.NewRange(176, 2, 225, 11))
			if err != nil {
				t.Fatal(err)
			}
			if n := rdbms.DecodedAttrCount(); n != 500 {
				t.Fatalf("a 50 x 10 viewport decoded %d attributes, want 500", n)
			}
			if got := view[0][1]; !sameCell(got, sheet.Cell{Value: result[49%2]}) {
				t.Fatalf("cone cell C176 reads %+v", got)
			}
		})
	}
}

package model

import (
	"fmt"
	"math/rand"
	"testing"

	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

func benchROM(b *testing.B, rows, cols int) *ROM {
	b.Helper()
	rom, err := NewROM(Config{DB: rdbms.Open(rdbms.Options{BufferPoolPages: 1 << 14}), TableName: "b"}, cols)
	if err != nil {
		b.Fatal(err)
	}
	cells := newCellGrid(rows, cols)
	for i := range cells {
		for c := range cells[i] {
			cells[i][c] = sheet.Cell{Value: sheet.Number(float64((i+1)*cols + c))}
		}
	}
	if err := rom.UpdateCells(blockWrites(1, 1, cells)); err != nil {
		b.Fatal(err)
	}
	return rom
}

func benchRCV(b *testing.B, rows, cols int, density float64) *RCV {
	b.Helper()
	rcv, err := NewRCV(Config{DB: rdbms.Open(rdbms.Options{BufferPoolPages: 1 << 14}), TableName: "b"}, rows, cols)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var ws []CellWrite
	for r := 1; r <= rows; r++ {
		for c := 1; c <= cols; c++ {
			if density >= 1 || rng.Float64() < density {
				ws = append(ws, CellWrite{Row: r, Col: c, Cell: sheet.Cell{Value: sheet.Number(float64(r))}})
			}
		}
	}
	if err := rcv.UpdateCells(ws); err != nil {
		b.Fatal(err)
	}
	return rcv
}

func BenchmarkROMGetCellsViewport(b *testing.B) {
	rom := benchROM(b, 10_000, 50)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r0 := rng.Intn(9_900) + 1
		if _, err := GetCells(rom, sheet.NewRange(r0, 1, r0+49, 20)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkROMInsertRow(b *testing.B) {
	rom := benchROM(b, 10_000, 50)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rom.Shift(true, rng.Intn(rom.Rows())+1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkROMUpdateCell writes one cell of a random row: 10,000 rows of 50
// columns, and 1,000 of 256 (import-open's wide ROM tuples).
func BenchmarkROMUpdateCell(b *testing.B) {
	for _, shape := range []struct{ rows, cols int }{{10_000, 50}, {1_000, 256}} {
		b.Run(fmt.Sprintf("cols=%d", shape.cols), func(b *testing.B) {
			rom := benchROM(b, shape.rows, shape.cols)
			rng := rand.New(rand.NewSource(1))
			cell := sheet.Cell{Value: sheet.Number(42)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := setCell(rom, rng.Intn(shape.rows)+1, rng.Intn(shape.cols)+1, cell); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRCVGetCellsViewport(b *testing.B) {
	rcv := benchRCV(b, 10_000, 50, 0.3)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r0 := rng.Intn(9_900) + 1
		if _, err := GetCells(rcv, sheet.NewRange(r0, 1, r0+49, 20)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRCVUpdateCell(b *testing.B) {
	rcv := benchRCV(b, 10_000, 50, 0.3)
	rng := rand.New(rand.NewSource(1))
	cell := sheet.Cell{Value: sheet.Number(42)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := setCell(rcv, rng.Intn(10_000)+1, rng.Intn(50)+1, cell); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkROMUpdateCellsAppend appends one full row per iteration: one
// built tuple past the extent.
func BenchmarkROMUpdateCellsAppend(b *testing.B) {
	rom := benchROM(b, 100, 50)
	row := newCellGrid(1, 50)
	for c := range row[0] {
		row[0][c] = sheet.Cell{Value: sheet.Number(float64(c))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rom.UpdateCells(blockWrites(rom.Rows()+1, 1, row)); err != nil {
			b.Fatal(err)
		}
	}
}

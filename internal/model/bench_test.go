package model

import (
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
	buf := make([]sheet.Cell, cols)
	for r := 1; r <= rows; r++ {
		for c := range buf {
			buf[c] = sheet.Cell{Value: sheet.Number(float64(r*cols + c))}
		}
		if err := rom.AppendRow(buf); err != nil {
			b.Fatal(err)
		}
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
	for r := 1; r <= rows; r++ {
		for c := 1; c <= cols; c++ {
			if density >= 1 || rng.Float64() < density {
				if err := rcv.Update(r, c, sheet.Cell{Value: sheet.Number(float64(r))}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	return rcv
}

func BenchmarkROMGetCellsViewport(b *testing.B) {
	rom := benchROM(b, 10_000, 50)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r0 := rng.Intn(9_900) + 1
		if _, err := rom.GetCells(sheet.NewRange(r0, 1, r0+49, 20)); err != nil {
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

func BenchmarkROMUpdateCell(b *testing.B) {
	rom := benchROM(b, 10_000, 50)
	rng := rand.New(rand.NewSource(1))
	cell := sheet.Cell{Value: sheet.Number(42)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rom.Update(rng.Intn(10_000)+1, rng.Intn(50)+1, cell); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRCVGetCellsViewport(b *testing.B) {
	rcv := benchRCV(b, 10_000, 50, 0.3)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r0 := rng.Intn(9_900) + 1
		if _, err := rcv.GetCells(sheet.NewRange(r0, 1, r0+49, 20)); err != nil {
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
		if err := rcv.Update(rng.Intn(10_000)+1, rng.Intn(50)+1, cell); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkROMAppendRowBulk(b *testing.B) {
	rom := benchROM(b, 100, 50)
	buf := make([]sheet.Cell, 50)
	for c := range buf {
		buf[c] = sheet.Cell{Value: sheet.Number(float64(c))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rom.AppendRow(buf); err != nil {
			b.Fatal(err)
		}
	}
}

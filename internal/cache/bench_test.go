package cache

import (
	"testing"

	"dataspread/internal/sheet"
)

// funcBacking computes every cell from its position: no map behind it, so a
// load costs only the tile it fills.
type funcBacking func(sheet.Ref) sheet.Cell

func (f funcBacking) LoadBlock(g sheet.Range, t Tile) error {
	for i := 0; i < g.Rows(); i++ {
		for j := 0; j < g.Cols(); j++ {
			cell := f(sheet.Ref{Row: g.From.Row + i, Col: g.From.Col + j})
			t.Set(i, j, cell.Value)
			t.SetFormula(i, j, cell.Formula)
		}
	}
	return nil
}

// denseNumbers is a sheet with a number in every cell.
var denseNumbers = funcBacking(func(r sheet.Ref) sheet.Cell {
	return sheet.Cell{Value: sheet.Number(float64(r.Row*1000 + r.Col))}
})

// BenchmarkCacheReadRangeWarm reads a resident 50x10 viewport that straddles
// tile boundaries.
func BenchmarkCacheReadRangeWarm(b *testing.B) {
	c := New(denseNumbers, 16)
	g := sheet.NewRange(40, 10, 89, 19)
	c.ReadRange(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ReadRange(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheVisitRange streams one resident 16-cell row.
func BenchmarkCacheVisitRange(b *testing.B) {
	c := New(denseNumbers, 16)
	g := sheet.NewRange(70, 1, 70, BlockCols)
	c.ReadRange(g)
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		c.VisitRange(g, func(sheet.Ref, sheet.Cell) bool { n++; return true })
	}
	if n != b.N*BlockCols {
		b.Fatalf("visited %d cells, want %d", n, b.N*BlockCols)
	}
}

// BenchmarkCachePublish publishes a 256x16 batch of numbers into resident
// tiles.
func BenchmarkCachePublish(b *testing.B) {
	c := New(denseNumbers, 16)
	g := sheet.NewRange(1, 1, 4*BlockRows, BlockCols)
	c.ReadRange(g)
	writes := make([]sheet.CellWrite, 0, g.Area())
	for row := g.From.Row; row <= g.To.Row; row++ {
		for col := g.From.Col; col <= g.To.Col; col++ {
			writes = append(writes, write(sheet.Ref{Row: row, Col: col}, sheet.Cell{Value: sheet.Number(float64(row))}))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Publish(writes, nil, nil, nil)
	}
}

package model

import (
	"sync"

	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// Shared plumbing for the batched read path: every translator's ReadCells is
// built on rdbms.Table.GetMany (one buffer-pool pin per heap page per range,
// attributes outside the range never decoded) with tuple pointers pulled
// through posmap.FetchRangeInto into a pooled buffer, and hands each decoded
// value to its caller's visitor, so a scrolling workload's hot loop builds no
// grid: the cell cache decodes a tile straight into its typed columns.

// CellReader is a range read: a Translator or the HybridStore. ReadCells calls
// fn once for each non-blank cell of g, with coordinates relative to g, and
// returns the first failure (a damaged datum, an unreadable page).
type CellReader interface {
	ReadCells(g sheet.Range, fn func(i, j int, v sheet.Value)) error
}

// GetCells materializes g from r as a dense row-major grid of g.Rows() x
// g.Cols() cells, blank cells as zero values, backed by one flat slice. A
// point read is the 1×1 range.
func GetCells(r CellReader, g sheet.Range) ([][]sheet.Cell, error) {
	rows, cols := g.Rows(), g.Cols()
	if rows <= 0 || cols <= 0 {
		rows, cols = 0, 0
	}
	flat, out := make([]sheet.Cell, rows*cols), make([][]sheet.Cell, rows)
	for i := range out {
		out[i] = flat[i*cols : (i+1)*cols : (i+1)*cols]
	}
	if err := r.ReadCells(g, func(i, j int, v sheet.Value) { out[i][j].Value = v }); err != nil {
		return nil, err
	}
	return out, nil
}

// ridBufPool recycles tuple-pointer buffers for range reads. ReadCells is
// re-entrant across goroutines (concurrent readers), so the scratch cannot
// live on the translator.
var ridBufPool = sync.Pool{New: func() any { return new([]rdbms.RID) }}

func getRIDBuf() *[]rdbms.RID { return ridBufPool.Get().(*[]rdbms.RID) }

func putRIDBuf(b *[]rdbms.RID) {
	*b = (*b)[:0]
	ridBufPool.Put(b)
}

// sortProjPairs sorts proj ascending (as decodeRowColsInto requires),
// permuting offs in step. Projections are small and — colPos starts as the
// identity — usually already sorted, so a binary insertion sort beats the
// generic sort's allocation.
func sortProjPairs(proj, offs []int) {
	for i := 1; i < len(proj); i++ {
		p, o := proj[i], offs[i]
		j := i
		for j > 0 && proj[j-1] > p {
			proj[j], offs[j] = proj[j-1], offs[j-1]
			j--
		}
		proj[j], offs[j] = p, o
	}
}

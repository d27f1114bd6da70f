package model

import (
	"dataspread/internal/hybrid"
	"dataspread/internal/sheet"
)

// COM is the column-oriented translator (Section IV-B): one database tuple
// per spreadsheet column — the transpose of ROM. It is implemented as a
// coordinate-transposing adapter over ROM, so every positional-mapping and
// schema-indirection property of ROM carries over with rows and columns
// swapped.
type COM struct {
	inner *ROM
}

// NewCOM creates an empty COM region of the given height (number of
// spreadsheet rows; each backing tuple has one attribute per row).
func NewCOM(cfg Config, rows int) (*COM, error) {
	inner, err := NewROM(cfg, rows)
	if err != nil {
		return nil, err
	}
	return &COM{inner: inner}, nil
}

// Kind implements Translator.
func (c *COM) Kind() hybrid.Kind { return hybrid.COM }

// Rows implements Translator (the transposed inner's column count).
func (c *COM) Rows() int { return c.inner.Cols() }

// Cols implements Translator (the transposed inner's row count).
func (c *COM) Cols() int { return c.inner.Rows() }

// ReadCells implements Translator: the inner ROM's read of the transposed
// range, each cell's offsets swapped back.
func (c *COM) ReadCells(g sheet.Range, fn func(i, j int, v sheet.Value)) error {
	return c.inner.ReadCells(transposeRange(g), func(i, j int, v sheet.Value) { fn(j, i, v) })
}

// UpdateCells implements Translator: the inner ROM's write of the transposed
// batch, so each touched column tuple is written once (columns grow on
// demand).
func (c *COM) UpdateCells(ws []CellWrite) error { return c.inner.UpdateCells(transpose(ws)) }

func (c *COM) refuse(ws []CellWrite) error { return c.inner.refuse(transpose(ws)) }

// transpose swaps each write's row and column.
func transpose(ws []CellWrite) []CellWrite {
	t := make([]CellWrite, len(ws))
	for i, w := range ws {
		t[i] = CellWrite{Row: w.Col, Col: w.Row, Cell: w.Cell}
	}
	return t
}

// Shift implements Translator: the inner ROM's shift on the other axis.
func (c *COM) Shift(rows bool, at, delta int) error { return c.inner.Shift(!rows, at, delta) }

// StorageBytes implements Translator.
func (c *COM) StorageBytes() int64 { return c.inner.StorageBytes() }

// Drop implements Translator.
func (c *COM) Drop() error { return c.inner.Drop() }

func transposeRange(g sheet.Range) sheet.Range {
	return sheet.NewRange(g.From.Col, g.From.Row, g.To.Col, g.To.Row)
}

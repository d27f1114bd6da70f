// Package rdbms is a from-scratch, single-node row store that stands in for
// the PostgreSQL back-end of the DataSpread paper, with the cost shape the
// paper's storage experiments depend on: slotted 8 KiB pages, a fixed
// per-tuple header, per-column catalog overhead, a buffer pool with LRU
// eviction, B+ tree indexes, and a small SQL engine (SELECT with WHERE / JOIN
// / GROUP BY / ORDER BY / LIMIT, '?' parameters, basic DML/DDL).
//
// A DB sits on one pager: checksummed pages in one data file, a
// write-ahead log of page images and deltas fsynced at FlushWAL, replayed on
// open and folded into the file by Checkpoint, with scrub, vacuum and online
// backup beside it. OpenFile's files are on disk; Open's live in memory,
// private to the DB, and nothing survives the process.
package rdbms

import (
	"fmt"
	"strconv"
	"strings"
)

// DType enumerates column/datum types.
type DType uint8

const (
	// DTNull is the type of the NULL datum.
	DTNull DType = iota
	// DTInt is a 64-bit signed integer.
	DTInt
	// DTFloat is a 64-bit float.
	DTFloat
	// DTText is a variable-length string.
	DTText
	// DTBool is a boolean.
	DTBool
	// DTAny is a column type only, never a datum's: the column admits any
	// datum. Spreadsheet cell columns are declared with it.
	DTAny
)

// String names the type in SQL spelling.
func (t DType) String() string {
	switch t {
	case DTNull:
		return "NULL"
	case DTInt:
		return "BIGINT"
	case DTFloat:
		return "DOUBLE"
	case DTText:
		return "TEXT"
	case DTBool:
		return "BOOLEAN"
	case DTAny:
		return "ANY"
	}
	return fmt.Sprintf("DType(%d)", uint8(t))
}

// Datum is a single typed value in a row. The zero Datum is NULL.
type Datum struct {
	typ DType
	i   int64
	f   float64
	s   string
}

// Null is the NULL datum.
var Null = Datum{}

// Int returns an integer datum.
func Int(v int64) Datum { return Datum{typ: DTInt, i: v} }

// Float returns a float datum.
func Float(v float64) Datum { return Datum{typ: DTFloat, f: v} }

// Text returns a text datum.
func Text(v string) Datum { return Datum{typ: DTText, s: v} }

// Bool returns a boolean datum.
func Bool(v bool) Datum {
	d := Datum{typ: DTBool}
	if v {
		d.i = 1
	}
	return d
}

// Type reports the datum's type.
func (d Datum) Type() DType { return d.typ }

// IsNull reports whether the datum is NULL.
func (d Datum) IsNull() bool { return d.typ == DTNull }

// Int64 returns the integer content (floats truncate).
func (d Datum) Int64() int64 {
	if d.typ == DTFloat {
		return int64(d.f)
	}
	return d.i
}

// Float64 returns the numeric content as float64.
func (d Datum) Float64() float64 {
	if d.typ == DTFloat {
		return d.f
	}
	return float64(d.i)
}

// Str returns the text content.
func (d Datum) Str() string { return d.s }

// BoolVal returns the boolean content (nonzero numerics are true).
func (d Datum) BoolVal() bool {
	if d.typ == DTFloat {
		return d.f != 0
	}
	return d.i != 0
}

// IsNumeric reports whether the datum is an int or float.
func (d Datum) IsNumeric() bool { return d.typ == DTInt || d.typ == DTFloat }

// String renders the datum for display.
func (d Datum) String() string {
	switch d.typ {
	case DTNull:
		return "NULL"
	case DTInt:
		return strconv.FormatInt(d.i, 10)
	case DTFloat:
		return strconv.FormatFloat(d.f, 'g', -1, 64)
	case DTText:
		return d.s
	case DTBool:
		if d.i != 0 {
			return "true"
		}
		return "false"
	}
	return "?"
}

// Compare orders two datums. NULL sorts first; numerics compare numerically
// across int/float; cross-type otherwise compares by type tag.
func (d Datum) Compare(o Datum) int {
	if d.typ == DTNull || o.typ == DTNull {
		return int(boolToInt(o.typ == DTNull)) - int(boolToInt(d.typ == DTNull))
	}
	if d.IsNumeric() && o.IsNumeric() {
		a, b := d.Float64(), o.Float64()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	if d.typ != o.typ {
		return int(d.typ) - int(o.typ)
	}
	switch d.typ {
	case DTText:
		return strings.Compare(d.s, o.s)
	case DTBool:
		return int(d.i - o.i)
	}
	return 0
}

// Equal reports SQL equality (NULL is not equal to anything, including NULL;
// use Compare for sorting semantics).
func (d Datum) Equal(o Datum) bool {
	if d.typ == DTNull || o.typ == DTNull {
		return false
	}
	return d.Compare(o) == 0
}

// Row is a tuple of datums, positionally matched to a Schema.
type Row []Datum

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Column describes one attribute of a table.
type Column struct {
	Name string
	Type DType
}

// Schema is an ordered list of columns.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema from (name, type) pairs.
func NewSchema(cols ...Column) Schema { return Schema{Cols: cols} }

// Arity returns the number of columns.
func (s Schema) Arity() int { return len(s.Cols) }

// ColIndex returns the position of the named column (case-insensitive), or
// -1 when absent.
func (s Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

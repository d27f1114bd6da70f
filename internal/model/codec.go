package model

import (
	"fmt"
	"math"

	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// A cell is stored as the row codec's own typed datum, one encoding per cell.
// The datum is the cell's value alone: a formula's source lives in the
// engine's run registry and its persisted formula set, never in the cell.
//
//	blank                     NULL
//	number                    DTInt when it is an integer of magnitude below
//	                          2^53 and not -0 (a varint), else DTFloat; always
//	                          DTFloat in a formula cell
//	formula not evaluated     DTFloat holding unevaluatedBits
//	bool                      DTBool
//	string or error           DTText: tagString/tagError, then the text
//
// A formula cell's number and its not-yet-evaluated state are the same nine
// bytes, so a recalculation that yields another number — the first one
// included — rewrites its tuple in place whatever the digits; only a string,
// error or bool result changes the tuple's width.
const (
	tagString = 's'
	tagError  = 'x'

	// unevaluatedBits is a signalling NaN: arithmetic never yields one, and a
	// number that carries it anyway (set or copied) is stored as math.NaN(),
	// so no number a cell holds is mistaken for it.
	unevaluatedBits = 0x7ff4_0000_0000_0000
	// maxExactInt bounds the integers float64 holds exactly: 2^53.
	maxExactInt = 1 << 53
)

// encodeCell converts a cell to its stored datum; of the formula it keeps
// only that there is one.
func encodeCell(c sheet.Cell) rdbms.Datum {
	v := c.Value
	switch k, f, _ := v.Parts(); k {
	case sheet.KindNumber:
		if c.Formula == "" && -maxExactInt < f && f < maxExactInt && f == math.Trunc(f) && !(f == 0 && math.Signbit(f)) {
			return rdbms.Int(int64(f))
		}
		if math.Float64bits(f) == unevaluatedBits {
			f = math.NaN() // a copied sentinel: keep it a number
		}
		return rdbms.Float(f)
	case sheet.KindBool:
		return rdbms.Bool(f != 0)
	case sheet.KindString:
		return rdbms.Text(string(tagString) + v.Text())
	case sheet.KindError:
		return rdbms.Text(string(tagError) + v.Text())
	}
	if c.Formula != "" {
		return rdbms.Float(math.Float64frombits(unevaluatedBits))
	}
	return rdbms.Null
}

// cellAt decodes attribute col of the tuple at rid. A datum that is no cell
// fails the read naming all three: it is damage, never a blank.
func cellAt(t *rdbms.Table, rid rdbms.RID, col int, d rdbms.Datum) (sheet.Value, error) {
	v, err := decodeCell(d)
	if err != nil {
		err = fmt.Errorf("table %q rid %v column %s: %w", t.Name, rid, t.Schema.Cols[col].Name, err)
	}
	return v, err
}

// decodeCell parses a stored datum back into a cell's value. A text datum
// encodeCell cannot have produced — no tag, an unknown one — is an error
// naming the tag.
func decodeCell(d rdbms.Datum) (sheet.Value, error) {
	switch d.Type() {
	case rdbms.DTNull:
		return sheet.Empty, nil
	case rdbms.DTInt:
		return sheet.Number(d.Float64()), nil
	case rdbms.DTFloat:
		if f := d.Float64(); math.Float64bits(f) != unevaluatedBits {
			return sheet.Number(f), nil
		}
		return sheet.Empty, nil
	case rdbms.DTBool:
		return sheet.Bool(d.BoolVal()), nil
	}
	s := d.Str()
	if s == "" {
		return sheet.Empty, fmt.Errorf("model: empty cell encoding")
	}
	switch tag := s[0]; tag {
	case tagString:
		return sheet.Str(s[1:]), nil
	case tagError:
		return sheet.Errorf(s[1:]), nil
	default:
		return sheet.Empty, fmt.Errorf("model: unknown cell tag %q", tag)
	}
}

package model

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// A cell is stored as the row codec's own typed datum, one encoding per cell:
//
//	blank                         NULL
//	number, no formula            DTInt when it is an integer of magnitude below
//	                              2^53 and not -0 (a varint), else DTFloat
//	bool, no formula              DTBool
//	string or error, no formula   DTText: tagString/tagError, then the text
//	formula cell                  DTText: tag of the value's kind, value slot,
//	                              then the formula source to the datum's end
//
// The value slot of a formula cell is valueSlot bytes for tagNumber (the IEEE
// bits), tagBool (those of 0 or 1) and tagEmpty (not evaluated yet, zeroes),
// so a recalculation that yields another number rewrites its tuple in place
// whatever the digits; only a string or error result (tagFormulaString,
// tagFormulaError: uvarint length, then the text) changes the tuple's width.
// The datum frames the formula source, so nothing is escaped.
const (
	tagString        = 's'
	tagError         = 'x'
	tagNumber        = 'N'
	tagBool          = 'B'
	tagEmpty         = 'E'
	tagFormulaString = 'S'
	tagFormulaError  = 'X'

	valueSlot = 8
	// maxExactInt bounds the integers float64 holds exactly: 2^53.
	maxExactInt = 1 << 53
)

// encodeCell converts a cell to its stored datum.
func encodeCell(c sheet.Cell) rdbms.Datum {
	v := c.Value
	var f float64
	if v.Kind() != sheet.KindString {
		f, _ = v.Num() // the number, a bool's 0 or 1, else 0; a string's would be parsed
	}
	if c.Formula == "" {
		switch v.Kind() {
		case sheet.KindNumber:
			if -maxExactInt < f && f < maxExactInt && f == math.Trunc(f) && !(f == 0 && math.Signbit(f)) {
				return rdbms.Int(int64(f))
			}
			return rdbms.Float(f)
		case sheet.KindBool:
			return rdbms.Bool(f != 0)
		case sheet.KindString:
			return rdbms.Text(string(tagString) + v.Text())
		case sheet.KindError:
			return rdbms.Text(string(tagError) + v.Text())
		}
		return rdbms.Null
	}
	var sb strings.Builder
	var slot [binary.MaxVarintLen64]byte
	switch v.Kind() {
	case sheet.KindString, sheet.KindError:
		tag, text := byte(tagFormulaString), v.Text()
		if v.IsError() {
			tag = tagFormulaError
		}
		sb.Grow(1 + len(slot) + len(text) + len(c.Formula))
		sb.WriteByte(tag)
		sb.Write(slot[:binary.PutUvarint(slot[:], uint64(len(text)))])
		sb.WriteString(text)
	default:
		tag := byte(tagEmpty)
		switch v.Kind() {
		case sheet.KindNumber:
			tag = tagNumber
		case sheet.KindBool:
			tag = tagBool
		}
		binary.LittleEndian.PutUint64(slot[:], math.Float64bits(f))
		sb.Grow(1 + valueSlot + len(c.Formula))
		sb.WriteByte(tag)
		sb.Write(slot[:valueSlot])
	}
	sb.WriteString(c.Formula)
	return rdbms.Text(sb.String())
}

// cellAt decodes attribute col of the tuple at rid. A datum that is no cell
// fails the read naming all three: it is damage, never a blank.
func cellAt(t *rdbms.Table, rid rdbms.RID, col int, d rdbms.Datum) (sheet.Cell, error) {
	c, err := decodeCell(d)
	if err != nil {
		err = fmt.Errorf("table %q rid %v column %s: %w", t.Name, rid, t.Schema.Cols[col].Name, err)
	}
	return c, err
}

// decodeCell parses a stored datum back into a cell. A datum encodeCell
// cannot have produced — an unknown tag, a value slot cut short, a formula
// tag with no formula after it — is an error naming the tag.
func decodeCell(d rdbms.Datum) (sheet.Cell, error) {
	switch d.Type() {
	case rdbms.DTNull:
		return sheet.Cell{}, nil
	case rdbms.DTInt, rdbms.DTFloat:
		return sheet.Cell{Value: sheet.Number(d.Float64())}, nil
	case rdbms.DTBool:
		return sheet.Cell{Value: sheet.Bool(d.BoolVal())}, nil
	}
	s := d.Str()
	if s == "" {
		return sheet.Cell{}, fmt.Errorf("model: empty cell encoding")
	}
	var v sheet.Value
	rest := s[1:]
	switch tag := s[0]; tag {
	case tagString:
		return sheet.Cell{Value: sheet.Str(rest)}, nil
	case tagError:
		return sheet.Cell{Value: sheet.Errorf(rest)}, nil
	case tagNumber, tagBool, tagEmpty:
		if len(rest) < valueSlot {
			return sheet.Cell{}, fmt.Errorf("model: cell tag %q: value slot of %d bytes, not %d", tag, len(rest), valueSlot)
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64([]byte(rest[:valueSlot])))
		switch tag {
		case tagNumber:
			v = sheet.Number(f)
		case tagBool:
			v = sheet.Bool(f != 0)
		}
		rest = rest[valueSlot:]
	case tagFormulaString, tagFormulaError:
		n, sz := binary.Uvarint([]byte(rest[:min(len(rest), binary.MaxVarintLen64)]))
		if sz <= 0 || n > uint64(len(rest)-sz) {
			return sheet.Cell{}, fmt.Errorf("model: cell tag %q: value runs past the datum", tag)
		}
		text := rest[sz : sz+int(n)]
		if v = sheet.Str(text); tag == tagFormulaError {
			v = sheet.Errorf(text)
		}
		rest = rest[sz+int(n):]
	default:
		return sheet.Cell{}, fmt.Errorf("model: unknown cell tag %q", tag)
	}
	if rest == "" {
		return sheet.Cell{}, fmt.Errorf("model: cell tag %q: no formula source", s[0])
	}
	return sheet.Cell{Value: v, Formula: rest}, nil
}

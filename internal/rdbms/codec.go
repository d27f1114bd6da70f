package rdbms

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// decodedAttrs counts attribute values materialized by the row decoders. It
// is the observable signal that projection pushdown works: a k-column read
// over an n-column table must grow it by O(k), not O(n), per row. Tests
// assert on it via DecodedAttrCount/ResetDecodedAttrCount.
var decodedAttrs atomic.Int64

// DecodedAttrCount returns the cumulative number of attribute values
// materialized by decodeRow/decodeRowColsInto since the last reset.
func DecodedAttrCount() int64 { return decodedAttrs.Load() }

// ResetDecodedAttrCount zeroes the decode counter (test/bench hook).
func ResetDecodedAttrCount() { decodedAttrs.Store(0) }

// Row wire format (within a page tuple):
//
//	uvarint column count
//	per column: 1 type byte, then payload:
//	    DTNull  -> nothing
//	    DTInt   -> varint
//	    DTFloat -> 8 bytes IEEE-754 little-endian
//	    DTText  -> uvarint length + bytes
//	    DTBool  -> 1 byte
//
// The codec is self-describing so heap tuples can be decoded without the
// schema, which keeps tombstoned or migrated tuples recoverable.

// encodeRow appends the row encoding to dst and returns the result.
func encodeRow(dst []byte, r Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for _, d := range r {
		dst = append(dst, byte(d.typ))
		switch d.typ {
		case DTNull:
		case DTInt:
			dst = binary.AppendVarint(dst, d.i)
		case DTFloat:
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(d.f))
			dst = append(dst, b[:]...)
		case DTText:
			dst = binary.AppendUvarint(dst, uint64(len(d.s)))
			dst = append(dst, d.s...)
		case DTBool:
			dst = append(dst, byte(d.i))
		}
	}
	return dst
}

// decodeRow parses a row from buf into dst, reused when it has the capacity
// (nil allocates a fresh row).
func decodeRow(buf []byte, dst Row) (Row, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, fmt.Errorf("rdbms: corrupt tuple header")
	}
	buf = buf[sz:]
	if n > 1<<20 {
		return nil, fmt.Errorf("rdbms: implausible column count %d", n)
	}
	row := slices.Grow(dst[:0], int(n))
	for i := uint64(0); i < n; i++ {
		if len(buf) == 0 {
			return nil, fmt.Errorf("rdbms: truncated tuple at column %d", i)
		}
		typ := DType(buf[0])
		buf = buf[1:]
		switch typ {
		case DTNull:
			row = append(row, Null)
		case DTInt:
			v, sz := binary.Varint(buf)
			if sz <= 0 {
				return nil, fmt.Errorf("rdbms: corrupt int at column %d", i)
			}
			buf = buf[sz:]
			row = append(row, Int(v))
		case DTFloat:
			if len(buf) < 8 {
				return nil, fmt.Errorf("rdbms: corrupt float at column %d", i)
			}
			row = append(row, Float(math.Float64frombits(binary.LittleEndian.Uint64(buf))))
			buf = buf[8:]
		case DTText:
			l, sz := binary.Uvarint(buf)
			if sz <= 0 || uint64(len(buf)-sz) < l {
				return nil, fmt.Errorf("rdbms: corrupt text at column %d", i)
			}
			buf = buf[sz:]
			row = append(row, Text(string(buf[:l])))
			buf = buf[l:]
		case DTBool:
			if len(buf) < 1 {
				return nil, fmt.Errorf("rdbms: corrupt bool at column %d", i)
			}
			row = append(row, Bool(buf[0] != 0))
			buf = buf[1:]
		default:
			return nil, fmt.Errorf("rdbms: unknown datum type %d at column %d", typ, i)
		}
	}
	decodedAttrs.Add(int64(len(row)))
	return row, nil
}

// decodeRowColsInto is the projection-pushdown decoder: it parses only the
// attributes whose indexes appear in proj (sorted ascending, no duplicates)
// and skips the encoded payload of everything else — in particular, skipped
// text attributes never allocate a string. Attributes past the end of a
// short (pre-AddColumn) tuple decode as NULL, matching the padding the
// callers apply after a full decode. dst is reused when it has capacity; the
// returned row has len(proj) entries, vals[k] holding attribute proj[k].
func decodeRowColsInto(buf []byte, proj []int, dst Row) (Row, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, fmt.Errorf("rdbms: corrupt tuple header")
	}
	buf = buf[sz:]
	if n > 1<<20 {
		return nil, fmt.Errorf("rdbms: implausible column count %d", n)
	}
	if cap(dst) >= len(proj) {
		dst = dst[:len(proj)]
	} else {
		dst = make(Row, len(proj))
	}
	k := 0 // next projection entry to satisfy
	for i := 0; i < int(n) && k < len(proj); i++ {
		if len(buf) == 0 {
			return nil, fmt.Errorf("rdbms: truncated tuple at column %d", i)
		}
		typ := DType(buf[0])
		buf = buf[1:]
		want := proj[k] == i
		var d Datum
		switch typ {
		case DTNull:
			d = Null
		case DTInt:
			v, sz := binary.Varint(buf)
			if sz <= 0 {
				return nil, fmt.Errorf("rdbms: corrupt int at column %d", i)
			}
			buf = buf[sz:]
			if want {
				d = Int(v)
			}
		case DTFloat:
			if len(buf) < 8 {
				return nil, fmt.Errorf("rdbms: corrupt float at column %d", i)
			}
			if want {
				d = Float(math.Float64frombits(binary.LittleEndian.Uint64(buf)))
			}
			buf = buf[8:]
		case DTText:
			l, sz := binary.Uvarint(buf)
			if sz <= 0 || uint64(len(buf)-sz) < l {
				return nil, fmt.Errorf("rdbms: corrupt text at column %d", i)
			}
			buf = buf[sz:]
			if want {
				d = Text(string(buf[:l]))
			}
			buf = buf[l:]
		case DTBool:
			if len(buf) < 1 {
				return nil, fmt.Errorf("rdbms: corrupt bool at column %d", i)
			}
			if want {
				d = Bool(buf[0] != 0)
			}
			buf = buf[1:]
		default:
			return nil, fmt.Errorf("rdbms: unknown datum type %d at column %d", typ, i)
		}
		if want {
			dst[k] = d
			k++
		}
	}
	decodedAttrs.Add(int64(k))
	// Short tuple: requested attributes beyond the encoding pad with NULL.
	for ; k < len(proj); k++ {
		dst[k] = Null
	}
	return dst, nil
}

// encodedSize returns the byte size of the row encoding without
// materializing it.
func encodedSize(r Row) int {
	n := uvarintLen(uint64(len(r)))
	for _, d := range r {
		n++ // type byte
		switch d.typ {
		case DTInt:
			n += varintLen(d.i)
		case DTFloat:
			n += 8
		case DTText:
			n += uvarintLen(uint64(len(d.s))) + len(d.s)
		case DTBool:
			n++
		}
	}
	return n
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func varintLen(v int64) int {
	uv := uint64(v) << 1
	if v < 0 {
		uv = ^uv
	}
	return uvarintLen(uv)
}

// AppendRecord frames one record of a manifest value — the catalog root, a
// schema record, the store and engine manifests of internal/model and
// internal/core: the row's encoded length, then the row.
func AppendRecord(dst []byte, r Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(encodedSize(r)))
	return encodeRow(dst, r)
}

// NextRecord decodes the record at the front of buf and returns the bytes
// after it. The frame must hold exactly one canonically encoded row.
func NextRecord(buf []byte) (*RecordReader, []byte, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || n > uint64(len(buf)-sz) {
		return nil, nil, fmt.Errorf("record frame of %d bytes runs past the %d that remain", n, len(buf))
	}
	frame := buf[sz : sz+int(n)]
	row, err := decodeRow(frame, nil)
	if err != nil {
		return nil, nil, err
	}
	if encodedSize(row) != len(frame) {
		return nil, nil, fmt.Errorf("record frame of %d bytes holds a %d-byte row", len(frame), encodedSize(row))
	}
	return &RecordReader{row: row}, buf[sz+int(n):], nil
}

// RecordReader hands out the datums of one decoded record in order. A datum
// that is missing or of the wrong type sets Err; callers check it (or Done)
// once they have read what the record must hold.
type RecordReader struct {
	row Row
	i   int
	Err error
}

func (r *RecordReader) next(want DType) Datum {
	if r.i >= len(r.row) || r.row[r.i].typ != want {
		if r.Err == nil {
			r.Err = fmt.Errorf("datum %d is missing or not %v", r.i, want)
		}
		return Datum{}
	}
	r.i++
	return r.row[r.i-1]
}

// Int and Text return the next datum, which must be of that type.
func (r *RecordReader) Int() int64   { return r.next(DTInt).i }
func (r *RecordReader) Text() string { return r.next(DTText).s }

// More reports whether datums remain (false once an error is set).
func (r *RecordReader) More() bool { return r.Err == nil && r.i < len(r.row) }

// Done ends a record of fixed length: Err, or an error if datums remain.
func (r *RecordReader) Done() error {
	if r.More() {
		return fmt.Errorf("%d datums where %d belong", len(r.row), r.i)
	}
	return r.Err
}

// EachRecord decodes a manifest value record by record, handing fn each
// record and its index, and returns how many there were. A frame that does
// not hold one row (a trailing byte is one), a datum fn asked for that is
// missing or of another type, and a datum fn left unread all end the walk
// with an error naming the record.
func EachRecord(blob []byte, fn func(i int, rec *RecordReader) error) (int, error) {
	n := 0
	for ; len(blob) > 0; n++ {
		rec, rest, err := NextRecord(blob)
		if err == nil {
			// A datum that was not there comes before what fn made of its zero.
			if err = fn(n, rec); rec.Err != nil || err == nil {
				err = rec.Done()
			}
		}
		if err != nil {
			return n, fmt.Errorf("record %d: %w", n, err)
		}
		blob = rest
	}
	return n, nil
}

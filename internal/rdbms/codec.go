package rdbms

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

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

// rowHeader parses a row encoding's attribute count and returns it with the
// bytes after it.
func rowHeader(buf []byte) (int, []byte, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return 0, nil, fmt.Errorf("rdbms: corrupt tuple header")
	}
	if n > 1<<20 {
		return 0, nil, fmt.Errorf("rdbms: implausible column count %d", n)
	}
	return int(n), buf[sz:], nil
}

// walkAttrs is the one datum-width walk, behind a manifest record's frame
// check, a chained tuple's stop test and the projected decoder's skipped
// attributes. It steps over up to n attributes of a row encoding from the
// front of buf and returns how many it stepped over and the bytes they take,
// stopping early at a datum buf does not hold whole or whose type is unknown
// (attrErr says which). loose reports a varint it stepped over that is not
// minimal, so the encoding is not canonical.
func walkAttrs(buf []byte, n int) (count, size int, loose bool) {
	for ; count < n && size < len(buf); count++ {
		b := buf[size:]
		w := 0 // the datum's width; 0 while it is not known to be whole
		switch DType(b[0]) {
		case DTNull:
			w = 1
		case DTInt:
			if _, sz := binary.Varint(b[1:]); sz > 0 {
				w, loose = 1+sz, loose || sz > 1 && b[sz] == 0
			}
		case DTFloat:
			w = 9
		case DTText:
			if l, sz := binary.Uvarint(b[1:]); sz > 0 && uint64(len(b)-1-sz) >= l {
				w, loose = 1+sz+int(l), loose || sz > 1 && b[sz] == 0
			}
		case DTBool:
			w = 2
		}
		if w == 0 || w > len(b) {
			break
		}
		size += w
	}
	return count, size, loose
}

// attrErr is the error of the datum at the front of buf that walkAttrs
// stopped at, attribute i of its row — the message the decoders give it.
func attrErr(buf []byte, i int) error {
	if len(buf) == 0 {
		return fmt.Errorf("rdbms: truncated tuple at column %d", i)
	}
	if typ := DType(buf[0]); typ > DTNull && typ < DTAny {
		return fmt.Errorf("rdbms: corrupt %s at column %d", [...]string{DTInt: "int", DTFloat: "float", DTText: "text", DTBool: "bool"}[typ], i)
	}
	return fmt.Errorf("rdbms: unknown datum type %d at column %d", buf[0], i)
}

// decodeRow parses a row from buf into dst, reused when it has the capacity
// (nil allocates a fresh row).
func decodeRow(buf []byte, dst Row) (Row, error) {
	n, buf, err := rowHeader(buf)
	if err != nil {
		return nil, err
	}
	row, _, err := decodeRun(buf, 0, n, slices.Grow(dst[:0], n))
	return row, err
}

// decodeRun materializes n consecutive attributes of a row encoding, the
// first of which is attribute i and starts buf, appending them to dst. It
// returns dst and the bytes after the run.
func decodeRun(buf []byte, i, n int, dst Row) (Row, []byte, error) {
	for end := i + n; i < end; i++ {
		if len(buf) == 0 {
			return nil, nil, attrErr(buf, i)
		}
		b := buf[1:]
		switch DType(buf[0]) {
		case DTNull:
			dst = append(dst, Null)
		case DTInt:
			v, sz := binary.Varint(b)
			if sz <= 0 {
				return nil, nil, attrErr(buf, i)
			}
			dst, b = append(dst, Int(v)), b[sz:]
		case DTFloat:
			if len(b) < 8 {
				return nil, nil, attrErr(buf, i)
			}
			dst, b = append(dst, Float(math.Float64frombits(binary.LittleEndian.Uint64(b)))), b[8:]
		case DTText:
			l, sz := binary.Uvarint(b)
			if sz <= 0 || uint64(len(b)-sz) < l {
				return nil, nil, attrErr(buf, i)
			}
			dst, b = append(dst, Text(string(b[sz:sz+int(l)]))), b[sz+int(l):]
		case DTBool:
			if len(b) < 1 {
				return nil, nil, attrErr(buf, i)
			}
			dst, b = append(dst, Bool(b[0] != 0)), b[1:]
		default:
			return nil, nil, attrErr(buf, i)
		}
		buf = b
	}
	return dst, buf, nil
}

// decodeRowColsInto is the projection-pushdown decoder: it materializes only
// the attributes whose indexes appear in proj (sorted ascending, no
// duplicates), a run of consecutive ones at a time, and steps over the
// encoded payload of everything else with walkAttrs — in particular, skipped
// text attributes never allocate a string. It reads nothing past the last
// projected attribute, so buf may be a prefix of the encoding that holds it
// whole (a chained tuple read up to that chunk). Attributes past the end of
// a short (pre-AddColumn) tuple decode as NULL, matching the padding the
// callers apply after a full decode. dst is reused when it has capacity; the
// returned row has len(proj) entries, vals[k] holding attribute proj[k].
func decodeRowColsInto(buf []byte, proj []int, dst Row) (Row, error) {
	n, buf, err := rowHeader(buf)
	if err != nil {
		return nil, err
	}
	dst = slices.Grow(dst[:0], len(proj))
	for i, k := 0, 0; k < len(proj) && proj[k] < n; {
		if skip := proj[k] - i; skip > 0 {
			count, size, _ := walkAttrs(buf, skip)
			if count < skip {
				return nil, attrErr(buf[size:], i+count)
			}
			buf = buf[size:]
		}
		run := 1
		for k+run < len(proj) && proj[k+run] == proj[k]+run && proj[k+run] < n {
			run++
		}
		if dst, buf, err = decodeRun(buf, proj[k], run, dst); err != nil {
			return nil, err
		}
		k += run
		i = proj[k-1] + 1
	}
	// Short tuple: requested attributes beyond the encoding pad with NULL.
	for len(dst) < len(proj) {
		dst = append(dst, Null)
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

// NextRecord checks the record at the front of buf and returns a reader over
// it and the bytes after it. The frame must hold exactly one canonically
// encoded row; the check is one walk that builds nothing, and the reader
// parses each datum from the frame as it is asked for.
func NextRecord(buf []byte) (*RecordReader, []byte, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || n > uint64(len(buf)-sz) {
		return nil, nil, fmt.Errorf("record frame of %d bytes runs past the %d that remain", n, len(buf))
	}
	frame := buf[sz : sz+int(n)]
	count, body, err := rowHeader(frame)
	if err != nil {
		return nil, nil, err
	}
	walked, size, loose := walkAttrs(body, count)
	if walked < count {
		return nil, nil, attrErr(body[size:], walked)
	}
	if loose || size != len(body) || len(frame)-len(body) != uvarintLen(uint64(count)) {
		row, _ := decodeRow(frame, nil)
		return nil, nil, fmt.Errorf("record frame of %d bytes holds a %d-byte row", len(frame), encodedSize(row))
	}
	return &RecordReader{buf: body, n: count}, buf[sz+int(n):], nil
}

// RecordReader hands out the datums of one checked record in order, each
// parsed from the frame when it is asked for. A datum that is missing or of
// the wrong type sets Err; callers check it (or Done) once they have read
// what the record must hold.
type RecordReader struct {
	buf []byte // the encoding of the datums not read yet
	n   int    // datums in the record
	i   int
	Err error
}

// next steps past the type byte of the next datum and returns the bytes
// after it, if no error is set and the datum is there and of type typ
// (NextRecord checked that it is whole); else it sets Err and returns nil.
func (r *RecordReader) next(typ DType) []byte {
	if r.Err == nil && (r.i >= r.n || DType(r.buf[0]) != typ) {
		r.Err = fmt.Errorf("datum %d is missing or not %v", r.i, typ)
	}
	if r.Err != nil {
		return nil
	}
	r.i++
	return r.buf[1:]
}

// Int and Text return the next datum, which must be of that type, parsed
// straight from the frame.
func (r *RecordReader) Int() int64 {
	b := r.next(DTInt)
	v, sz := binary.Varint(b)
	r.buf = b[sz:]
	return v
}

func (r *RecordReader) Text() string {
	b := r.next(DTText)
	l, sz := binary.Uvarint(b)
	r.buf = b[sz+int(l):]
	return string(b[sz : sz+int(l)])
}

// More reports whether datums remain (false once an error is set).
func (r *RecordReader) More() bool { return r.Err == nil && r.i < r.n }

// Done ends a record of fixed length: Err, or an error if datums remain.
func (r *RecordReader) Done() error {
	if r.More() {
		return fmt.Errorf("%d datums where %d belong", r.n, r.i)
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

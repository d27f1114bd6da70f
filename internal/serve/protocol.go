// Package serve exposes a DATASPREAD database over TCP: a small
// length-prefixed binary protocol (open sheet, get-range, set-cells,
// structural edits, stats) served by one goroutine per connection, with
// generation-stamped snapshot reads so a scrolling viewport never blocks
// behind a bulk load (see internal/core/latch.go for the concurrency
// protocol).
package serve

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// Frame layout: a 4-byte big-endian payload length, then the payload.
// Request payloads start with an op byte; response payloads with a status
// byte (StatusOK / StatusErr). Integers are unsigned varints; strings are
// a uvarint length followed by the bytes.
const (
	// MaxFrame caps a frame payload (requests and responses). A get-range
	// response for the largest allowed range fits: MaxRangeCells cells at
	// a handful of bytes each.
	MaxFrame = 16 << 20
	// MaxRangeCells caps the area of one get-range request.
	MaxRangeCells = 1 << 20
	// MaxEdits caps one set-cells batch.
	MaxEdits = 1 << 18
)

// Request ops.
const (
	OpPing byte = iota + 1
	OpOpen
	OpClose
	OpGetRange
	OpSetCells
	OpInsertRows
	OpDeleteRows
	OpInsertCols
	OpDeleteCols
	OpStats
	// Maintenance ops (self-healing storage): run an online checksum scrub,
	// defragment the data file, or recover a poisoned database in place.
	OpScrub
	OpVacuum
	OpRecover
	// OpBackup streams an online backup of the server's database. The
	// response is a sequence of StatusChunk frames carrying the raw backup
	// stream, terminated by a StatusOK frame with a BackupResult (or a
	// StatusErr frame; the chunks received so far must be discarded).
	OpBackup
	// OpRegisterViewport registers (or moves) this session's viewport on a
	// sheet, so the background recalc scheduler evaluates those cells ahead
	// of the rest of the cone (LazyBrowsing). The payload is the sheet name
	// followed by r1,c1,r2,c2; an all-zero rectangle clears the
	// registration. Viewports are session-scoped: the server drops them
	// when the connection ends. A no-op on a synchronous server.
	OpRegisterViewport
)

// Response status.
const (
	StatusOK byte = iota
	StatusErr
	// StatusReadOnly reports a mutation rejected because the server's
	// database is in read-only degradation (poisoned by an I/O failure).
	// The client surfaces it as an error wrapping rdbms.ErrReadOnly.
	StatusReadOnly
	// StatusChunk carries one chunk of a streaming response (OpBackup);
	// the terminating frame is a plain StatusOK or StatusErr.
	StatusChunk
)

// Cell wire encoding: one flags byte — low nibble sheet.Kind, bit 4 set
// when a formula string follows the value, bit 5 set when the cell is
// pending (its displayed value predates an in-flight async recalc) — then
// the kind-specific value payload (number: 8-byte big-endian IEEE-754;
// string/error: string; bool: 1 byte; empty: nothing), then the formula
// string when flagged.
const (
	cellHasFormula = 0x10
	cellPending    = 0x20
)

func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("serve: frame of %d bytes exceeds cap %d", n, MaxFrame)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("serve: frame of %d bytes exceeds cap %d", len(payload), MaxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// decoder consumes a frame payload; the first decode error sticks.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("serve: truncated %s", what)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || len(d.b) == 0 {
		d.fail("byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// varint decodes a zigzag-signed varint (fault-rule Count can be negative).
func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// num returns a bounds-checked non-negative int.
func (d *decoder) num(what string, max int) int {
	v := d.uvarint()
	if d.err == nil && v > uint64(max) {
		d.err = fmt.Errorf("serve: %s %d exceeds cap %d", what, v, max)
	}
	return int(v)
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)) < n {
		d.fail("string")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) float() float64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail("float")
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *decoder) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("serve: %d trailing bytes in frame", len(d.b))
	}
	return nil
}

func appendCell(b []byte, c sheet.Cell, pending bool) []byte {
	flags := byte(c.Value.Kind())
	if c.Formula != "" {
		flags |= cellHasFormula
	}
	if pending {
		flags |= cellPending
	}
	b = append(b, flags)
	switch c.Value.Kind() {
	case sheet.KindNumber:
		f, _ := c.Value.Num()
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(f))
	case sheet.KindString, sheet.KindError:
		b = appendString(b, c.Value.Text())
	case sheet.KindBool:
		v, _ := c.Value.BoolVal()
		var bit byte
		if v {
			bit = 1
		}
		b = append(b, bit)
	}
	if c.Formula != "" {
		b = appendString(b, c.Formula)
	}
	return b
}

func (d *decoder) cell() (sheet.Cell, bool) {
	flags := d.byte()
	var c sheet.Cell
	kind := flags &^ (cellHasFormula | cellPending)
	switch sheet.Kind(kind) {
	case sheet.KindEmpty:
	case sheet.KindNumber:
		c.Value = sheet.Number(d.float())
	case sheet.KindString:
		c.Value = sheet.Str(d.str())
	case sheet.KindBool:
		c.Value = sheet.Bool(d.byte() != 0)
	case sheet.KindError:
		c.Value = sheet.Errorf(d.str())
	default:
		if d.err == nil {
			d.err = fmt.Errorf("serve: unknown cell kind %d", kind)
		}
	}
	if flags&cellHasFormula != 0 {
		c.Formula = d.str()
	}
	return c, flags&cellPending != 0
}

// appendRange encodes a get-range response body: generation, dimensions,
// then cells in row-major order. pending (nil = nothing pending) flags
// cells whose displayed value predates an in-flight async recalc.
func appendRange(b []byte, gen uint64, cells [][]sheet.Cell, pending [][]bool) []byte {
	b = binary.AppendUvarint(b, gen)
	rows := len(cells)
	cols := 0
	if rows > 0 {
		cols = len(cells[0])
	}
	b = binary.AppendUvarint(b, uint64(rows))
	b = binary.AppendUvarint(b, uint64(cols))
	for i, row := range cells {
		for j, c := range row {
			b = appendCell(b, c, pending != nil && pending[i][j])
		}
	}
	return b
}

// rangeBody decodes a get-range response: generation, cells, and the
// pending mask (nil when no cell in the range was flagged).
func (d *decoder) rangeBody() (uint64, [][]sheet.Cell, [][]bool) {
	gen := d.uvarint()
	rows := d.num("rows", MaxRangeCells)
	cols := d.num("cols", MaxRangeCells)
	if d.err != nil || rows*cols > MaxRangeCells {
		if d.err == nil {
			d.err = fmt.Errorf("serve: range %dx%d exceeds cap %d", rows, cols, MaxRangeCells)
		}
		return 0, nil, nil
	}
	flat := make([]sheet.Cell, rows*cols)
	out := make([][]sheet.Cell, rows)
	var pending [][]bool
	for i := range out {
		out[i] = flat[i*cols : (i+1)*cols : (i+1)*cols]
		for j := range out[i] {
			c, p := d.cell()
			out[i][j] = c
			if p {
				if pending == nil {
					pending = newMask(rows, cols)
				}
				pending[i][j] = true
			}
		}
	}
	return gen, out, pending
}

func newMask(rows, cols int) [][]bool {
	flat := make([]bool, rows*cols)
	m := make([][]bool, rows)
	for i := range m {
		m[i] = flat[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return m
}

// SheetStat is one open sheet's entry in a stats response.
type SheetStat struct {
	Name string
	// Gen is the sheet's snapshot generation: the number of mutation
	// batches applied since it was opened by the server process.
	Gen uint64
	// Pending is the number of formula cells awaiting background
	// re-evaluation (0 on a synchronous server, or once converged).
	Pending uint64
}

// Stats is the server-wide counter snapshot returned by OpStats.
type Stats struct {
	// Conns is the number of currently open client connections.
	Conns int64
	// InFlight is the number of requests being processed right now.
	InFlight int64
	// Requests counts requests processed since the server started.
	Requests uint64
	// CommitGen is the database-wide durable generation (committed WAL
	// batches).
	CommitGen uint64
	// Poisoned reports that the database is in read-only degradation: a
	// durability-critical I/O failure made every further mutation fail,
	// while reads keep serving from the committed state.
	Poisoned bool
	// InjectedFaults counts scheduled I/O faults fired so far when the
	// database was opened over a fault-injection schedule (zero otherwise).
	InjectedFaults int64
	// InjectedByKind breaks InjectedFaults down per fault kind, and Faults
	// is the per-rule breakdown (rule, operations matched, faults
	// injected) — so an operator of a degraded server can see which
	// scheduled failure actually hit. Both are zero/empty without a
	// fault schedule.
	InjectedByKind rdbms.FaultCounts
	Faults         []rdbms.FaultRuleStat
	// IO is the storage layer's whole counter snapshot (buffer pool, data
	// file, WAL, checkpoints, maintenance, backups); see rdbms.IOStats for
	// field semantics.
	IO rdbms.IOStats
	// Sheets lists the open sheets and their snapshot generations.
	Sheets []SheetStat
}

func appendStats(b []byte, st Stats) []byte {
	b = binary.AppendUvarint(b, uint64(st.Conns))
	b = binary.AppendUvarint(b, uint64(st.InFlight))
	b = binary.AppendUvarint(b, st.Requests)
	b = binary.AppendUvarint(b, st.CommitGen)
	var poisoned byte
	if st.Poisoned {
		poisoned = 1
	}
	b = append(b, poisoned)
	b = binary.AppendUvarint(b, uint64(st.InjectedFaults))
	b = binary.AppendUvarint(b, uint64(st.InjectedByKind.IOErrs))
	b = binary.AppendUvarint(b, uint64(st.InjectedByKind.NoSpace))
	b = binary.AppendUvarint(b, uint64(st.InjectedByKind.ShortWrites))
	b = binary.AppendUvarint(b, uint64(st.InjectedByKind.BitFlips))
	b = binary.AppendUvarint(b, uint64(len(st.Faults)))
	for _, fr := range st.Faults {
		b = appendString(b, fr.Rule.File)
		b = append(b, byte(fr.Rule.Op), byte(fr.Rule.Kind))
		b = binary.AppendUvarint(b, uint64(fr.Rule.After))
		b = binary.AppendVarint(b, int64(fr.Rule.Count))
		b = binary.AppendUvarint(b, uint64(fr.Matched))
		b = binary.AppendUvarint(b, uint64(fr.Injected))
	}
	// The IO counters travel as a counted list in rdbms.IOStats.Counters
	// order, so a peer built with more or fewer counters still decodes.
	io := st.IO.Counters()
	b = binary.AppendUvarint(b, uint64(len(io)))
	for _, c := range io {
		b = binary.AppendUvarint(b, uint64(*c))
	}
	b = binary.AppendUvarint(b, uint64(len(st.Sheets)))
	for _, sh := range st.Sheets {
		b = appendString(b, sh.Name)
		b = binary.AppendUvarint(b, sh.Gen)
		b = binary.AppendUvarint(b, sh.Pending)
	}
	return b
}

func (d *decoder) stats() Stats {
	st := Stats{
		Conns:     int64(d.uvarint()),
		InFlight:  int64(d.uvarint()),
		Requests:  d.uvarint(),
		CommitGen: d.uvarint(),
	}
	st.Poisoned = d.byte() != 0
	st.InjectedFaults = int64(d.uvarint())
	st.InjectedByKind = rdbms.FaultCounts{
		IOErrs:      int64(d.uvarint()),
		NoSpace:     int64(d.uvarint()),
		ShortWrites: int64(d.uvarint()),
		BitFlips:    int64(d.uvarint()),
	}
	nr := d.num("fault rule count", 1<<16)
	if d.err != nil {
		return st
	}
	if nr > 0 {
		st.Faults = make([]rdbms.FaultRuleStat, nr)
		for i := range st.Faults {
			st.Faults[i] = rdbms.FaultRuleStat{
				Rule: rdbms.FaultRule{
					File:  d.str(),
					Op:    rdbms.FaultOp(d.byte()),
					Kind:  rdbms.FaultKind(d.byte()),
					After: int(d.uvarint()),
					Count: int(d.varint()),
				},
				Matched:  int64(d.uvarint()),
				Injected: int64(d.uvarint()),
			}
		}
	}
	io := st.IO.Counters()
	nio := d.num("io counter count", 1<<10)
	for i := 0; i < nio && d.err == nil; i++ {
		if v := int64(d.uvarint()); i < len(io) {
			*io[i] = v
		}
	}
	n := d.num("sheet count", 1<<16)
	if d.err != nil {
		return st
	}
	st.Sheets = make([]SheetStat, n)
	for i := range st.Sheets {
		st.Sheets[i] = SheetStat{Name: d.str(), Gen: d.uvarint(), Pending: d.uvarint()}
	}
	return st
}

// maxPageIDs caps a page-id list in a scrub reply.
const maxPageIDs = 1 << 20

// appendScrubResult encodes a scrub pass: the two counts, then the repaired
// and the quarantined page ids as counted lists.
func appendScrubResult(b []byte, r rdbms.ScrubResult) []byte {
	b = binary.AppendUvarint(b, uint64(r.Scanned))
	b = binary.AppendUvarint(b, uint64(r.Skipped))
	for _, ids := range [][]rdbms.PageID{r.Repaired, r.Bad} {
		b = binary.AppendUvarint(b, uint64(len(ids)))
		for _, id := range ids {
			b = binary.AppendUvarint(b, uint64(id))
		}
	}
	return b
}

func (d *decoder) scrubResult() rdbms.ScrubResult {
	return rdbms.ScrubResult{
		Scanned:  int(d.uvarint()),
		Skipped:  int(d.uvarint()),
		Repaired: d.pageIDs(),
		Bad:      d.pageIDs(),
	}
}

func (d *decoder) pageIDs() []rdbms.PageID {
	n := d.num("page id count", maxPageIDs)
	if d.err != nil || n == 0 {
		return nil
	}
	ids := make([]rdbms.PageID, n)
	for i := range ids {
		ids[i] = rdbms.PageID(d.uvarint())
	}
	return ids
}

func appendVacuumResult(b []byte, v rdbms.VacuumResult) []byte {
	b = binary.AppendUvarint(b, uint64(v.PagesBefore))
	b = binary.AppendUvarint(b, uint64(v.PagesAfter))
	b = binary.AppendUvarint(b, uint64(v.PagesMoved))
	return binary.AppendUvarint(b, uint64(v.BytesReclaimed))
}

func (d *decoder) vacuumResult() rdbms.VacuumResult {
	return rdbms.VacuumResult{
		PagesBefore:    int(d.uvarint()),
		PagesAfter:     int(d.uvarint()),
		PagesMoved:     int(d.uvarint()),
		BytesReclaimed: int64(d.uvarint()),
	}
}

func appendBackupResult(b []byte, r rdbms.BackupResult) []byte {
	b = binary.AppendUvarint(b, uint64(r.Pages))
	b = binary.AppendUvarint(b, uint64(r.FreePages))
	b = binary.AppendUvarint(b, uint64(r.Bytes))
	return binary.AppendUvarint(b, r.Gen)
}

func (d *decoder) backupResult() rdbms.BackupResult {
	return rdbms.BackupResult{
		Pages:     int(d.uvarint()),
		FreePages: int(d.uvarint()),
		Bytes:     int64(d.uvarint()),
		Gen:       d.uvarint(),
	}
}

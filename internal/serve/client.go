package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"dataspread/internal/core"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// ClientOptions tunes a Client's connection handling. The zero value keeps
// the historic behavior: no timeouts, no retries.
type ClientOptions struct {
	// DialTimeout bounds each connection attempt (0: no limit).
	DialTimeout time.Duration
	// RequestTimeout bounds one request round-trip, send to response
	// (0: no limit).
	RequestTimeout time.Duration
	// RetryAttempts is how many extra attempts an idempotent request
	// (ping, open, close-sheet, get-range, stats) makes after a transient
	// connection failure, reconnecting between attempts. Mutations
	// (set-cells, structural edits) are never retried: once the request
	// may have reached the server, a retry could apply it twice.
	RetryAttempts int
	// RetryBackoff is the delay before the first retry; it doubles per
	// attempt with jitter, capped at 64x. 0 means 10ms when retries are
	// enabled.
	RetryBackoff time.Duration
}

// Client is one connection to a dsserver, speaking the wire protocol of
// this package. It is safe for concurrent use; requests serialize on the
// connection (the server processes one request per connection at a time —
// open more clients for parallelism).
type Client struct {
	addr string
	opts ClientOptions

	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	buf  []byte
}

// Dial connects to a dsserver at addr ("host:port") with default options.
func Dial(addr string) (*Client, error) { return DialOptions(addr, ClientOptions{}) }

// DialOptions connects to a dsserver at addr. When opts enables retries,
// transient dial failures are retried with backoff before giving up.
func DialOptions(addr string, opts ClientOptions) (*Client, error) {
	c := &Client{addr: addr, opts: opts}
	for try := 0; ; try++ {
		err := c.dialLocked()
		if err == nil {
			return c, nil
		}
		if try >= opts.RetryAttempts || !transientErr(err) {
			return nil, err
		}
		c.backoff(try)
	}
}

// dialLocked (re)connects; on failure the previous conn fields are kept.
func (c *Client) dialLocked() error {
	conn, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return err
	}
	c.conn = conn
	c.br = bufio.NewReaderSize(conn, 64<<10)
	c.bw = bufio.NewWriterSize(conn, 64<<10)
	return nil
}

// Close tears down the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Addr returns the remote address.
func (c *Client) Addr() string { return c.conn.RemoteAddr().String() }

// transientErr reports whether err is a connection-level failure (dial
// error, reset, timeout, truncated frame) that a reconnect may clear, as
// opposed to a protocol or server-side error.
func transientErr(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// backoff sleeps before retry number try: exponential with jitter so a
// thundering herd of clients spreads out, bounded at 64x the base.
func (c *Client) backoff(try int) {
	base := c.opts.RetryBackoff
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if try > 6 {
		try = 6
	}
	d := base << uint(try)
	d = d/2 + time.Duration(rand.Int63n(int64(d)))
	time.Sleep(d)
}

// roundTrip sends one request payload and returns a decoder positioned
// after the status byte (a StatusErr response becomes a Go error; a
// StatusReadOnly response becomes an error wrapping rdbms.ErrReadOnly).
// Idempotent requests that fail at the connection level are retried per
// ClientOptions, reconnecting between attempts; mutations never are — an
// ambiguous ack must surface to the caller, not double-apply.
func (c *Client) roundTrip(payload []byte, idempotent bool) (decoder, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	retries := 0
	if idempotent {
		retries = c.opts.RetryAttempts
	}
	for try := 0; ; try++ {
		d, err := c.attemptLocked(payload)
		if err == nil || !transientErr(err) {
			return d, err
		}
		// The stream may hold a half-written or half-read frame; the
		// connection is unusable either way.
		c.conn.Close()
		if try >= retries {
			return decoder{}, err
		}
		c.backoff(try)
		// Best effort: on failure the closed conn stays and the next
		// attempt fails fast, consuming the retry budget.
		_ = c.dialLocked()
	}
}

func (c *Client) attemptLocked(payload []byte) (decoder, error) {
	if c.opts.RequestTimeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.opts.RequestTimeout))
		defer c.conn.SetDeadline(time.Time{})
	}
	if err := writeFrame(c.bw, payload); err != nil {
		return decoder{}, err
	}
	if err := c.bw.Flush(); err != nil {
		return decoder{}, err
	}
	resp, err := readFrame(c.br, c.buf)
	if err != nil {
		return decoder{}, err
	}
	c.buf = resp
	d := decoder{b: resp}
	switch d.byte() {
	case StatusOK:
		return d, nil
	case StatusErr, StatusReadOnly:
		msg := d.str()
		if err := d.done(); err != nil {
			return decoder{}, err
		}
		if resp[0] == StatusReadOnly {
			return decoder{}, fmt.Errorf("dsserver: %s: %w", msg, rdbms.ErrReadOnly)
		}
		return decoder{}, fmt.Errorf("dsserver: %s", msg)
	}
	return decoder{}, fmt.Errorf("serve: malformed response status")
}

// Ping round-trips an empty request.
func (c *Client) Ping() error {
	d, err := c.roundTrip([]byte{OpPing}, true)
	if err != nil {
		return err
	}
	return d.done()
}

// Open opens (creating if absent) the named sheet on the server.
func (c *Client) Open(name string) error {
	d, err := c.roundTrip(appendString([]byte{OpOpen}, name), true)
	if err != nil {
		return err
	}
	return d.done()
}

// CloseSheet flushes the named sheet on the server.
func (c *Client) CloseSheet(name string) error {
	d, err := c.roundTrip(appendString([]byte{OpClose}, name), true)
	if err != nil {
		return err
	}
	return d.done()
}

// GetRange reads the rectangle (r1,c1)-(r2,c2) and reports the snapshot
// generation it was served at.
func (c *Client) GetRange(name string, r1, c1, r2, c2 int) ([][]sheet.Cell, uint64, error) {
	cells, _, gen, err := c.GetRangePending(name, r1, c1, r2, c2)
	return cells, gen, err
}

// GetRangePending reads the rectangle (r1,c1)-(r2,c2) and additionally
// returns the staleness mask: pending[i][j] is true when that cell's value
// predates an in-flight background recalc and will be refined. The mask is
// nil when nothing in the range is pending (always, against a synchronous
// server).
func (c *Client) GetRangePending(name string, r1, c1, r2, c2 int) ([][]sheet.Cell, [][]bool, uint64, error) {
	p := appendString([]byte{OpGetRange}, name)
	p = binary.AppendUvarint(p, uint64(r1))
	p = binary.AppendUvarint(p, uint64(c1))
	p = binary.AppendUvarint(p, uint64(r2))
	p = binary.AppendUvarint(p, uint64(c2))
	d, err := c.roundTrip(p, true)
	if err != nil {
		return nil, nil, 0, err
	}
	gen, cells, pending := d.rangeBody()
	if err := d.done(); err != nil {
		return nil, nil, 0, err
	}
	return cells, pending, gen, nil
}

// RegisterViewport registers (or moves) this connection's viewport on the
// named sheet: the server's background recalc evaluates those cells ahead
// of the rest of the affected cone. One viewport per sheet per connection;
// it is dropped when the connection closes. Idempotent — re-registering
// the same rectangle is a no-op — so it retries like other reads.
func (c *Client) RegisterViewport(name string, r1, c1, r2, c2 int) error {
	return c.viewportOp(name, r1, c1, r2, c2)
}

// ClearViewport drops this connection's viewport on the named sheet.
func (c *Client) ClearViewport(name string) error {
	return c.viewportOp(name, 0, 0, 0, 0)
}

func (c *Client) viewportOp(name string, r1, c1, r2, c2 int) error {
	p := appendString([]byte{OpRegisterViewport}, name)
	p = binary.AppendUvarint(p, uint64(r1))
	p = binary.AppendUvarint(p, uint64(c1))
	p = binary.AppendUvarint(p, uint64(r2))
	p = binary.AppendUvarint(p, uint64(c2))
	d, err := c.roundTrip(p, true)
	if err != nil {
		return err
	}
	return d.done()
}

// SetCells applies a batch of edits (Set semantics per cell: "=..."
// installs a formula, "" clears, anything else is a literal) and returns
// the generation the batch committed at.
func (c *Client) SetCells(name string, edits []core.CellEdit) (uint64, error) {
	p := appendString([]byte{OpSetCells}, name)
	p = binary.AppendUvarint(p, uint64(len(edits)))
	for _, ed := range edits {
		p = binary.AppendUvarint(p, uint64(ed.Row))
		p = binary.AppendUvarint(p, uint64(ed.Col))
		p = appendString(p, ed.Input)
	}
	return c.genOp(p)
}

// Set writes one cell (a one-edit SetCells).
func (c *Client) Set(name string, row, col int, input string) (uint64, error) {
	return c.SetCells(name, []core.CellEdit{{Row: row, Col: col, Input: input}})
}

// InsertRows inserts count rows after `after` (0 prepends).
func (c *Client) InsertRows(name string, after, count int) (uint64, error) {
	return c.genOp(structuralReq(OpInsertRows, name, after, count))
}

// DeleteRows deletes the count rows starting at row.
func (c *Client) DeleteRows(name string, row, count int) (uint64, error) {
	return c.genOp(structuralReq(OpDeleteRows, name, row, count))
}

// InsertCols inserts count columns after `after` (0 prepends).
func (c *Client) InsertCols(name string, after, count int) (uint64, error) {
	return c.genOp(structuralReq(OpInsertCols, name, after, count))
}

// DeleteCols deletes the count columns starting at col.
func (c *Client) DeleteCols(name string, col, count int) (uint64, error) {
	return c.genOp(structuralReq(OpDeleteCols, name, col, count))
}

// Stats fetches the server counters.
func (c *Client) Stats() (Stats, error) {
	d, err := c.roundTrip([]byte{OpStats}, true)
	if err != nil {
		return Stats{}, err
	}
	st := d.stats()
	if err := d.done(); err != nil {
		return Stats{}, err
	}
	return st, nil
}

// Scrub runs one online checksum scrub pass on the server at the given
// read rate (pages per second, 0 = unthrottled). Idempotent: a pass that
// may have run twice verified twice, nothing more.
func (c *Client) Scrub(rate int) (ScrubSummary, error) {
	p := binary.AppendUvarint([]byte{OpScrub}, uint64(rate))
	d, err := c.roundTrip(p, true)
	if err != nil {
		return ScrubSummary{}, err
	}
	sum := d.scrubSummary()
	if err := d.done(); err != nil {
		return ScrubSummary{}, err
	}
	return sum, nil
}

// Backup streams an online backup of the server's database into w and
// returns its summary. The response arrives as StatusChunk frames
// terminated by a status frame; RequestTimeout, when set, bounds each
// frame rather than the whole stream. Not retried: a reconnect would
// restart the stream mid-file against a database that has moved on — on a
// connection failure the caller re-invokes with a fresh writer.
func (c *Client) Backup(w io.Writer, rate int) (BackupSummary, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.opts.RequestTimeout > 0 {
		defer c.conn.SetDeadline(time.Time{})
	}
	// A failure mid-stream leaves unread chunk frames in flight; the
	// connection is unusable for the next request, so close it rather
	// than drain an arbitrarily large remainder.
	fail := func(err error) (BackupSummary, error) {
		c.conn.Close()
		return BackupSummary{}, err
	}
	if c.opts.RequestTimeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.opts.RequestTimeout))
	}
	p := binary.AppendUvarint([]byte{OpBackup}, uint64(rate))
	if err := writeFrame(c.bw, p); err != nil {
		return fail(err)
	}
	if err := c.bw.Flush(); err != nil {
		return fail(err)
	}
	for {
		if c.opts.RequestTimeout > 0 {
			c.conn.SetDeadline(time.Now().Add(c.opts.RequestTimeout))
		}
		resp, err := readFrame(c.br, c.buf)
		if err != nil {
			return fail(err)
		}
		c.buf = resp
		d := decoder{b: resp}
		switch d.byte() {
		case StatusChunk:
			if _, err := w.Write(resp[1:]); err != nil {
				return fail(err)
			}
		case StatusOK:
			sum := d.backupSummary()
			if err := d.done(); err != nil {
				return BackupSummary{}, err
			}
			return sum, nil
		case StatusErr, StatusReadOnly:
			msg := d.str()
			if err := d.done(); err != nil {
				return BackupSummary{}, err
			}
			if resp[0] == StatusReadOnly {
				return BackupSummary{}, fmt.Errorf("dsserver: %s: %w", msg, rdbms.ErrReadOnly)
			}
			return BackupSummary{}, fmt.Errorf("dsserver: %s", msg)
		default:
			return fail(fmt.Errorf("serve: malformed response status"))
		}
	}
}

// Vacuum defragments the server's data file, returning trailing free
// space to the filesystem. Not retried: a vacuum saves open sheets, which
// commits state — on an ambiguous ack the caller must observe, not
// re-apply.
func (c *Client) Vacuum() (VacuumSummary, error) {
	d, err := c.roundTrip([]byte{OpVacuum}, false)
	if err != nil {
		return VacuumSummary{}, err
	}
	sum := d.vacuumSummary()
	if err := d.done(); err != nil {
		return VacuumSummary{}, err
	}
	return sum, nil
}

// Recover asks the server to heal a poisoned database in place (reopen,
// WAL recovery, page verification). Idempotent: recovering a healthy
// database reverts it to its last committed state, the same state a
// duplicate delivery would find.
func (c *Client) Recover() error {
	d, err := c.roundTrip([]byte{OpRecover}, true)
	if err != nil {
		return err
	}
	return d.done()
}

func structuralReq(op byte, name string, at, count int) []byte {
	p := appendString([]byte{op}, name)
	p = binary.AppendUvarint(p, uint64(at))
	p = binary.AppendUvarint(p, uint64(count))
	return p
}

// genOp round-trips a mutation whose response body is one generation;
// never retried (see roundTrip).
func (c *Client) genOp(payload []byte) (uint64, error) {
	d, err := c.roundTrip(payload, false)
	if err != nil {
		return 0, err
	}
	gen := d.uvarint()
	if err := d.done(); err != nil {
		return 0, err
	}
	return gen, nil
}

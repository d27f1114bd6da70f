package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"dataspread/internal/core"
	"dataspread/internal/depgraph"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// Server serves one database to many clients: one goroutine per connection,
// one engine per sheet shared across connections. The engine orders its own
// readers and writers (core/latch.go); a session calls its plain methods.
type Server struct {
	db   *rdbms.DB
	opts core.Options

	mu     sync.Mutex
	sheets map[string]*core.Engine

	connMu sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}

	nconns   atomic.Int64
	inflight atomic.Int64
	requests atomic.Uint64
	closed   atomic.Bool
	// stop is closed first thing in Close: every scrub and backup a client
	// started passes it as its Stop, so a paced pass never holds up
	// shutdown.
	stop chan struct{}
	wg   sync.WaitGroup
}

// New builds a server over an open database. opts configures the engines
// the server opens on demand (cache size, positional scheme).
func New(db *rdbms.DB, opts core.Options) *Server {
	return &Server{
		db:     db,
		opts:   opts,
		sheets: make(map[string]*core.Engine),
		conns:  make(map[net.Conn]struct{}),
		stop:   make(chan struct{}),
	}
}

// Serve accepts connections on ln until Close. It blocks; the returned
// error is nil after a clean Close.
func (s *Server) Serve(ln net.Listener) error {
	defer s.wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		if s.closed.Load() {
			conn.Close()
			continue
		}
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go s.session(conn)
	}
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.Listen(ln)
	return s.Serve(ln)
}

// Listen records the listener so Close can stop the accept loop; call it
// before Serve when managing the listener yourself.
func (s *Server) Listen(ln net.Listener) {
	s.connMu.Lock()
	s.ln = ln
	s.connMu.Unlock()
}

// Addr returns the listener address ("" before Listen).
func (s *Server) Addr() string {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops every scrub and backup clients started, stops accepting,
// closes every live connection, waits for all sessions to drain, and saves
// every open sheet.
func (s *Server) Close() error {
	if !s.closed.Swap(true) {
		close(s.stop)
	}
	s.connMu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopSheets()
}

// stopSheets stops every open sheet's background recalc and saves the sheet.
// The caller holds s.mu.
func (s *Server) stopSheets() error {
	var errs []error
	for name, eng := range s.sheets {
		// Stop the background recalc first: it drains outstanding pending
		// cells (best effort) and performs its own final save, so the
		// explicit Save below persists a converged sheet.
		if err := eng.Close(); err != nil {
			errs = append(errs, fmt.Errorf("sheet %q recalc: %w", name, err))
		}
		if err := eng.Save(); err != nil {
			errs = append(errs, fmt.Errorf("sheet %q: %w", name, err))
		}
	}
	return errors.Join(errs...)
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Conns:     s.nconns.Load(),
		InFlight:  s.inflight.Load(),
		Requests:  s.requests.Load(),
		CommitGen: s.db.CommitGen(),
		Poisoned:  s.db.Poisoned() != nil,
		IO:        s.db.Pool().Stats(),
	}
	if fs := s.db.Faults(); fs != nil {
		st.InjectedByKind = fs.Injected()
		st.InjectedFaults = st.InjectedByKind.Total()
		st.Faults = fs.RuleStats()
	}
	s.mu.Lock()
	for name, eng := range s.sheets {
		st.Sheets = append(st.Sheets, SheetStat{
			Name:    name,
			Gen:     eng.Generation(),
			Pending: uint64(eng.PendingCount()),
			Cache:   eng.CacheStats(),
		})
	}
	s.mu.Unlock()
	slices.SortFunc(st.Sheets, func(a, b SheetStat) int { return strings.Compare(a.Name, b.Name) })
	return st
}

// Scrub runs one online checksum scrub pass over the database at the
// given read rate (pages per second, 0 = unthrottled). Reads and writes
// keep being served; corrupt slots are repaired from clean in-memory
// images where possible and quarantined otherwise. Close stops the pass.
func (s *Server) Scrub(rate int) (rdbms.ScrubResult, error) {
	return s.db.Scrub(rdbms.PassOptions{PagesPerSecond: rate, Stop: s.stop})
}

// SaveSheets saves every open sheet, so the durable manifest reflects what
// clients currently see. Maintenance passes (vacuum, backup) run it first;
// it is also the Prepare hook dsserver hands the engine scheduler.
func (s *Server) SaveSheets() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, eng := range s.sheets {
		if err := eng.Save(); err != nil {
			return fmt.Errorf("serve: save sheet %q: %w", name, err)
		}
	}
	return nil
}

// Vacuum saves every open sheet (so the durable manifest reflects current
// state) and defragments the data file, returning trailing free space to
// the filesystem. The pass holds the database exclusively; concurrent
// requests queue behind it.
func (s *Server) Vacuum() (rdbms.VacuumResult, error) {
	if err := s.SaveSheets(); err != nil {
		return rdbms.VacuumResult{}, fmt.Errorf("serve: before vacuum: %w", err)
	}
	return s.db.Vacuum()
}

// Backup saves every open sheet (so the backup captures what clients
// currently see) and streams an online backup of the database to w at the
// given read rate (pages per second, 0 = unthrottled). Reads and writes
// keep being served while the backup walks the data file. Close stops the
// stream.
func (s *Server) Backup(w io.Writer, rate int) (rdbms.BackupResult, error) {
	if err := s.SaveSheets(); err != nil {
		return rdbms.BackupResult{}, fmt.Errorf("serve: before backup: %w", err)
	}
	return s.db.Backup(w, rdbms.PassOptions{PagesPerSecond: rate, Stop: s.stop})
}

// Recover heals a poisoned database in place: open sheets are saved
// best-effort (on a poisoned store those saves fail — recovery proceeds
// from the last durable commit regardless), the pager reopens its files
// and re-runs WAL recovery plus full page verification, and on success the
// read-only degradation lifts. Every server-side engine is dropped — the
// recovered catalog reloads sheets on their next use. Requests racing the
// recovery window may fail transiently; clients retry idempotent ops.
func (s *Server) Recover() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// No dispatcher may outlive its engine; on a poisoned store its drain-save
	// and the explicit save both fail, which is what recovery is for.
	_ = s.stopSheets()
	if err := s.db.Recover(); err != nil {
		return err
	}
	s.sheets = make(map[string]*core.Engine)
	return nil
}

// Engine returns the engine serving the named sheet, opening or creating it
// as OpOpen does, for in-process callers that need what the wire does not
// carry (SQL, linked tables, the optimizer).
func (s *Server) Engine(name string) (*core.Engine, error) { return s.engineFor(name, true) }

// engineFor returns the engine for name, opening (or creating) the sheet on
// first use.
func (s *Server) engineFor(name string, create bool) (*core.Engine, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if eng, ok := s.sheets[name]; ok {
		return eng, nil
	}
	var (
		eng *core.Engine
		err error
	)
	switch {
	case slices.Contains(core.SheetNames(s.db), name):
		eng, err = core.Load(s.db, name, s.opts)
	case create:
		eng, err = core.New(s.db, name, s.opts)
	default:
		return nil, fmt.Errorf("serve: sheet %q not open", name)
	}
	if err != nil {
		return nil, err
	}
	s.sheets[name] = eng
	return eng, nil
}

// sessionState is the per-connection state dispatch threads through:
// the session's viewport registrations, keyed by sheet name. Viewports
// are dropped when the connection ends, so a disconnected scroller stops
// steering the recalc scheduler.
type sessionState struct {
	viewports map[string]int
}

// session is one connection's request loop. Requests on a connection are
// processed in order; concurrency comes from concurrent connections.
func (s *Server) session(conn net.Conn) {
	sess := &sessionState{}
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		s.nconns.Add(-1)
		s.dropViewports(sess)
	}()
	s.nconns.Add(1)
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	var reqBuf, respBuf []byte
	for {
		payload, err := readFrame(br, reqBuf)
		if err != nil {
			// EOF, a mid-frame disconnect, or an oversized frame: the
			// session ends. A request whose frame never completed was
			// never dispatched, so it has no engine effects.
			return
		}
		reqBuf = payload
		s.inflight.Add(1)
		if len(payload) > 0 && payload[0] == OpBackup {
			// Streaming response: many StatusChunk frames, then a
			// terminating StatusOK/StatusErr frame. Handled outside
			// dispatch, which assumes one response frame per request.
			err = s.backupSession(bw, payload)
		} else {
			respBuf = s.dispatch(respBuf[:0], payload, sess)
			err = writeFrame(bw, respBuf)
		}
		s.requests.Add(1)
		if err == nil {
			err = bw.Flush()
		}
		s.inflight.Add(-1)
		if err != nil {
			return
		}
	}
}

func appendErr(b []byte, err error) []byte {
	// A poisoned pager rejects every mutation; report it with a dedicated
	// status so clients can distinguish read-only degradation from a
	// per-request failure without parsing messages.
	if errors.Is(err, rdbms.ErrReadOnly) {
		b = append(b, StatusReadOnly)
	} else {
		b = append(b, StatusErr)
	}
	return appendString(b, err.Error())
}

// dropViewports unregisters every viewport the session registered, on
// sheets that are still open server-side.
func (s *Server) dropViewports(sess *sessionState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, id := range sess.viewports {
		if eng, ok := s.sheets[name]; ok {
			eng.UnregisterViewport(id)
		}
	}
	sess.viewports = nil
}

// dispatch handles one request payload and appends the response to b.
// sess carries the connection's session-scoped state (viewports).
func (s *Server) dispatch(b, payload []byte, sess *sessionState) []byte {
	d := &decoder{b: payload}
	op := d.byte()
	if d.err != nil {
		return appendErr(b, errors.New("serve: empty request"))
	}
	switch op {
	case OpPing:
		if err := d.done(); err != nil {
			return appendErr(b, err)
		}
		return append(b, StatusOK)

	case OpOpen, OpClose:
		name := d.str()
		if err := d.done(); err != nil {
			return appendErr(b, err)
		}
		eng, err := s.engineFor(name, op == OpOpen)
		if err == nil && op == OpClose {
			// Close flushes; the engine stays open for other sessions.
			err = eng.Save()
		}
		if err != nil {
			return appendErr(b, err)
		}
		return append(b, StatusOK)

	case OpGetRange:
		name := d.str()
		r1 := d.num("row", 1<<30)
		c1 := d.num("col", 1<<30)
		r2 := d.num("row", 1<<30)
		c2 := d.num("col", 1<<30)
		if err := d.done(); err != nil {
			return appendErr(b, err)
		}
		if r1 < 1 || c1 < 1 || r2 < r1 || c2 < c1 {
			return appendErr(b, fmt.Errorf("serve: bad range (%d,%d)-(%d,%d)", r1, c1, r2, c2))
		}
		if area := (r2 - r1 + 1) * (c2 - c1 + 1); area > MaxRangeCells {
			return appendErr(b, fmt.Errorf("serve: range of %d cells exceeds cap %d", area, MaxRangeCells))
		}
		eng, err := s.engineFor(name, false)
		if err != nil {
			return appendErr(b, err)
		}
		cells, pending, gen, err := eng.ReadRange(sheet.NewRange(r1, c1, r2, c2))
		if err != nil {
			return appendErr(b, err)
		}
		b = append(b, StatusOK)
		return appendRange(b, gen, cells, pending)

	case OpSetCells:
		name := d.str()
		n := d.num("edit count", MaxEdits)
		if d.err != nil {
			return appendErr(b, d.err)
		}
		edits := make([]core.CellEdit, n)
		for i := range edits {
			edits[i] = core.CellEdit{
				Row:   d.num("row", 1<<30),
				Col:   d.num("col", 1<<30),
				Input: d.str(),
			}
		}
		if err := d.done(); err != nil {
			return appendErr(b, err)
		}
		eng, err := s.engineFor(name, false)
		if err != nil {
			return appendErr(b, err)
		}
		// Apply, then fsync, nothing held: a reader waits for neither. The
		// reply carries the generation this batch published.
		gen, err := eng.ApplyCells(edits)
		if err == nil {
			err = eng.Save()
		}
		if err != nil {
			return appendErr(b, err)
		}
		b = append(b, StatusOK)
		return binary.AppendUvarint(b, gen)

	case OpInsertRows, OpDeleteRows, OpInsertCols, OpDeleteCols:
		name := d.str()
		at := d.num("position", 1<<30)
		count := d.num("count", 1<<30)
		if err := d.done(); err != nil {
			return appendErr(b, err)
		}
		eng, err := s.engineFor(name, false)
		if err != nil {
			return appendErr(b, err)
		}
		// Engine.Shift inserts before an index; the wire ops insert after one.
		var gen uint64
		switch op {
		case OpInsertRows:
			gen, err = eng.Shift(depgraph.Rows, at+1, count)
		case OpDeleteRows:
			gen, err = eng.Shift(depgraph.Rows, at, -count)
		case OpInsertCols:
			gen, err = eng.Shift(depgraph.Cols, at+1, count)
		case OpDeleteCols:
			gen, err = eng.Shift(depgraph.Cols, at, -count)
		}
		if err != nil {
			return appendErr(b, err)
		}
		b = append(b, StatusOK)
		return binary.AppendUvarint(b, gen)

	case OpRegisterViewport:
		name := d.str()
		r1 := d.num("row", 1<<30)
		c1 := d.num("col", 1<<30)
		r2 := d.num("row", 1<<30)
		c2 := d.num("col", 1<<30)
		if err := d.done(); err != nil {
			return appendErr(b, err)
		}
		eng, err := s.engineFor(name, false)
		if err != nil {
			return appendErr(b, err)
		}
		if r1 == 0 && c1 == 0 && r2 == 0 && c2 == 0 {
			// Clear the session's registration on this sheet.
			if id, ok := sess.viewports[name]; ok {
				eng.UnregisterViewport(id)
				delete(sess.viewports, name)
			}
			return append(b, StatusOK)
		}
		if r1 < 1 || c1 < 1 || r2 < r1 || c2 < c1 {
			return appendErr(b, fmt.Errorf("serve: bad viewport (%d,%d)-(%d,%d)", r1, c1, r2, c2))
		}
		g := sheet.NewRange(r1, c1, r2, c2)
		if id, ok := sess.viewports[name]; ok {
			eng.UpdateViewport(id, g)
		} else {
			if sess.viewports == nil {
				sess.viewports = make(map[string]int)
			}
			sess.viewports[name] = eng.RegisterViewport(g)
		}
		return append(b, StatusOK)

	case OpStats:
		if err := d.done(); err != nil {
			return appendErr(b, err)
		}
		b = append(b, StatusOK)
		return appendStats(b, s.Stats())

	case OpScrub:
		rate := d.num("scrub rate", 1<<30)
		if err := d.done(); err != nil {
			return appendErr(b, err)
		}
		res, err := s.Scrub(rate)
		if err != nil {
			return appendErr(b, err)
		}
		b = append(b, StatusOK)
		return appendScrubResult(b, res)

	case OpVacuum:
		if err := d.done(); err != nil {
			return appendErr(b, err)
		}
		res, err := s.Vacuum()
		if err != nil {
			return appendErr(b, err)
		}
		b = append(b, StatusOK)
		return appendVacuumResult(b, res)

	case OpRecover:
		if err := d.done(); err != nil {
			return appendErr(b, err)
		}
		if err := s.Recover(); err != nil {
			return appendErr(b, err)
		}
		return append(b, StatusOK)
	}
	return appendErr(b, fmt.Errorf("serve: unknown op %d", op))
}

// backupChunkSize bounds one StatusChunk frame's payload.
const backupChunkSize = 256 << 10

// chunkWriter frames the raw backup stream into StatusChunk response
// frames. A write error is sticky: it means the connection itself failed,
// so no terminating status frame can reach the client either.
type chunkWriter struct {
	bw    *bufio.Writer
	frame []byte
	err   error
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	n := len(p)
	for len(p) > 0 {
		c := p
		if len(c) > backupChunkSize {
			c = c[:backupChunkSize]
		}
		p = p[len(c):]
		w.frame = append(w.frame[:0], StatusChunk)
		w.frame = append(w.frame, c...)
		if err := writeFrame(w.bw, w.frame); err != nil {
			w.err = err
			return 0, err
		}
	}
	return n, nil
}

// backupSession answers one OpBackup request with a streamed response.
func (s *Server) backupSession(bw *bufio.Writer, payload []byte) error {
	d := &decoder{b: payload[1:]}
	rate := d.num("backup rate", 1<<30)
	if err := d.done(); err != nil {
		return writeFrame(bw, appendErr(nil, err))
	}
	cw := &chunkWriter{bw: bw}
	res, err := s.Backup(cw, rate)
	if cw.err != nil {
		return cw.err
	}
	if err != nil {
		return writeFrame(bw, appendErr(nil, err))
	}
	return writeFrame(bw, appendBackupResult([]byte{StatusOK}, res))
}

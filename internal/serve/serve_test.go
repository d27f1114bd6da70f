package serve

import (
	"fmt"
	"net"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"dataspread/internal/core"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// startServer runs a server on a loopback port and tears it down with the
// test. Tests are all named TestServe* so CI can race-test the serving
// path in isolation (go test -race -run Serve).
func startServer(t *testing.T, db *rdbms.DB, opts core.Options) (*Server, string) {
	t.Helper()
	s := New(db, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s.Listen(ln)
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return s, ln.Addr().String()
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServeRoundTrip(t *testing.T) {
	db := rdbms.Open(rdbms.Options{})
	_, addr := startServer(t, db, core.Options{})
	c := dialT(t, addr)

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if err := c.Open("s"); err != nil {
		t.Fatalf("open: %v", err)
	}
	gen, err := c.SetCells("s", []core.CellEdit{
		{Row: 1, Col: 1, Input: "10"},
		{Row: 2, Col: 1, Input: "32"},
		{Row: 3, Col: 1, Input: "=A1+A2"},
		{Row: 1, Col: 2, Input: "hello"},
		{Row: 2, Col: 2, Input: "true"},
	})
	if err != nil {
		t.Fatalf("set cells: %v", err)
	}
	if gen == 0 {
		t.Fatalf("generation not bumped by set-cells")
	}
	cells, rgen, err := c.GetRange("s", 1, 1, 3, 2)
	if err != nil {
		t.Fatalf("get range: %v", err)
	}
	if rgen != gen {
		t.Fatalf("read generation %d, want %d", rgen, gen)
	}
	if n, _ := cells[2][0].Value.Num(); n != 42 {
		t.Fatalf("A3 = %v, want 42 (formula over the wire)", cells[2][0].Value)
	}
	if cells[2][0].Formula != "A1+A2" {
		t.Fatalf("A3 formula = %q, want A1+A2", cells[2][0].Formula)
	}
	if cells[0][1].Value.Text() != "hello" {
		t.Fatalf("B1 = %q, want hello", cells[0][1].Value.Text())
	}
	if b, _ := cells[1][1].Value.BoolVal(); !b {
		t.Fatalf("B2 = %v, want true", cells[1][1].Value)
	}
	if !cells[0][0].Value.Equal(sheet.Number(10)) {
		t.Fatalf("A1 = %v, want 10", cells[0][0].Value)
	}

	// Structural edit: shift the summed rows down and check the formula
	// followed them.
	sgen, err := c.InsertRows("s", 0, 2)
	if err != nil {
		t.Fatalf("insert rows: %v", err)
	}
	if sgen <= gen {
		t.Fatalf("structural generation %d, want > %d", sgen, gen)
	}
	cells, _, err = c.GetRange("s", 5, 1, 5, 1)
	if err != nil {
		t.Fatalf("get range after insert: %v", err)
	}
	if n, _ := cells[0][0].Value.Num(); n != 42 {
		t.Fatalf("A5 after insert = %v, want 42", cells[0][0].Value)
	}
	if _, err := c.DeleteRows("s", 1, 2); err != nil {
		t.Fatalf("delete rows: %v", err)
	}
	if _, err := c.InsertCols("s", 0, 1); err != nil {
		t.Fatalf("insert cols: %v", err)
	}
	if _, err := c.DeleteCols("s", 1, 1); err != nil {
		t.Fatalf("delete cols: %v", err)
	}
	cells, _, err = c.GetRange("s", 3, 1, 3, 1)
	if err != nil {
		t.Fatalf("get range after edits: %v", err)
	}
	if n, _ := cells[0][0].Value.Num(); n != 42 {
		t.Fatalf("A3 after round-trip edits = %v, want 42", cells[0][0].Value)
	}

	// Errors travel as status frames, not dead connections.
	if _, err := c.SetCells("s", []core.CellEdit{{Row: 0, Col: 1, Input: "x"}}); err == nil {
		t.Fatalf("out-of-range edit: want error")
	}
	if _, _, err := c.GetRange("nope", 1, 1, 1, 1); err == nil {
		t.Fatalf("get range on unopened sheet: want error")
	}
	if _, _, err := c.GetRange("s", 1, 1, 5000, 5000); err == nil {
		t.Fatalf("oversized range: want error")
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after errors: %v (connection should survive)", err)
	}
}

func TestServeStats(t *testing.T) {
	db := rdbms.Open(rdbms.Options{})
	s, addr := startServer(t, db, core.Options{})
	c := dialT(t, addr)
	c2 := dialT(t, addr)
	if err := c.Open("a"); err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := c.Set("a", 1, 1, "1"); err != nil {
		t.Fatalf("set: %v", err)
	}
	if err := c2.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Conns != 2 {
		t.Errorf("conns = %d, want 2", st.Conns)
	}
	if st.InFlight < 1 {
		t.Errorf("in-flight = %d, want >= 1 (the stats request itself)", st.InFlight)
	}
	if st.Requests < 3 {
		t.Errorf("requests = %d, want >= 3", st.Requests)
	}
	if len(st.Sheets) != 1 || st.Sheets[0].Name != "a" || st.Sheets[0].Gen == 0 {
		t.Fatalf("sheets = %+v, want [{a >0}]", st.Sheets)
	}
	// The cell cache's counters travel per sheet: equal to the engine's, and
	// a read moves them.
	eng, err := s.Engine("a")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.Sheets[0].Cache, eng.CacheStats(); got != want {
		t.Errorf("sheet cache stats = %+v, engine's = %+v", got, want)
	}
	if _, _, err := c.GetRange("a", 1, 1, 2, 2); err != nil {
		t.Fatalf("get range: %v", err)
	}
	after, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if b, a := st.Sheets[0].Cache, after.Sheets[0].Cache; a.Hits+a.Misses <= b.Hits+b.Misses {
		t.Errorf("cache stats %+v -> %+v across a GetRange, want more visits", b, a)
	}
}

// Server.Engine hands in-process callers the engine the wire serves: an edit a
// client sent is visible to its SQL without a Save, a sheet not yet opened is
// created as OpOpen creates it, and after Recover it is the reloaded engine,
// not the dropped one.
func TestServeEngineAccessor(t *testing.T) {
	s, addr := startServer(t, rdbms.Open(rdbms.Options{}), core.Options{})
	c := dialT(t, addr)
	if err := c.Open("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Set("a", 1, 1, "42"); err != nil {
		t.Fatal(err)
	}
	eng, err := s.Engine("a")
	if err != nil {
		t.Fatal(err)
	}
	tv, err := eng.SQL("SELECT * FROM a_overflow")
	if err != nil {
		t.Fatal(err)
	}
	if len(tv.Rows) != 1 || !slices.ContainsFunc(tv.Rows[0], func(v sheet.Value) bool { return v.Text() == "42" }) {
		t.Fatalf("SQL over the served engine = %v, want the client's 42", tv.Rows)
	}
	fresh, err := s.Engine("b")
	if err != nil {
		t.Fatalf("Engine on an unopened sheet: %v", err)
	}
	if _, err := c.Set("b", 1, 1, "7"); err != nil {
		t.Fatalf("a client write to the sheet Engine created: %v", err)
	}
	if got := fresh.GetCell(1, 1).Value.Text(); got != "7" {
		t.Fatalf("Engine(b) reads %q, want the client's 7", got)
	}
	if err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	again, err := s.Engine("a")
	if err != nil {
		t.Fatal(err)
	}
	if again == eng {
		t.Fatal("Engine after Recover returned the dropped engine")
	}
	if _, err := c.Set("a", 1, 1, "43"); err != nil {
		t.Fatal(err)
	}
	if got := again.GetCell(1, 1).Value.Text(); got != "43" {
		t.Fatalf("the reloaded engine reads %q, want the client's 43", got)
	}
}

func TestServePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.ds")
	db, err := rdbms.OpenFile(path, rdbms.Options{})
	if err != nil {
		t.Fatalf("open file db: %v", err)
	}
	s := New(db, core.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s.Listen(ln)
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := c.Open("p"); err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := c.SetCells("p", []core.CellEdit{
		{Row: 1, Col: 1, Input: "7"},
		{Row: 2, Col: 1, Input: "=A1*6"},
	}); err != nil {
		t.Fatalf("set cells: %v", err)
	}
	gen0 := db.CommitGen()
	if gen0 == 0 {
		t.Fatalf("commit generation not advanced by served writes")
	}
	c.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("db close: %v", err)
	}

	db2, err := rdbms.OpenFile(path, rdbms.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	// Cleanups run LIFO: register the db close before the server's, so the
	// server's shutdown save still has a live WAL.
	t.Cleanup(func() { db2.Close() })
	_, addr := startServer(t, db2, core.Options{})
	c2 := dialT(t, addr)
	// GetRange without Open: the server loads persisted sheets on demand.
	cells, _, err := c2.GetRange("p", 1, 1, 2, 1)
	if err != nil {
		t.Fatalf("get range after reopen: %v", err)
	}
	if n, _ := cells[1][0].Value.Num(); n != 42 {
		t.Fatalf("A2 after reopen = %v, want 42", cells[1][0].Value)
	}
	if cells[1][0].Formula != "A1*6" {
		t.Fatalf("A2 formula lost across reopen: %q", cells[1][0].Formula)
	}
}

// TestServeSnapshotIsolation is the tentpole's core property: while a
// writer bulk-rewrites the whole grid, every concurrent read must observe
// one committed batch in full — a uniform grid — never a torn mix, and
// the generation stamps must be non-decreasing per reader.
func TestServeSnapshotIsolation(t *testing.T) {
	const (
		rows, cols = 128, 32 // 2x2 cache blocks
		batches    = 25
	)
	db := rdbms.Open(rdbms.Options{})
	_, addr := startServer(t, db, core.Options{})

	// Seed batch 0 so readers always see a full grid.
	seedC := dialT(t, addr)
	if err := seedC.Open("iso"); err != nil {
		t.Fatalf("open: %v", err)
	}
	batch := func(v int) []core.CellEdit {
		edits := make([]core.CellEdit, 0, rows*cols)
		for r := 1; r <= rows; r++ {
			for c := 1; c <= cols; c++ {
				edits = append(edits, core.CellEdit{Row: r, Col: c, Input: fmt.Sprintf("%d", v)})
			}
		}
		return edits
	}
	if _, err := seedC.SetCells("iso", batch(0)); err != nil {
		t.Fatalf("seed: %v", err)
	}

	var writerDone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
		w := dialT(t, addr)
		for v := 1; v <= batches; v++ {
			if _, err := w.SetCells("iso", batch(v)); err != nil {
				t.Errorf("writer batch %d: %v", v, err)
				return
			}
		}
	}()

	const readers = 4
	torn := make([]string, readers)
	wg.Add(readers)
	for i := 0; i < readers; i++ {
		go func(slot int) {
			defer wg.Done()
			r := dialT(t, addr)
			var lastGen uint64
			for !writerDone.Load() {
				cells, gen, err := r.GetRange("iso", 1, 1, rows, cols)
				if err != nil {
					torn[slot] = fmt.Sprintf("read: %v", err)
					return
				}
				if gen < lastGen {
					torn[slot] = fmt.Sprintf("generation went backwards: %d after %d", gen, lastGen)
					return
				}
				lastGen = gen
				want := cells[0][0].Value
				for ri, row := range cells {
					for ci, cell := range row {
						if !cell.Value.Equal(want) {
							torn[slot] = fmt.Sprintf("torn read at gen %d: (%d,%d)=%v but (1,1)=%v",
								gen, ri+1, ci+1, cell.Value, want)
							return
						}
					}
				}
			}
		}(i)
	}
	wg.Wait()
	for i, msg := range torn {
		if msg != "" {
			t.Errorf("reader %d: %s", i, msg)
		}
	}

	final := dialT(t, addr)
	cells, _, err := final.GetRange("iso", 1, 1, rows, cols)
	if err != nil {
		t.Fatalf("final read: %v", err)
	}
	for _, row := range cells {
		for _, cell := range row {
			if !cell.Value.Equal(sheet.Number(batches)) {
				t.Fatalf("final state %v, want %d everywhere", cell.Value, batches)
			}
		}
	}
}

// TestServeColdReaderDuringBatch takes the path a warm viewport never does: the
// cell cache holds one block and the range spans two, so every read has to
// load from storage and therefore waits, on the read latches, for the batch in
// flight. Every reply must still be one whole batch, stamped with that batch's
// generation — the writer is alone, so batch v is generation g0+v.
func TestServeColdReaderDuringBatch(t *testing.T) {
	const (
		rows, cols = 128, 16 // two cache blocks
		batches    = 25
	)
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			db := rdbms.Open(rdbms.Options{})
			_, addr := startServer(t, db, core.Options{CacheBlocks: 1, AsyncRecalc: async})
			w := dialT(t, addr)
			if err := w.Open("cold"); err != nil {
				t.Fatalf("open: %v", err)
			}
			batch := func(v int) []core.CellEdit {
				edits := make([]core.CellEdit, 0, rows*cols)
				for r := 1; r <= rows; r++ {
					for c := 1; c <= cols; c++ {
						edits = append(edits, core.CellEdit{Row: r, Col: c, Input: fmt.Sprint(v)})
					}
				}
				return edits
			}
			g0, err := w.SetCells("cold", batch(0))
			if err != nil {
				t.Fatalf("seed: %v", err)
			}
			var done atomic.Bool
			var wg sync.WaitGroup
			for i := 0; i < 3; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					r := dialT(t, addr)
					for !done.Load() {
						cells, gen, err := r.GetRange("cold", 1, 1, rows, cols)
						if err != nil {
							t.Errorf("read: %v", err)
							return
						}
						want := sheet.Number(float64(gen - g0))
						for ri, row := range cells {
							for ci, cell := range row {
								if !cell.Value.Equal(want) {
									t.Errorf("generation %d (batch %d): (%d,%d)=%v", gen, gen-g0, ri+1, ci+1, cell.Value)
									return
								}
							}
						}
					}
				}()
			}
			for v := 1; v <= batches; v++ {
				if gen, err := w.SetCells("cold", batch(v)); err != nil || gen != g0+uint64(v) {
					t.Errorf("batch %d: generation %d, %v", v, gen, err)
					break
				}
			}
			done.Store(true)
			wg.Wait()
		})
	}
}

// TestServeConcurrentWriters checks writer batches from different
// connections interleave without loss: each writer owns a row band and
// the union must survive.
func TestServeConcurrentWriters(t *testing.T) {
	const (
		writers = 4
		rounds  = 20
		cols    = 24
	)
	db := rdbms.Open(rdbms.Options{})
	_, addr := startServer(t, db, core.Options{})
	boot := dialT(t, addr)
	if err := boot.Open("w"); err != nil {
		t.Fatalf("open: %v", err)
	}

	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs[id] = err
				return
			}
			defer c.Close()
			row := id + 1
			for v := 1; v <= rounds; v++ {
				edits := make([]core.CellEdit, cols)
				for j := 0; j < cols; j++ {
					edits[j] = core.CellEdit{Row: row, Col: j + 1, Input: fmt.Sprintf("%d", v*1000+id)}
				}
				if _, err := c.SetCells("w", edits); err != nil {
					errs[id] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", id, err)
		}
	}
	cells, _, err := boot.GetRange("w", 1, 1, writers, cols)
	if err != nil {
		t.Fatalf("final read: %v", err)
	}
	for id := 0; id < writers; id++ {
		want := sheet.Number(float64(rounds*1000 + id))
		for j := 0; j < cols; j++ {
			if !cells[id][j].Value.Equal(want) {
				t.Fatalf("writer %d col %d: %v, want %v", id, j+1, cells[id][j].Value, want)
			}
		}
	}
}

// TestServeConcurrentSharedClient: one Client used from several goroutines
// decodes every reply whole. A reply's body aliases the connection's read
// buffer, so it must be decoded before the next request may reuse that
// buffer.
func TestServeConcurrentSharedClient(t *testing.T) {
	db := rdbms.Open(rdbms.Options{})
	_, addr := startServer(t, db, core.Options{})
	c := dialT(t, addr)
	if err := c.Open("s"); err != nil {
		t.Fatal(err)
	}
	want := make([]core.CellEdit, 64)
	for j := range want {
		want[j] = core.CellEdit{Row: 1, Col: j + 1, Input: fmt.Sprintf("cell %d of a row wide enough to fill the buffer", j)}
	}
	if _, err := c.SetCells("s", want); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if g%2 == 1 {
					if _, err := c.Stats(); err != nil {
						errs <- err
						return
					}
					continue
				}
				cells, _, err := c.GetRange("s", 1, 1, 1, len(want))
				if err != nil {
					errs <- err
					return
				}
				for j, ed := range want {
					if got := cells[0][j].Value.Text(); got != ed.Input {
						errs <- fmt.Errorf("cell %d = %q, want %q", j+1, got, ed.Input)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestServeConcurrentWritersReplyGenerations: a set-cells reply carries the
// generation its own batch published, not whatever the sheet has reached by the
// time the reply is written. Two connections paste uniform batches over one
// range; no two replies share a generation, and a read stamped with a reply's
// generation shows exactly that reply's batch.
func TestServeConcurrentWritersReplyGenerations(t *testing.T) {
	const (
		writers, rounds = 2, 40
		rows, cols      = 8, 8
	)
	db := rdbms.Open(rdbms.Options{})
	_, addr := startServer(t, db, core.Options{AsyncRecalc: true})
	boot := dialT(t, addr)
	if err := boot.Open("g"); err != nil {
		t.Fatalf("open: %v", err)
	}
	var mu sync.Mutex
	batchAt := map[uint64]float64{} // reply generation -> the value its batch pasted
	var done atomic.Bool
	var wg, readers sync.WaitGroup
	for id := 0; id < writers; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := dialT(t, addr)
			for v := 1; v <= rounds; v++ {
				value := float64(id*1000 + v)
				edits := make([]core.CellEdit, 0, rows*cols)
				for r := 1; r <= rows; r++ {
					for col := 1; col <= cols; col++ {
						edits = append(edits, core.CellEdit{Row: r, Col: col, Input: fmt.Sprint(value)})
					}
				}
				gen, err := c.SetCells("g", edits)
				if err != nil {
					t.Errorf("writer %d: %v", id, err)
					return
				}
				mu.Lock()
				if other, dup := batchAt[gen]; dup {
					t.Errorf("batches %v and %v were both answered with generation %d", other, value, gen)
				}
				batchAt[gen] = value
				mu.Unlock()
			}
		}()
	}
	type seen struct {
		gen   uint64
		value sheet.Value
	}
	var reads []seen
	readers.Add(1)
	go func() {
		defer readers.Done()
		c := dialT(t, addr)
		for !done.Load() {
			cells, gen, err := c.GetRange("g", 1, 1, rows, cols)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			for _, row := range cells {
				for _, cell := range row {
					if !cell.Value.Equal(cells[0][0].Value) {
						t.Errorf("generation %d: torn read, %v beside %v", gen, cell.Value, cells[0][0].Value)
						return
					}
				}
			}
			reads = append(reads, seen{gen, cells[0][0].Value})
		}
	}()
	wg.Wait()
	done.Store(true)
	readers.Wait()
	if len(batchAt) != writers*rounds {
		t.Fatalf("%d distinct reply generations for %d batches", len(batchAt), writers*rounds)
	}
	for _, r := range reads {
		if want, ok := batchAt[r.gen]; ok && !r.value.Equal(sheet.Number(want)) {
			t.Fatalf("a read stamped generation %d shows %v, the batch answered with it pasted %v", r.gen, r.value, want)
		}
	}
}

// TestServeReadersDuringStructural checks reads stay coherent (right
// values, no panics) while rows shift underneath them.
func TestServeReadersDuringStructural(t *testing.T) {
	const rows, cols = 64, 8
	db := rdbms.Open(rdbms.Options{})
	_, addr := startServer(t, db, core.Options{})
	boot := dialT(t, addr)
	if err := boot.Open("st"); err != nil {
		t.Fatalf("open: %v", err)
	}
	edits := make([]core.CellEdit, 0, rows*cols)
	for r := 1; r <= rows; r++ {
		for c := 1; c <= cols; c++ {
			edits = append(edits, core.CellEdit{Row: r, Col: c, Input: "5"})
		}
	}
	if _, err := boot.SetCells("st", edits); err != nil {
		t.Fatalf("seed: %v", err)
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		w := dialT(t, addr)
		for i := 0; i < 10; i++ {
			if _, err := w.InsertRows("st", 0, 3); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			if _, err := w.DeleteRows("st", 1, 3); err != nil {
				t.Errorf("delete: %v", err)
				return
			}
		}
	}()
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func() {
			defer wg.Done()
			r := dialT(t, addr)
			for !done.Load() {
				cells, _, err := r.GetRange("st", 1, 1, rows+3, cols)
				if err != nil {
					t.Errorf("read during structural: %v", err)
					return
				}
				// Every non-empty cell is a 5; inserts may leave up to 3
				// blank rows in the window.
				for _, row := range cells {
					for _, cell := range row {
						if !cell.Value.IsEmpty() && !cell.Value.Equal(sheet.Number(5)) {
							t.Errorf("cell = %v, want 5 or empty", cell.Value)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	cells, _, err := boot.GetRange("st", 1, 1, rows, cols)
	if err != nil {
		t.Fatalf("final read: %v", err)
	}
	for _, row := range cells {
		for _, cell := range row {
			if !cell.Value.Equal(sheet.Number(5)) {
				t.Fatalf("final cell = %v, want 5", cell.Value)
			}
		}
	}
}

// TestServeProtocolCells round-trips every cell kind through the wire
// codec.
func TestServeProtocolCells(t *testing.T) {
	cases := []sheet.Cell{
		{},
		{Value: sheet.Number(3.25)},
		{Value: sheet.Number(-1e300)},
		{Value: sheet.Str("héllo\x00world")},
		{Value: sheet.Bool(true)},
		{Value: sheet.Bool(false)},
		{Value: sheet.Errorf("#DIV/0!")},
		{Value: sheet.Number(42), Formula: "SUM(A1:A9)"},
		{Value: sheet.Errorf("#CYCLE!"), Formula: "B1"},
	}
	var b []byte
	for i, c := range cases {
		b = appendCell(b, c, i%2 == 1) // alternate the staleness flag
	}
	d := decoder{b: b}
	for i, want := range cases {
		got, pending := d.cell()
		if !got.Value.Equal(want.Value) || got.Formula != want.Formula {
			t.Errorf("cell %d: got %+v, want %+v", i, got, want)
		}
		if pending != (i%2 == 1) {
			t.Errorf("cell %d: pending = %v, want %v", i, pending, i%2 == 1)
		}
	}
	if err := d.done(); err != nil {
		t.Errorf("trailing state: %v", err)
	}
	// Truncated input fails loudly rather than looping or panicking.
	for cut := 0; cut < len(b); cut += 3 {
		d := decoder{b: b[:cut]}
		for j := 0; j < len(cases); j++ {
			d.cell()
		}
		if d.err == nil && cut < len(b) {
			t.Fatalf("truncation at %d undetected", cut)
		}
	}
}

// TestServeReaderNotBlockedByBulkLoad ensures the snapshot path actually
// serves while a writer is latched: during one large in-flight set-cells
// batch, a warm-viewport reader must keep completing reads instead of
// queueing behind the apply. This is the smoke-level version of the
// calibrated p99 gate in the bench suite.
func TestServeReaderNotBlockedByBulkLoad(t *testing.T) {
	const rows, cols = 1024, 64 // 64k cells: the batch applies for a while
	db := rdbms.Open(rdbms.Options{})
	_, addr := startServer(t, db, core.Options{})
	boot := dialT(t, addr)
	if err := boot.Open("q"); err != nil {
		t.Fatalf("open: %v", err)
	}
	edits := make([]core.CellEdit, 0, rows*cols)
	for r := 1; r <= rows; r++ {
		for c := 1; c <= cols; c++ {
			edits = append(edits, core.CellEdit{Row: r, Col: c, Input: "1"})
		}
	}
	if _, err := boot.SetCells("q", edits); err != nil {
		t.Fatalf("seed: %v", err)
	}
	// Warm the reader's viewport into the cache.
	r := dialT(t, addr)
	if _, _, err := r.GetRange("q", 1, 1, 64, 16); err != nil {
		t.Fatalf("warm read: %v", err)
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		w := dialT(t, addr)
		if _, err := w.SetCells("q", edits); err != nil {
			t.Errorf("writer: %v", err)
		}
	}()
	reads := 0
	for !done.Load() {
		if _, _, err := r.GetRange("q", 1, 1, 64, 16); err != nil {
			t.Fatalf("read under bulk load: %v", err)
		}
		reads++
	}
	wg.Wait()
	// The 64k-cell batch is in flight for many reader round-trips; a
	// reader that completed almost none was serialized behind it.
	if reads < 3 {
		t.Errorf("only %d reads completed during the bulk load; snapshot path not engaging", reads)
	}
}

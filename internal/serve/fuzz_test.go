package serve

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"dataspread/internal/core"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// TestServeDisconnectFuzz kills client connections mid-request while a
// legitimate writer streams deterministic edits, then asserts two things:
// the server leaks no goroutines (every session goroutine exits when its
// connection dies), and the engine state matches a control engine that
// ran the same legitimate ops with no server at all — i.e. half-received
// requests have zero engine effects.
func TestServeDisconnectFuzz(t *testing.T) {
	baseline := runtime.NumGoroutine()

	// In-memory: the database runs no background goroutines, so the leak
	// check sees only the server's.
	db := rdbms.Open(rdbms.Options{})
	srv := New(db, core.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv.Listen(ln)
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	ctlDB := rdbms.Open(rdbms.Options{})
	ctl, err := core.New(ctlDB, "ctl", core.Options{})
	if err != nil {
		t.Fatalf("control engine: %v", err)
	}

	// Chaos clients: every variant either aborts before its frame
	// completes or issues only read-path requests, so none may have engine
	// effects. Each closes abruptly; the server must just drop the session.
	var chaos sync.WaitGroup
	chaosRounds := 60
	if testing.Short() {
		chaosRounds = 15
	}
	for i := 0; i < chaosRounds; i++ {
		chaos.Add(1)
		go func(seed int64) {
			defer chaos.Done()
			rng := rand.New(rand.NewSource(seed))
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return // accept backlog raced the listener close; harmless
			}
			defer conn.Close()
			switch rng.Intn(6) {
			case 0: // partial frame header
				conn.Write([]byte{0x00, 0x01})
			case 1: // header promising more payload than ever arrives
				var hdr [4]byte
				binary.BigEndian.PutUint32(hdr[:], 512)
				conn.Write(hdr[:])
				conn.Write([]byte{OpSetCells, 3, 'c', 't', 'l'})
			case 2: // a clean ping, response abandoned
				writeFrame(conn, []byte{OpPing})
			case 3: // oversized frame header: server hangs up
				var hdr [4]byte
				binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
				conn.Write(hdr[:])
			case 4: // complete read-only request, then vanish mid-response
				p := appendString([]byte{OpGetRange}, "ctl")
				for _, v := range []int{1, 1, 40, 10} {
					p = binary.AppendUvarint(p, uint64(v))
				}
				writeFrame(conn, p)
				var one [1]byte
				conn.Read(one[:])
			case 5: // garbage op byte in a well-formed frame
				writeFrame(conn, []byte{0xEE, 0xBA, 0xAD})
				var one [1]byte
				conn.Read(one[:])
			}
			if rng.Intn(2) == 0 {
				time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
			}
		}(int64(i))
	}

	// The legitimate workload, mirrored onto the control engine.
	legit, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := legit.Open("ctl"); err != nil {
		t.Fatalf("open: %v", err)
	}
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < rounds; i++ {
		edits := make([]core.CellEdit, 16)
		for j := range edits {
			edits[j] = core.CellEdit{
				Row:   1 + rng.Intn(60),
				Col:   1 + rng.Intn(12),
				Input: fmt.Sprintf("%d", rng.Intn(10_000)),
			}
		}
		edits = append(edits, core.CellEdit{
			Row: 61 + i, Col: 1, Input: fmt.Sprintf("=SUM(A1:L%d)", 60),
		})
		if _, err := legit.SetCells("ctl", edits); err != nil {
			t.Fatalf("legit set cells %d: %v", i, err)
		}
		if err := ctl.SetCells(edits); err != nil {
			t.Fatalf("control set cells %d: %v", i, err)
		}
		if i%10 == 5 {
			if _, err := legit.InsertRows("ctl", 30, 2); err != nil {
				t.Fatalf("legit insert %d: %v", i, err)
			}
			if err := ctl.InsertRowsAfter(30, 2); err != nil {
				t.Fatalf("control insert %d: %v", i, err)
			}
			if _, err := legit.DeleteRows("ctl", 31, 2); err != nil {
				t.Fatalf("legit delete %d: %v", i, err)
			}
			if err := ctl.DeleteRows(31, 2); err != nil {
				t.Fatalf("control delete %d: %v", i, err)
			}
		}
	}
	chaos.Wait()

	// State equivalence: the served sheet must equal the never-connected
	// control run, cell for cell (values and formulas).
	got, _, err := legit.GetRange("ctl", 1, 1, 110, 14)
	if err != nil {
		t.Fatalf("final read: %v", err)
	}
	want := ctl.GetCells(sheet.NewRange(1, 1, 110, 14))
	if err := ctl.ReadErr(); err != nil {
		t.Fatalf("control read: %v", err)
	}
	for r := range want {
		for c := range want[r] {
			g, w := got[r][c], want[r][c]
			if !g.Value.Equal(w.Value) || g.Formula != w.Formula {
				t.Fatalf("divergence at (%d,%d): served %v/%q, control %v/%q",
					r+1, c+1, g.Value, g.Formula, w.Value, w.Formula)
			}
		}
	}
	legit.Close()

	if err := srv.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}

	// Goroutine-leak assertion: once every connection is gone and the
	// server has drained, we must be back at (or below) the baseline.
	// Poll: session goroutines finish asynchronously after Close.
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

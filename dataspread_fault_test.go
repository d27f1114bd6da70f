package dataspread_test

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dataspread"
	"dataspread/internal/core"
	"dataspread/internal/serve"
)

// TestServeReadOnlyDegradation is the tentpole's end-to-end check: a WAL
// fsync failure on the server poisons the pager; over the wire every
// mutation then fails with an error that errors.Is-matches the exported
// dataspread.ErrReadOnly sentinel, get-range keeps serving the committed
// data, and .stats surfaces the degraded state.
func TestServeReadOnlyDegradation(t *testing.T) {
	path := t.TempDir() + "/ro.dsdb"
	fs := dataspread.NewFaultSchedule(11, dataspread.FaultRule{
		File: dataspread.FaultFileWAL, Op: dataspread.FaultSync,
		Kind: dataspread.FaultIOErr, After: 3, Count: -1,
	})
	db, err := dataspread.OpenFileDB(path, dataspread.WithFaults(fs))
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(db, core.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Listen(ln)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	c, err := serve.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Open("s"); err != nil {
		t.Fatal(err)
	}

	// Write batches until the scheduled fsync failure poisons the server.
	applied := 0
	var roErr error
	for i := 0; i < 50; i++ {
		_, err := c.Set("s", 1, i+1, fmt.Sprintf("%d", i+1))
		if err != nil {
			roErr = err
			break
		}
		applied++
	}
	if roErr == nil {
		t.Fatal("fault never fired in 50 commits")
	}
	if !errors.Is(roErr, dataspread.ErrReadOnly) {
		t.Fatalf("mutation error over the wire = %v, want errors.Is(dataspread.ErrReadOnly)", roErr)
	}
	if applied == 0 {
		t.Fatal("no batch committed before the fault")
	}

	// Every further mutation class is rejected the same way.
	if _, err := c.Set("s", 2, 1, "9"); !errors.Is(err, dataspread.ErrReadOnly) {
		t.Fatalf("SetCells while poisoned = %v, want ErrReadOnly", err)
	}
	if _, err := c.InsertRows("s", 0, 1); !errors.Is(err, dataspread.ErrReadOnly) {
		t.Fatalf("InsertRows while poisoned = %v, want ErrReadOnly", err)
	}
	if _, err := c.DeleteCols("s", 1, 1); !errors.Is(err, dataspread.ErrReadOnly) {
		t.Fatalf("DeleteCols while poisoned = %v, want ErrReadOnly", err)
	}

	// Reads keep serving the applied state.
	cells, _, err := c.GetRange("s", 1, 1, 1, applied)
	if err != nil {
		t.Fatalf("GetRange while poisoned: %v", err)
	}
	for i := 0; i < applied; i++ {
		if n, _ := cells[0][i].Value.Num(); int(n) != i+1 {
			t.Fatalf("cell (1,%d) = %v, want %d", i+1, cells[0][i].Value, i+1)
		}
	}

	// .stats reports the degradation and the injected faults.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Poisoned {
		t.Fatal("Stats.Poisoned = false on a poisoned server")
	}
	if st.InjectedFaults == 0 {
		t.Fatal("Stats.InjectedFaults = 0, want > 0")
	}
	if st.IO.WALSegments < 1 {
		t.Fatalf("Stats.WALSegments = %d, want >= 1", st.IO.WALSegments)
	}

	c.Close()
	// Shutdown: saving sheets on a poisoned database fails, and the error
	// names the sheet.
	err = srv.Close()
	if err == nil || !errors.Is(err, dataspread.ErrReadOnly) {
		t.Fatalf("server Close on poisoned db = %v, want a read-only save failure", err)
	}
	if want := `sheet "s"`; err != nil && !contains(err.Error(), want) {
		t.Fatalf("Close error %q does not name the failed sheet (%s)", err, want)
	}
	<-done
	db.SimulateCrash()

	// Reopen: the acked prefix survives.
	db2, err := dataspread.OpenFileDB(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	eng, err := dataspread.LoadEngine(db2, "s")
	if err != nil {
		t.Fatal(err)
	}
	got := eng.GetCells(dataspread.NewRange(1, 1, 1, applied))
	for i := 0; i < applied; i++ {
		if n, _ := got[0][i].Value.Num(); int(n) != i+1 {
			t.Fatalf("recovered cell (1,%d) = %v, want %d", i+1, got[0][i].Value, i+1)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// flakyProxy forwards TCP to target but kills the first killFirst
// connections at accept, simulating a flapping network path.
func flakyProxy(t *testing.T, target string, killFirst int32) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepted atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if accepted.Add(1) <= killFirst {
				conn.Close()
				continue
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				conn.Close()
				continue
			}
			go func() { io.Copy(up, conn); up.Close() }()
			go func() { io.Copy(conn, up); conn.Close() }()
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

// TestClientRetriesIdempotentOnly: reads and pings retry through transient
// connection failures with backoff; a mutation whose connection dies gets
// its error surfaced — never resent.
func TestClientRetriesIdempotentOnly(t *testing.T) {
	db := dataspread.OpenDB()
	srv := serve.New(db, core.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Listen(ln)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() { srv.Close(); <-done }()

	// Seed a sheet directly.
	direct, err := serve.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	if err := direct.Open("s"); err != nil {
		t.Fatal(err)
	}
	if _, err := direct.Set("s", 1, 1, "7"); err != nil {
		t.Fatal(err)
	}

	// Idempotent path: the first two proxied connections die; ping and
	// get-range must reconnect and succeed within the retry budget.
	addr, stop := flakyProxy(t, ln.Addr().String(), 2)
	defer stop()
	c, err := serve.DialOptions(addr, serve.ClientOptions{
		DialTimeout:    time.Second,
		RequestTimeout: 2 * time.Second,
		RetryAttempts:  4,
		RetryBackoff:   time.Millisecond,
	})
	if err != nil {
		t.Fatalf("DialOptions through flaky proxy: %v", err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping with retries: %v", err)
	}
	cells, _, err := c.GetRange("s", 1, 1, 1, 1)
	if err != nil {
		t.Fatalf("GetRange with retries: %v", err)
	}
	if n, _ := cells[0][0].Value.Num(); n != 7 {
		t.Fatalf("cell = %v, want 7", cells[0][0].Value)
	}

	// Non-idempotent path: a mutation through a connection that dies must
	// fail without being replayed — the server never sees it and the cell
	// keeps its value.
	addr2, stop2 := flakyProxy(t, ln.Addr().String(), 1)
	defer stop2()
	c2, err := serve.DialOptions(addr2, serve.ClientOptions{
		RequestTimeout: 2 * time.Second,
		RetryAttempts:  4,
		RetryBackoff:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	before, err := direct.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Set("s", 1, 1, "1000"); err == nil {
		t.Fatal("Set through a killed connection succeeded, want an error")
	}
	after, err := direct.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// The stats round-trips themselves are the only requests that may have
	// landed in between; the mutation must not have (it would bump the
	// count and change the cell).
	if after.Requests != before.Requests+1 {
		t.Fatalf("server processed %d requests across the failed mutation, want 1 (the stats call): the client resent a non-idempotent request",
			after.Requests-before.Requests)
	}
	cells, _, err = direct.GetRange("s", 1, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := cells[0][0].Value.Num(); n != 7 {
		t.Fatalf("cell after failed mutation = %v, want unchanged 7", cells[0][0].Value)
	}

	// The same client recovers for idempotent traffic afterwards.
	if err := c2.Ping(); err != nil {
		t.Fatalf("Ping after failed mutation: %v", err)
	}
}

package core

import (
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
	"dataspread/internal/workload"
)

func newAsyncEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(rdbms.Open(rdbms.Options{}), "test", Options{AsyncRecalc: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	return e
}

// holdQuietWindow sets the dispatcher's quiet window to an hour for one test:
// cells outside the viewports are then computed only by a waiter, or at once
// when the pending set is the kept plan's.
func holdQuietWindow(t *testing.T) {
	old := coldDelay
	coldDelay = time.Hour
	t.Cleanup(func() { coldDelay = old })
}

func mustDrain(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// Regression (bug 1): ApplyCells partitioned values from formulas without
// honoring batch order per cell, so a literal following a formula edit to
// the same cell was overwritten by the formula's later install. The last
// edit to a cell must win, whatever the kinds involved.
func TestApplyCellsSameCellLastWins(t *testing.T) {
	e := newEngine(t)
	if err := e.Set(1, 1, "10"); err != nil {
		t.Fatal(err)
	}

	// formula then literal: the literal wins.
	if err := e.SetCells([]CellEdit{
		{Row: 2, Col: 1, Input: "=A1*2"},
		{Row: 2, Col: 1, Input: "5"},
	}); err != nil {
		t.Fatal(err)
	}
	if c := e.GetCell(2, 1); c.HasFormula() || c.Value.Text() != "5" {
		t.Fatalf("formula-then-literal: got %+v, want plain 5", c)
	}

	// literal then formula: the formula wins.
	if err := e.SetCells([]CellEdit{
		{Row: 3, Col: 1, Input: "7"},
		{Row: 3, Col: 1, Input: "=A1+1"},
	}); err != nil {
		t.Fatal(err)
	}
	if got := cellNum(t, e, 3, 1); got != 11 {
		t.Fatalf("literal-then-formula: got %v, want 11", got)
	}

	// formula then clear: the cell ends blank and unregistered.
	if err := e.SetCells([]CellEdit{
		{Row: 4, Col: 1, Input: "=A1"},
		{Row: 4, Col: 1, Input: ""},
	}); err != nil {
		t.Fatal(err)
	}
	if c := e.GetCell(4, 1); !c.IsBlank() {
		t.Fatalf("formula-then-clear: got %+v, want blank", c)
	}

	// The superseded formulas must not have left registrations behind:
	// changing A1 may only move the surviving formula.
	if err := e.Set(1, 1, "20"); err != nil {
		t.Fatal(err)
	}
	if c := e.GetCell(2, 1); c.Value.Text() != "5" {
		t.Fatalf("superseded formula still live: A2 = %v", c.Value)
	}
	if got := cellNum(t, e, 3, 1); got != 21 {
		t.Fatalf("surviving formula: got %v, want 21", got)
	}
	if c := e.GetCell(4, 1); !c.IsBlank() {
		t.Fatalf("cleared cell re-materialized: %+v", c)
	}
}

// Regression (bug 2): ApplyCells used to drop formula registrations cell by
// cell before the batched store write; when the store write failed the
// batch reported an error but the registrations were already gone — the
// engine forgot formulas that are still on disk and still displayed. The
// store write must run before any in-memory mutation.
func TestApplyCellsStoreFailureKeepsFormulas(t *testing.T) {
	e := newEngine(t)
	// A linked table provides a deterministic store-write failure: its
	// header row rejects every update.
	rows := [][]string{{"invid", "amount"}, {"1", "100"}, {"2", "200"}}
	for i, r := range rows {
		for j, v := range r {
			if err := e.Set(i+1, j+1, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := e.LinkTable(sheet.NewRange(1, 1, 3, 2), "inv"); err != nil {
		t.Fatal(err)
	}
	if err := e.Set(10, 1, "4"); err != nil {
		t.Fatal(err)
	}
	if err := e.SetFormula(10, 2, "A10*2"); err != nil {
		t.Fatal(err)
	}

	_, err := e.ApplyCells([]CellEdit{
		{Row: 10, Col: 2, Input: "7"},      // would overwrite the formula...
		{Row: 1, Col: 1, Input: "clobber"}, // ...but this header write fails
	})
	if err == nil {
		t.Fatal("ApplyCells into a linked header row succeeded, want error")
	}

	// The failed batch must not have touched the formula registration.
	if c := e.GetCell(10, 2); c.Formula != "A10*2" {
		t.Fatalf("formula after failed batch = %q, want %q", c.Formula, "A10*2")
	}
	if _, ok := exprsOf(e)[sheet.Ref{Row: 10, Col: 2}]; !ok {
		t.Fatal("formula registration dropped by failed batch")
	}
	// ...and the formula is still live: its precedent propagates.
	if err := e.Set(10, 1, "5"); err != nil {
		t.Fatal(err)
	}
	if got := cellNum(t, e, 10, 2); got != 10 {
		t.Fatalf("B10 after precedent edit = %v, want 10", got)
	}
}

// A sheet opened with a cycle and a reader of it (Open's recalculation of
// every formula discovers the cycle while it plans) keeps every formula
// registered across Save/Load: the members show #CYCLE!, the reader
// propagates it, and breaking the cycle evaluates all of them again.
func TestCycleSaveLoadRoundTrip(t *testing.T) {
	db := rdbms.Open(rdbms.Options{})
	s := sheet.New("cyc")
	s.SetFormula(1, 1, "B1")   // A1: cycle member
	s.SetFormula(1, 2, "A1")   // B1: cycle member
	s.SetFormula(1, 3, "A1*2") // C1: downstream of the cycle
	e, err := Open(db, "cyc", s, "rcv", Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkPoisoned := func(e *Engine, when string) {
		t.Helper()
		for col, src := range []string{"B1", "A1", "A1*2"} {
			ref := sheet.Ref{Row: 1, Col: col + 1}
			if v := e.GetCell(ref.Row, ref.Col).Value; !v.Equal(sheet.ErrCycle) {
				t.Fatalf("%s: %v = %v, want #CYCLE!", when, ref, v)
			}
			if expr, ok := exprsOf(e)[ref]; !ok || expr.String() != src {
				t.Fatalf("%s: %v registered as %v, want %q", when, ref, expr, src)
			}
		}
	}
	checkPoisoned(e, "after open")
	if err := e.Save(); err != nil {
		t.Fatal(err)
	}

	e2, err := Load(db, "cyc", Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkPoisoned(e2, "after reload")

	// Breaking the cycle: overwriting B1 with a literal leaves A1 ("=B1")
	// and C1 ("=A1*2") cycle-free, and the edit marks both.
	if err := e2.Set(1, 2, "5"); err != nil {
		t.Fatal(err)
	}
	if got := cellNum(t, e2, 1, 1); got != 5 {
		t.Fatalf("A1 after breaking cycle = %v, want 5", got)
	}
	if got := cellNum(t, e2, 1, 3); got != 10 {
		t.Fatalf("C1 after breaking cycle = %v, want 10", got)
	}
	if n := len(exprsOf(e2)); n != 2 {
		t.Fatalf("registry holds %d formulas after B1 = 5, want A1 and C1", n)
	}
}

// TestCycleValuesIndependentOfEditOrder: a sheet's values depend on its
// formulas, not on the path that built it. A1 = B1 and B1 = A1 form a cycle
// and show #CYCLE!; C1 = COUNTA(A1) only reads it, absorbs the error and
// shows 1 — reached through core.Open or typed cell by cell, in both recalc
// modes. An unrelated edit changes no displayed value, a Save/Load keeps
// them, and breaking the cycle evaluates its members.
func TestCycleValuesIndependentOfEditOrder(t *testing.T) {
	formulas := []string{"B1", "A1", "COUNTA(A1)"}
	for _, async := range []bool{false, true} {
		for _, path := range []string{"open", "typed"} {
			t.Run(fmt.Sprintf("%s/async=%v", path, async), func(t *testing.T) {
				db, opts := rdbms.Open(rdbms.Options{}), Options{AsyncRecalc: async}
				var e *Engine
				var err error
				if path == "open" {
					s := sheet.New("c")
					for col, src := range formulas {
						s.SetFormula(1, col+1, src)
					}
					e, err = Open(db, "c", s, "rcv", opts)
				} else if e, err = New(db, "c", opts); err == nil {
					for col, src := range formulas {
						if err = e.Set(1, col+1, "="+src); err != nil {
							break
						}
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				shown := func(e *Engine) [][]sheet.Cell {
					mustDrain(t, e)
					return e.GetCells(sheet.NewRange(1, 1, 9, 9))
				}
				check := func(e *Engine, when string, want ...sheet.Value) {
					t.Helper()
					for col, v := range want {
						if c := shown(e)[0][col]; !c.Value.Equal(v) {
							t.Fatalf("%s: column %d = %+v, want %v", when, col+1, c, v)
						}
					}
				}
				check(e, "built", sheet.ErrCycle, sheet.ErrCycle, sheet.Number(1))
				before := shown(e)
				for col, src := range formulas {
					if before[0][col].Formula != src {
						t.Fatalf("column %d shows formula %q, want %q", col+1, before[0][col].Formula, src)
					}
				}
				if err := e.Set(9, 9, "1"); err != nil {
					t.Fatal(err)
				}
				after := shown(e)
				after[8][8] = before[8][8]
				if !reflect.DeepEqual(after, before) {
					t.Fatalf("an edit of I9 changed the sheet:\n%v\n%v", before, after)
				}
				if err := e.Save(); err != nil {
					t.Fatal(err)
				}
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				e2, err := Load(db, "c", opts)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = e2.Close() })
				check(e2, "reloaded", sheet.ErrCycle, sheet.ErrCycle, sheet.Number(1))
				if err := e2.Set(1, 2, "5"); err != nil {
					t.Fatal(err)
				}
				check(e2, "B1 = 5", sheet.Number(5), sheet.Number(5), sheet.Number(1))
			})
		}
	}
}

// TestCycleViewportNeverReadsPendingMember: with the quiet window at an hour,
// only the viewport pass can compute C1 = A1+1 after B1 = A1 closes a cycle
// with A1 = B1. It poisons the pending members first, so C1 never shows a
// value computed from A1's stale 5 — and converges to #CYCLE!.
func TestCycleViewportNeverReadsPendingMember(t *testing.T) {
	holdQuietWindow(t)
	e := newAsyncEngine(t)
	if err := e.SetCells([]CellEdit{{Row: 1, Col: 1, Input: "=B1"}, {Row: 1, Col: 2, Input: "5"}, {Row: 1, Col: 3, Input: "=A1+1"}}); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, e)
	vp := sheet.NewRange(1, 3, 1, 3)
	e.RegisterViewport(vp)
	if err := e.Set(1, 2, "=A1"); err != nil {
		t.Fatal(err)
	}
	within(t, "the viewport converging", func() {
		for {
			cells, mask, _, err := e.ReadRange(vp)
			if err != nil {
				t.Error(err)
				return
			}
			if mask == nil {
				if v := cells[0][0].Value; !v.Equal(sheet.ErrCycle) {
					t.Errorf("C1 shows %v, computed from a pending cycle member", v)
				}
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
	if err := e.WaitRange(vp); err != nil {
		t.Fatal(err)
	}
	for col := 1; col <= 3; col++ {
		if v := e.GetCell(1, col).Value; !v.Equal(sheet.ErrCycle) {
			t.Fatalf("column %d = %v, want #CYCLE!", col, v)
		}
	}
}

// An async edit returns with its dependents pending; Drain converges the
// sheet to exactly the synchronous result and clears every pending bit.
func TestRecalcAsyncConverges(t *testing.T) {
	e := newAsyncEngine(t)
	edits := []CellEdit{{Row: 1, Col: 1, Input: "3"}}
	for i := 1; i <= 60; i++ {
		edits = append(edits, CellEdit{Row: i, Col: 2, Input: fmt.Sprintf("=A1*%d", i)})
	}
	if err := e.SetCells(edits); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, e)
	if n := e.PendingCount(); n != 0 {
		t.Fatalf("pending after drain = %d", n)
	}
	for i := 1; i <= 60; i++ {
		if got := cellNum(t, e, i, 2); got != float64(3*i) {
			t.Fatalf("B%d = %v, want %d", i, got, 3*i)
		}
	}
	// A second edit re-marks the cone; before the drain the staleness must
	// be observable through the mask API or already resolved — never a
	// wrong value pretending to be fresh.
	if err := e.Set(1, 1, "4"); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, e)
	for i := 1; i <= 60; i++ {
		if got := cellNum(t, e, i, 2); got != float64(4*i) {
			t.Fatalf("after re-edit B%d = %v, want %d", i, got, 4*i)
		}
	}
	if _, mask, _, _ := e.ReadRange(sheet.NewRange(1, 1, 60, 2)); mask != nil {
		t.Fatalf("pending mask after drain = %v, want nil", mask)
	}
}

// Async cycle handling matches the synchronous path: the cycle's members and
// their reader converge to the synchronous engine's values.
func TestRecalcAsyncCyclePoisoning(t *testing.T) {
	e := newAsyncEngine(t)
	if err := e.SetCells([]CellEdit{
		{Row: 1, Col: 1, Input: "=B1"},
		{Row: 1, Col: 2, Input: "=A1"},
		{Row: 1, Col: 3, Input: "=A1*2"},
	}); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, e)
	sync := newEngine(t)
	if err := sync.SetCells([]CellEdit{
		{Row: 1, Col: 1, Input: "=B1"},
		{Row: 1, Col: 2, Input: "=A1"},
		{Row: 1, Col: 3, Input: "=A1*2"},
	}); err != nil {
		t.Fatal(err)
	}
	for col := 1; col <= 3; col++ {
		got, want := e.GetCell(1, col).Value, sync.GetCell(1, col).Value
		if !got.Equal(want) {
			t.Fatalf("col %d: async = %v, sync = %v", col, got, want)
		}
	}
}

// WaitRange returns once a registered viewport has converged. A synchronous
// engine keeps the same viewport state (it only orders the inline plan): its
// edits still return with nothing pending, so the waits return at once.
func TestRecalcViewportWaitRange(t *testing.T) {
	sync := newEngine(t)
	syncVP := sheet.NewRange(1, 1, 10, 10)
	syncID := sync.RegisterViewport(syncVP)
	if err := sync.SetCells([]CellEdit{{Row: 1, Col: 1, Input: "2"}, {Row: 2, Col: 1, Input: "=A1+1"}, {Row: 50, Col: 1, Input: "=A2+1"}}); err != nil {
		t.Fatal(err)
	}
	if n := sync.PendingCount(); n != 0 {
		t.Fatalf("sync engine returned with %d cells pending", n)
	}
	if err := sync.WaitRange(syncVP); err != nil {
		t.Fatal(err)
	}
	if got := cellNum(t, sync, 50, 1); got != 4 {
		t.Fatalf("sync A50 = %v, want 4", got)
	}
	sync.UnregisterViewport(syncID)

	e := newAsyncEngine(t)
	edits := []CellEdit{{Row: 1, Col: 1, Input: "2"}}
	for i := 1; i <= 400; i++ {
		edits = append(edits, CellEdit{Row: i, Col: 2, Input: fmt.Sprintf("=A1+%d", i)})
	}
	if err := e.SetCells(edits); err != nil {
		t.Fatal(err)
	}
	vp := sheet.NewRange(1, 2, 20, 2)
	id := e.RegisterViewport(vp)
	if id == 0 {
		t.Fatal("async RegisterViewport returned 0")
	}
	if err := e.Set(1, 1, "9"); err != nil {
		t.Fatal(err)
	}
	if err := e.WaitRange(vp); err != nil {
		t.Fatal(err)
	}
	if n := e.PendingInRange(vp); n != 0 {
		t.Fatalf("viewport pending after WaitRange = %d", n)
	}
	for i := 1; i <= 20; i++ {
		if got := cellNum(t, e, i, 2); got != float64(9+i) {
			t.Fatalf("viewport B%d = %v, want %d", i, got, 9+i)
		}
	}
	e.UpdateViewport(id, sheet.NewRange(100, 2, 120, 2))
	e.UnregisterViewport(id)
	mustDrain(t, e)
	for i := 1; i <= 400; i++ {
		if got := cellNum(t, e, i, 2); got != float64(9+i) {
			t.Fatalf("B%d = %v, want %d", i, got, 9+i)
		}
	}
}

// Structural edits drain the scheduler first (no staleness bit may survive
// a shift) and then requeue the affected formulas in async mode.
func TestRecalcAsyncStructuralEdit(t *testing.T) {
	e := newAsyncEngine(t)
	for i := 1; i <= 5; i++ {
		if err := e.Set(i, 1, fmt.Sprintf("%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Set(1, 2, "=SUM(A1:A5)"); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, e)
	if got := cellNum(t, e, 1, 2); got != 15 {
		t.Fatalf("B1 = %v, want 15", got)
	}
	if err := e.InsertRowsAfter(2, 2); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, e)
	if c := e.GetCell(1, 2); c.Formula != "SUM(A1:A7)" {
		t.Fatalf("B1 formula after insert = %q, want SUM(A1:A7)", c.Formula)
	}
	if got := cellNum(t, e, 1, 2); got != 15 {
		t.Fatalf("B1 after insert = %v, want 15", got)
	}
	if err := e.Set(3, 1, "100"); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, e)
	if got := cellNum(t, e, 1, 2); got != 115 {
		t.Fatalf("B1 after filling inserted row = %v, want 115", got)
	}
	if err := e.DeleteRows(3, 2); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, e)
	if got := cellNum(t, e, 1, 2); got != 15 {
		t.Fatalf("B1 after delete = %v, want 15", got)
	}
}

// Close drains and persists: a cleanly closed async engine reloads with
// every background-computed value durable.
func TestRecalcAsyncCloseDurability(t *testing.T) {
	path := filepath.Join(t.TempDir(), "async.dsdb")
	db, err := rdbms.OpenFile(path, rdbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(db, "s", Options{AsyncRecalc: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetCells([]CellEdit{
		{Row: 1, Col: 1, Input: "6"},
		{Row: 1, Col: 2, Input: "=A1*7"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := rdbms.OpenFile(path, rdbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	e2, err := Load(db2, "s", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := cellNum(t, e2, 1, 2); got != 42 {
		t.Fatalf("reloaded B1 = %v, want 42", got)
	}
}

// An async reload marks every formula pending (persisted values can lag
// persisted formulas after a crash) and converges in the background.
func TestRecalcAsyncLoadRevalidates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reval.dsdb")
	db, err := rdbms.OpenFile(path, rdbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(db, "s", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetCells([]CellEdit{
		{Row: 1, Col: 1, Input: "5"},
		{Row: 1, Col: 2, Input: "=A1+1"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := rdbms.OpenFile(path, rdbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	e2, err := Load(db2, "s", Options{AsyncRecalc: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	mustDrain(t, e2)
	if got := cellNum(t, e2, 1, 2); got != 6 {
		t.Fatalf("revalidated B1 = %v, want 6", got)
	}
}

// A stalled scheduler (poisoned database mid-recalc) surfaces its error
// from Drain instead of hanging, and recovers its loop on the next edit
// attempt being rejected up front.
func TestRecalcPendingStallSurfacesError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stall.dsdb")
	fs := rdbms.NewFaultSchedule(3)
	db, err := rdbms.OpenFile(path, rdbms.Options{Faults: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	e, err := New(db, "s", Options{AsyncRecalc: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.SetCells([]CellEdit{
		{Row: 1, Col: 1, Input: "1"},
		{Row: 1, Col: 2, Input: "=A1+1"},
	}); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, e)
	// Poison the WAL, then edit: the edit itself may commit to memory, but
	// the scheduler's drain-save hits the poisoned pager and must not spin.
	fs.Arm(rdbms.FaultRule{File: rdbms.FaultFileWAL, Op: rdbms.FaultSync, Kind: rdbms.FaultIOErr, Count: -1})
	_ = e.SetCells([]CellEdit{{Row: 1, Col: 1, Input: "2"}})
	deadline := time.Now().Add(10 * time.Second)
	for e.PendingCount() > 0 && time.Now().Before(deadline) {
		if err := e.Drain(); err != nil {
			return // stalled error surfaced — the expected outcome
		}
	}
	// Either the background pass finished before the poison hit (values
	// were already durable) or Drain surfaced the stall above; both are
	// valid terminal states. A hung Drain would have tripped the deadline.
	if e.PendingCount() > 0 {
		t.Fatal("pending cells neither converged nor surfaced a stall")
	}
}

// colA converts a 1-based column to its A1-notation letter (property test
// helper; the grid stays within 26 columns).
func colA(col int) string { return string(rune('A' + col - 1)) }

// Property (satellite): applying a batch per-cell via Set must leave the
// same final values and formulas as one SetCells call, in both recalc modes
// — including same-cell overwrites, clears, and cycle churn. (TestPipelineEquivalenceProperty compares the
// formula registry, cycle set and bounds too, across layouts and structural
// edits.)
func TestRecalcPropertySetVsSetCells(t *testing.T) {
	const (
		maxRow = 10
		maxCol = 6
		rounds = 24
		batch  = 14
	)
	genInput := func(rng *rand.Rand, row, col int) string {
		switch rng.Intn(10) {
		case 0:
			return "" // clear
		case 1, 2:
			// Formula over a random range (aggregates see clipping).
			r1, c1 := rng.Intn(maxRow)+1, rng.Intn(maxCol)+1
			r2, c2 := r1+rng.Intn(maxRow-r1+1), c1+rng.Intn(maxCol-c1+1)
			return fmt.Sprintf("=SUM(%s%d:%s%d)", colA(c1), r1, colA(c2), r2)
		case 3, 4:
			// Single-cell formula; self-references and mutual references
			// exercise cycle churn.
			return fmt.Sprintf("=%s%d*2", colA(rng.Intn(maxCol)+1), rng.Intn(maxRow)+1)
		default:
			return fmt.Sprintf("%d", rng.Intn(100))
		}
	}
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("hierarchical_async=%v", async), func(t *testing.T) {
			opts := Options{AsyncRecalc: async}
			ea, err := New(rdbms.Open(rdbms.Options{}), "percell", opts)
			if err != nil {
				t.Fatal(err)
			}
			eb, err := New(rdbms.Open(rdbms.Options{}), "batched", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer ea.Close()
			defer eb.Close()
			rng := rand.New(rand.NewSource(84))
			for round := 0; round < rounds; round++ {
				edits := make([]CellEdit, 0, batch)
				for i := 0; i < batch; i++ {
					row, col := rng.Intn(maxRow)+1, rng.Intn(maxCol)+1
					edits = append(edits, CellEdit{Row: row, Col: col, Input: genInput(rng, row, col)})
				}
				// Force same-cell churn: repeat one target with a
				// different final kind.
				dup := edits[rng.Intn(len(edits))]
				edits = append(edits, CellEdit{Row: dup.Row, Col: dup.Col, Input: genInput(rng, dup.Row, dup.Col)})
				for _, ed := range edits {
					if err := ea.Set(ed.Row, ed.Col, ed.Input); err != nil {
						t.Fatal(err)
					}
				}
				if err := eb.SetCells(edits); err != nil {
					t.Fatal(err)
				}
				mustDrain(t, ea)
				mustDrain(t, eb)
				for row := 1; row <= maxRow; row++ {
					for col := 1; col <= maxCol; col++ {
						ca, cb := ea.GetCell(row, col), eb.GetCell(row, col)
						if !ca.Value.Equal(cb.Value) || ca.Formula != cb.Formula {
							t.Fatalf("round %d (%s,%d): per-cell %+v != batched %+v at (%d,%d)",
								round, colA(col), row, ca, cb, row, col)
						}
					}
				}
			}
		})
	}
}

// Marking stops at cells already pending and is exact by the pending set's
// closure: two edits whose cones overlap but differ leave exactly their union
// pending (the quiet window at an hour and no viewport, so nothing computes
// before Drain), and the drained cells equal a synchronous engine's. G3 reads
// neither edited cell, so the union is not the plan the setup's drain kept,
// and the dispatcher waits the window out instead of starting at once.
func TestMarkStopsAtPendingCells(t *testing.T) {
	holdQuietWindow(t)
	setup := []CellEdit{
		{Row: 1, Col: 1, Input: "1"}, {Row: 2, Col: 1, Input: "2"},
		{Row: 1, Col: 2, Input: "=A1*2"}, {Row: 2, Col: 2, Input: "=A2+B1"},
		{Row: 1, Col: 3, Input: "=B1+1"}, {Row: 2, Col: 3, Input: "=B2*3"},
		{Row: 1, Col: 4, Input: "=SUM(B1:C2)"}, {Row: 2, Col: 5, Input: "=A2*10"},
		{Row: 1, Col: 6, Input: "=SUM(E1:E5)"}, {Row: 3, Col: 7, Input: "=A3+1"},
	}
	sync, async := newEngine(t), newAsyncEngine(t)
	for _, e := range []*Engine{sync, async} {
		if err := e.SetCells(setup); err != nil {
			t.Fatal(err)
		}
		mustDrain(t, e)
		// A1's cone is B1 B2 C1 C2 D1; A2's is B2 C2 D1 E2 F1.
		if err := e.Set(1, 1, "5"); err != nil {
			t.Fatal(err)
		}
		if err := e.Set(2, 1, "7"); err != nil {
			t.Fatal(err)
		}
	}
	want := map[sheet.Ref]bool{}
	for _, r := range []sheet.Ref{{Row: 1, Col: 2}, {Row: 2, Col: 2}, {Row: 1, Col: 3}, {Row: 2, Col: 3},
		{Row: 1, Col: 4}, {Row: 2, Col: 5}, {Row: 1, Col: 6}} {
		want[r] = true
	}
	got := map[sheet.Ref]bool{}
	for _, r := range async.cache.PendingRefs() {
		got[r] = true
	}
	if !maps.Equal(got, want) {
		t.Fatalf("pending after both edits = %v, want the union of the cones %v", got, want)
	}
	mustDrain(t, async)
	for row := 1; row <= 5; row++ {
		for col := 1; col <= 6; col++ {
			if a, b := sync.GetCell(row, col), async.GetCell(row, col); !a.Value.Equal(b.Value) || a.Formula != b.Formula {
				t.Fatalf("(%d,%d): sync %v/%q, async %v/%q", row, col, a.Value, a.Formula, b.Value, b.Formula)
			}
		}
	}
}

// reuseSheet is a 30 x 20 ticker (630 cells, so its leaf wave takes two
// chunks) with a two-cell cycle reading the ticker, Y1 = Z1 + A1 and
// Z1 = Y1, and a reader of the cycle, AA1 = Y1*2: a tick marks all 633
// formulas.
func reuseSheet() *sheet.Sheet {
	s := workload.TickerMarket(workload.TickerSpec{Intermediates: 30, LeavesPer: 20})
	s.SetFormula(1, 25, "Z1+A1")
	s.SetFormula(1, 26, "Y1")
	s.SetFormula(1, 27, "Y1*2")
	return s
}

// keptRects identifies the executor's kept plan: a reuse leaves the same
// rectangle array in place, a rebuild keeps a new one (nil when empty).
func keptRects(e *Engine) *sheet.Range {
	if rects := e.sched.plan.rects; len(rects) > 0 {
		return &rects[0]
	}
	return nil
}

// A reused plan is the plan a rebuild from the pending bits gives, chunk for
// chunk, cycles included, at the registry generation it was kept at. The
// executor reuses it while the registry and the pending set are the ones it
// was built from; a formula re-entered under the same pending set changes the
// registry, and the plan is rebuilt. The engine is closed, so the test takes
// the dispatcher's steps itself.
func TestRecalcPlanReuseMatchesRebuild(t *testing.T) {
	e, err := Open(rdbms.Open(rdbms.Options{}), "reuse", reuseSheet(), "rom", Options{AsyncRecalc: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	s := e.sched
	price := 100
	tick := func() {
		t.Helper()
		price++
		if err := e.Set(1, 1, fmt.Sprint(price)); err != nil {
			t.Fatal(err)
		}
	}
	build := func() recalcPlan {
		s.mu.Lock()
		s.restructure = false // what process does before it plans
		s.mu.Unlock()
		return s.buildPlan()
	}
	var last recalcPlan
	plan := func(what string, reuse bool) {
		t.Helper()
		want := newPlan(e.deps.Gen(), e.deps.ConeFrom(e.cache.PendingRefs()))
		before := keptRects(e)
		got := build()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: plan of %d chunks differs from the %d a rebuild gives", what, len(got.sizes), len(want.sizes))
		}
		if reused := keptRects(e) == before; reused != reuse {
			t.Fatalf("%s: plan reused %v, want %v", what, reused, reuse)
		}
		// [Y1:Z1], then B1, AA1, [B2:B30] and the leaves [C1:V30] (four
		// rectangles once C5 reads C4).
		if rects := s.plan.rects; len(rects) > 8 {
			t.Fatalf("%s: the plan is kept as %d rectangles %v, want at most 8", what, len(rects), rects)
		}
		if len(got.sizes) < 3 || got.cycleChunks != 1 {
			t.Fatalf("%s: %d chunks, %d on a cycle, want the cycle's first and then at least two waves", what, len(got.sizes), got.cycleChunks)
		}
		if err := s.commitPlan(got); err != nil {
			t.Fatal(err)
		}
		if n := e.PendingCount(); n != 0 {
			t.Fatalf("%s: %d cells pending after the plan", what, n)
		}
		if v := e.GetCell(1, 26).Value; !v.Equal(sheet.ErrCycle) {
			t.Fatalf("%s: Z1 = %v, want %v", what, v, sheet.ErrCycle)
		}
		if b30, leaf := cellNum(t, e, 30, 2), cellNum(t, e, 30, 22); b30 != float64(30*price) || leaf != b30+20 {
			t.Fatalf("%s: B30 = %v and V30 = %v at price %d", what, b30, leaf, price)
		}
		last = got
	}
	tick()
	plan("the first tick: Open's plan, over the same cells", true)
	tick()
	plan("the next tick", true)

	// C5 now reads B5 and C4: the same cells pending, the waves changed.
	tick()
	if err := e.Set(5, 3, "=B5+C4"); err != nil {
		t.Fatal(err)
	}
	prev := last
	plan("a formula re-entered under the same pending set", false)
	if reflect.DeepEqual(last.rects, prev.rects) && reflect.DeepEqual(last.sizes, prev.sizes) {
		t.Fatal("the re-entered formula left the plan as it was: the case tests nothing")
	}
	tick()
	plan("the tick after it", true)

	// Nothing pending builds nothing and keeps the plan.
	if err := e.Set(40, 1, "7"); err != nil {
		t.Fatal(err)
	}
	if got := build(); got.n != 0 || got.sizes != nil {
		t.Fatalf("a plan of nothing pending = %d chunks", len(got.sizes))
	}
	tick()
	plan("a tick after an empty plan", true)
}

// Which edits make the next tick rebuild its plan and which let it reuse
// it, on a synchronous engine with a viewport: every registry mutation
// (a formula entered or removed, a shift that moves runs) and a moved
// viewport, whose hot pass leaves another pending set, rebuild; a value edit
// (the tick itself), an empty plan and a shift below every formula reuse.
// Each rebuild is reused by the tick after it.
func TestRecalcPlanReuseInvalidation(t *testing.T) {
	e, err := Open(rdbms.Open(rdbms.Options{}), "reuse", reuseSheet(), "rom", Options{})
	if err != nil {
		t.Fatal(err)
	}
	vp := e.RegisterViewport(sheet.NewRange(1, 3, 5, 6))
	price := 100
	tick := func(what string, reuse bool) {
		t.Helper()
		before := keptRects(e)
		price++
		if err := e.Set(1, 1, fmt.Sprint(price)); err != nil {
			t.Fatal(err)
		}
		if reused := keptRects(e) == before; reused != reuse {
			t.Fatalf("%s: plan reused %v, want %v", what, reused, reuse)
		}
	}
	tick("the first tick after the viewport", false)
	tick("a value edit", true)
	for _, c := range []struct {
		what  string
		edit  func() error
		reuse bool
	}{
		{"a formula entered", func() error { return e.Set(5, 3, "=B5+C4") }, false},
		{"a formula removed", func() error { return e.Set(5, 3, "") }, false},
		{"a cell nothing reads (an empty plan)", func() error { return e.Set(40, 1, "7") }, true},
		{"rows inserted below every formula", func() error { return e.InsertRowsAfter(100, 2) }, true},
		{"rows deleted below every formula", func() error { return e.DeleteRows(100, 2) }, true},
		{"a row inserted above the formulas", func() error { return e.InsertRowsAfter(1, 1) }, false},
		{"the row deleted again", func() error { return e.DeleteRows(2, 1) }, false},
		{"the viewport moved", func() error { e.UpdateViewport(vp, sheet.NewRange(10, 3, 20, 8)); return nil }, false},
	} {
		if err := c.edit(); err != nil {
			t.Fatalf("%s: %v", c.what, err)
		}
		tick(c.what, c.reuse)
		tick("the tick after "+c.what, true)
	}
	if b30 := cellNum(t, e, 30, 2); b30 != float64(30*price) {
		t.Fatalf("B30 = %v at price %d", b30, price)
	}
}

// keptTickerPlan opens the 30 x 20 ticker (630 formulas) on an async engine
// with the quiet window at an hour and a viewport over leaf columns C to L,
// drains the open's revalidation, then ticks and drains: the kept plan is a
// tick's cells outside the viewport, leaf columns M to V. AD1 = AC2*2 reads no
// cell of the ticker's cone.
func keptTickerPlan(t *testing.T) (*Engine, workload.TickerSpec) {
	holdQuietWindow(t)
	spec := workload.TickerSpec{Intermediates: 30, LeavesPer: 20}
	s := workload.TickerMarket(spec)
	s.SetFormula(1, 30, "AC2*2")
	e, err := Open(rdbms.Open(rdbms.Options{}), "ticker", s, "rom", Options{AsyncRecalc: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	e.RegisterViewport(spec.Viewport())
	mustDrain(t, e)
	tickAndDrain(t, e, 1)
	return e, spec
}

// tickAndDrain applies ticker tick n and drains it.
func tickAndDrain(t *testing.T, e *Engine, n int) {
	t.Helper()
	tick := workload.Tick(n)
	if _, err := e.ApplyCells([]CellEdit{{Row: tick.Row, Col: tick.Col, Input: tick.Input}}); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, e)
}

// A tick that marks exactly the kept plan's cells at the kept plan's registry
// generation has nothing to coalesce: the dispatcher commits the plan right
// after the viewport pass, and the cone drains with nobody waiting, to the
// values a synchronous engine computes.
func TestRecalcRepeatedConeSkipsQuietWindow(t *testing.T) {
	e, spec := keptTickerPlan(t)
	e.writeMu.Lock()
	kept := keptRects(e)
	e.writeMu.Unlock()
	tick := workload.Tick(2)
	if _, err := e.ApplyCells([]CellEdit{{Row: tick.Row, Col: tick.Col, Input: tick.Input}}); err != nil {
		t.Fatal(err)
	}
	within(t, "the repeated cone draining with nobody waiting", func() {
		for e.PendingCount() > 0 {
			time.Sleep(time.Millisecond)
		}
	})
	e.writeMu.Lock()
	reused := kept != nil && keptRects(e) == kept
	e.writeMu.Unlock()
	if !reused {
		t.Fatal("the repeated tick rebuilt the plan")
	}
	matchesFresh(t, e, spec, tick.Input)
}

// Everything but a repeated cone waits the quiet window out: an edit whose
// cone is not the kept plan's, and a tick that marks the kept plan's cells
// after a formula was entered (the registry moved on). 50 ms after the edits,
// with nobody waiting, their cells outside the viewport are still pending;
// Drain then computes what a synchronous engine does.
func TestRecalcNewConeKeepsQuietWindow(t *testing.T) {
	e, spec := keptTickerPlan(t)
	cold := sheet.NewRange(1, 13, spec.Intermediates, 2+spec.LeavesPer)
	for i, c := range []struct {
		what  string
		edits []CellEdit
		g     sheet.Range
		n     int
	}{
		{"a cell outside the ticker's cone", []CellEdit{{Row: 2, Col: 29, Input: "4"}}, sheet.NewRange(1, 30, 1, 30), 1},
		{"a tick after a formula was entered", []CellEdit{{Row: 5, Col: 2, Input: "=A1*5"}, {Row: 1, Col: 1, Input: "150"}}, cold, cold.Area()},
	} {
		tickAndDrain(t, e, 2+i) // the kept plan is the tick's again
		for _, ed := range c.edits {
			if _, err := e.ApplyCells([]CellEdit{ed}); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(50 * time.Millisecond)
		if n := e.PendingInRange(c.g); n != c.n {
			t.Fatalf("after %s: %d cells outside the viewport pending 50 ms later, want %d", c.what, n, c.n)
		}
		mustDrain(t, e)
	}
	if ad1 := cellNum(t, e, 1, 30); ad1 != 8 {
		t.Fatalf("AD1 = %v, want AC2*2 = 8", ad1)
	}
	matchesFresh(t, e, spec, "150")
}

// A Load revalidates every formula and keeps no plan yet: the viewport's
// cells converge at once, and the rest stay pending until somebody waits.
func TestRecalcLoadKeepsQuietWindow(t *testing.T) {
	holdQuietWindow(t)
	spec := workload.TickerSpec{Intermediates: 30, LeavesPer: 20}
	db := rdbms.Open(rdbms.Options{})
	e, err := Open(db, "ticker", workload.TickerMarket(spec), "rom", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Save(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e, err = Load(db, "ticker", Options{AsyncRecalc: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	vp := spec.Viewport()
	e.RegisterViewport(vp)
	within(t, "the viewport converging", func() {
		for e.PendingInRange(vp) > 0 {
			time.Sleep(time.Millisecond)
		}
	})
	time.Sleep(50 * time.Millisecond)
	cold := sheet.NewRange(1, 13, spec.Intermediates, 2+spec.LeavesPer)
	if n := e.PendingInRange(cold); n != cold.Area() {
		t.Fatalf("%d of the %d cells outside the viewport pending 50 ms after the load, want all", n, cold.Area())
	}
	mustDrain(t, e)
	matchesFresh(t, e, spec, "100")
}

// matchesFresh checks that e holds, over the ticker spec's cells, exactly what
// a fresh synchronous engine opened on the ticker at price computes.
func matchesFresh(t *testing.T, e *Engine, spec workload.TickerSpec, price string) {
	t.Helper()
	s := workload.TickerMarket(spec)
	s.SetValue(1, 1, sheet.ParseLiteral(price))
	fresh, err := Open(rdbms.Open(rdbms.Options{}), "fresh", s, "rom", Options{})
	if err != nil {
		t.Fatal(err)
	}
	all := sheet.NewRange(1, 1, spec.Intermediates, 2+spec.LeavesPer)
	got, want := e.GetCells(all), fresh.GetCells(all)
	for i := range want {
		for j := range want[i] {
			if g, w := got[i][j], want[i][j]; g.Formula != w.Formula || !g.Value.Equal(w.Value) {
				t.Fatalf("(%d,%d) = %v %q, a fresh engine computes %v %q", i+1, j+1, g.Value, g.Formula, w.Value, w.Formula)
			}
		}
	}
}

// One tick of the ticker-recalc cone (workload.TickerMarket 400 x 100, 40,400
// formula cells) on a synchronous engine reads the cache a tile at a time: the
// executor's tile readers count one hit per tile they move to, at most 4,000
// in all where a read per cell counted 80,800, and the tick yields the values
// a fresh engine computes.
func TestRecalcTickReadsByTile(t *testing.T) {
	spec := workload.TickerSpec{Intermediates: 400, LeavesPer: 100}
	e, err := Open(rdbms.Open(rdbms.Options{}), "ticker", workload.TickerMarket(spec), "rom", Options{})
	if err != nil {
		t.Fatal(err)
	}
	tick := workload.Tick(1)
	before := e.CacheStats()
	if _, err := e.ApplyCells([]CellEdit{{Row: tick.Row, Col: tick.Col, Input: tick.Input}}); err != nil {
		t.Fatal(err)
	}
	st := e.CacheStats()
	hits, misses := st.Hits-before.Hits, st.Misses-before.Misses
	t.Logf("one tick: %d cache hits, %d misses", hits, misses)
	if hits > 4000 || misses != 0 {
		t.Fatalf("one tick took %d cache hits and %d misses, want at most 4,000 and none", hits, misses)
	}
	matchesFresh(t, e, spec, tick.Input)
}

// TestRecalcTickBytes bounds what one tick of the ticker-recalc cone
// allocates on a synchronous engine, on the plan the tick before kept: the
// plan is walked from its rectangles a chunk at a time into one reused
// buffer, and commitChunk's scratch is kept from tick to tick. Laying the
// kept plan out as 40,400 refs per tick, and regrowing the scratch, cost
// about 1,185 KB.
func TestRecalcTickBytes(t *testing.T) {
	const ceiling = 600 << 10
	e := tickerEngine(t, Options{})
	kept := keptRects(e)
	price := ""
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			tick := workload.Tick(i + 1)
			if _, err := e.ApplyCells([]CellEdit{{Row: tick.Row, Col: tick.Col, Input: tick.Input}}); err != nil {
				b.Fatal(err)
			}
			price = tick.Input
		}
	})
	if kept == nil || keptRects(e) != kept {
		t.Fatal("the ticks rebuilt the plan: the case measures no kept plan")
	}
	t.Logf("%d B in %d allocations per tick (%d ticks)", res.AllocedBytesPerOp(), res.AllocsPerOp(), res.N)
	if got := res.AllocedBytesPerOp(); got > ceiling {
		t.Errorf("a tick allocates %d B, want at most %d", got, ceiling)
	}
	matchesFresh(t, e, workload.TickerSpec{Intermediates: 400, LeavesPer: 100}, price)
}

// A pending cell always holds a live formula, which is why commitChunk
// evaluates every pending member without asking: a formula overwritten by a
// value or cleared under a pending cone loses its bit in the write's publish,
// and a row delete starts with nothing pending and marks only registered
// formulas. The quiet window is an hour, so nothing computes the cone before
// Drain; the drained sheet then equals a synchronous engine's. D1 reads no
// ticked cell, so the first tick's cone is not the plan the setup's drain
// kept, and the dispatcher waits the window out instead of starting at once.
func TestPendingCellsHoldLiveFormulas(t *testing.T) {
	holdQuietWindow(t)
	setup := []CellEdit{{Row: 1, Col: 3, Input: "=SUM(B1:B6)"}, {Row: 2, Col: 3, Input: "=B5+1"}, {Row: 1, Col: 4, Input: "=A8+1"}}
	var tick []CellEdit
	for row := 1; row <= 6; row++ {
		setup = append(setup, CellEdit{Row: row, Col: 1, Input: fmt.Sprint(row)},
			CellEdit{Row: row, Col: 2, Input: fmt.Sprintf("=A%d*2", row)})
		tick = append(tick, CellEdit{Row: row, Col: 1, Input: fmt.Sprint(row * 10)})
	}
	steps := []struct {
		name string
		do   func(e *Engine) error
	}{
		{"tick", func(e *Engine) error { return e.SetCells(tick) }},
		{"overwrite B2 with a value", func(e *Engine) error { return e.Set(2, 2, "7") }},
		{"clear B4", func(e *Engine) error { return e.Clear(4, 2) }},
		{"delete row 3", func(e *Engine) error { return e.DeleteRows(3, 1) }},
		{"tick again", func(e *Engine) error { return e.SetCells(tick) }},
	}
	sync, async := newEngine(t), newAsyncEngine(t)
	for _, e := range []*Engine{sync, async} {
		if err := e.SetCells(setup); err != nil {
			t.Fatal(err)
		}
		mustDrain(t, e)
	}
	for _, st := range steps {
		for _, e := range []*Engine{sync, async} {
			if err := st.do(e); err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
		}
		pending := async.cache.PendingRefs()
		if len(pending) == 0 {
			t.Fatalf("after %s nothing is pending", st.name)
		}
		for _, r := range pending {
			if _, _, live := async.deps.Formula(r); !live {
				t.Fatalf("after %s, %v is pending without a formula", st.name, r)
			}
		}
	}
	mustDrain(t, async)
	for row := 1; row <= 6; row++ {
		for col := 1; col <= 3; col++ {
			if a, b := sync.GetCell(row, col), async.GetCell(row, col); !a.Value.Equal(b.Value) || a.Formula != b.Formula {
				t.Fatalf("(%d,%d): sync %v/%q, async %v/%q", row, col, a.Value, a.Formula, b.Value, b.Formula)
			}
		}
	}
}

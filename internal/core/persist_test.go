package core

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"dataspread/internal/depgraph"
	"dataspread/internal/formula"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// TestLoadRestoresCyclePoisonedFormulas: a reloaded engine must hold
// exactly the saving engine's formula state — both members of a cycle
// registered like any formula, source intact, showing #CYCLE! — so edit
// behavior does not diverge after a reload.
func TestLoadRestoresCyclePoisonedFormulas(t *testing.T) {
	db := rdbms.Open(rdbms.Options{})
	e, err := New(db, "s", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetFormula(1, 1, "B1"); err != nil { // A1 = B1
		t.Fatal(err)
	}
	if err := e.SetFormula(1, 2, "A1"); err != nil { // B1 = A1: a cycle
		t.Fatal(err)
	}
	b1 := sheet.Ref{Row: 1, Col: 2}
	cycle := func(eng *Engine, when string) {
		t.Helper()
		exprs := exprsOf(eng)
		if expr, ok := exprs[b1]; !ok || expr.String() != "A1" || len(exprs) != 2 {
			t.Fatalf("%s: registry %v, want A1 = B1 and B1 = A1", when, exprs)
		}
		for col := 1; col <= 2; col++ {
			if v := eng.GetCell(1, col).Value; !v.Equal(sheet.ErrCycle) {
				t.Fatalf("%s: column %d = %v, want #CYCLE!", when, col, v)
			}
		}
	}
	cycle(e, "saving engine")
	if err := e.Save(); err != nil {
		t.Fatal(err)
	}
	e2, err := Load(db, "s", Options{})
	if err != nil {
		t.Fatal(err)
	}
	cycle(e2, "reloaded engine")
	// Behavioral equivalence: replacing A1 with a literal formula breaks
	// the cycle, so B1 re-evaluates identically in both sessions.
	for name, eng := range map[string]*Engine{"orig": e, "reloaded": e2} {
		if err := eng.SetFormula(1, 1, "9"); err != nil {
			t.Fatal(err)
		}
		if v := eng.GetCell(1, 2).Value; !v.Equal(sheet.Number(9)) {
			t.Fatalf("%s: B1 = %v after A1 edit, want 9", name, v)
		}
		if _, ok := exprsOf(eng)[b1]; !ok {
			t.Fatalf("%s: B1 missing from the registry", name)
		}
	}
	// And the registration survives a second save/load hop.
	if err := e2.Save(); err != nil {
		t.Fatal(err)
	}
	e3, err := Load(db, "s", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := exprsOf(e3)[b1]; !ok {
		t.Fatal("B1 lost on the second round trip")
	}
	if v := e3.GetCell(1, 2).Value; !v.Equal(sheet.Number(9)) {
		t.Fatalf("second round trip B1 = %v, want 9", v)
	}
}

// TestLoadSettlesFlaggedCycleRecords: earlier writers saved every cell they
// showed #CYCLE! — a reader downstream of a cycle included — as a flag-1
// record with #CYCLE! stored. Load registers such a record as a run of one
// and settles it: the cycle's members stay #CYCLE!, the reader evaluates.
func TestLoadSettlesFlaggedCycleRecords(t *testing.T) {
	for _, async := range []bool{false, true} {
		db := rdbms.Open(rdbms.Options{})
		e, err := New(db, "s", Options{})
		if err != nil {
			t.Fatal(err)
		}
		// C1 = A1 stores the #CYCLE! an earlier writer stored for COUNTA(A1).
		if err := e.SetCells([]CellEdit{{Row: 1, Col: 1, Input: "=B1"}, {Row: 1, Col: 2, Input: "=A1"}, {Row: 1, Col: 3, Input: "=A1"}}); err != nil {
			t.Fatal(err)
		}
		if err := e.Save(); err != nil {
			t.Fatal(err)
		}
		blob := rdbms.AppendRecord(nil, rdbms.Row{rdbms.Int(3)})
		for col, src := range []string{"B1", "A1", "COUNTA(A1)"} {
			blob = rdbms.AppendRecord(blob, rdbms.Row{rdbms.Int(int64(col + 1)), rdbms.Int(1), rdbms.Int(1), rdbms.Int(flagCycle), rdbms.Text(src)})
		}
		db.PutMeta(formulasKey("s"), blob)
		e2, err := Load(db, "s", Options{AsyncRecalc: async})
		if err != nil {
			t.Fatal(err)
		}
		mustDrain(t, e2)
		want := []sheet.Value{sheet.ErrCycle, sheet.ErrCycle, sheet.Number(1)}
		for col, v := range want {
			if c := e2.GetCell(1, col+1); !c.Value.Equal(v) || !c.HasFormula() {
				t.Fatalf("async=%v: column %d = %+v, want %v", async, col+1, c, v)
			}
		}
		if err := e2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSheetNameValidation: names that would collide with the ':'-separated
// manifest key conventions are rejected at creation.
func TestSheetNameValidation(t *testing.T) {
	db := rdbms.Open(rdbms.Options{})
	for _, name := range []string{"", "a:b", "x:formulas", "y:seg:1"} {
		if _, err := New(db, name, Options{}); err == nil {
			t.Errorf("New accepted invalid sheet name %q", name)
		}
	}
	if _, err := New(db, "plain_name-2", Options{}); err != nil {
		t.Errorf("New rejected valid name: %v", err)
	}
}

// TestStructuralEditShiftsCycleSources: a formula on a cycle is registered
// like any other, so its source text tracks structural edits and the
// persisted text never goes stale relative to the cells it names.
func TestStructuralEditShiftsCycleSources(t *testing.T) {
	db := rdbms.Open(rdbms.Options{})
	e, err := New(db, "s", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetFormula(20, 1, "A30"); err != nil { // A20 = A30
		t.Fatal(err)
	}
	if err := e.SetFormula(30, 1, "A20"); err != nil { // A30 = A20: a cycle
		t.Fatal(err)
	}
	// Insert 5 rows after row 10: A30 moves to A35 and its reference to A20
	// (now A25) is rewritten.
	if err := e.InsertRowsAfter(10, 5); err != nil {
		t.Fatal(err)
	}
	moved := sheet.Ref{Row: 35, Col: 1}
	check := func(eng *Engine, when string) {
		t.Helper()
		if expr, ok := exprsOf(eng)[moved]; !ok || expr.String() != "A25" {
			t.Fatalf("%s: registry holds %v at A35, want A25", when, expr)
		}
		if c := eng.GetCell(35, 1); c.Formula != "A25" || !c.Value.Equal(sheet.ErrCycle) {
			t.Fatalf("%s: A35 = %+v, want A25 showing #CYCLE!", when, c)
		}
	}
	check(e, "after the shift")
	// And the shifted state round-trips.
	if err := e.Save(); err != nil {
		t.Fatal(err)
	}
	e2, err := Load(db, "s", Options{})
	if err != nil {
		t.Fatal(err)
	}
	check(e2, "reloaded")
}

// TestFailedLoadAndOpenLeaveNoDispatcher: an AsyncRecalc Load over a damaged
// formula set, and an AsyncRecalc Open of a sheet holding a formula that does
// not parse, must fail naming the sheet or cell, return no engine, and leave
// no dispatcher goroutine (and the engine it pins) behind.
func TestFailedLoadAndOpenLeaveNoDispatcher(t *testing.T) {
	settled := func(want int) int {
		for i := 0; i < 100 && runtime.NumGoroutine() > want; i++ {
			time.Sleep(10 * time.Millisecond)
		}
		return runtime.NumGoroutine()
	}
	db := rdbms.Open(rdbms.Options{})
	e, err := New(db, "s", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 40; r++ {
		if err := e.SetFormula(r, 1, fmt.Sprintf("B%d*%d", r, r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Save(); err != nil {
		t.Fatal(err)
	}
	blob, ok, err := db.MetaValue(formulasKey("s"))
	if err != nil || !ok || len(blob) < 16 {
		t.Fatalf("formula set value: %d bytes, %v, %v", len(blob), ok, err)
	}
	db.PutMeta(formulasKey("s"), blob[:len(blob)-5])
	before := runtime.NumGoroutine()
	eng, err := Load(db, "s", Options{AsyncRecalc: true})
	if err == nil || eng != nil {
		t.Fatalf("Load over a truncated formula set = %v, %v", eng, err)
	}
	if !strings.Contains(err.Error(), `sheet "s"`) || !strings.Contains(err.Error(), "formula set") {
		t.Errorf("error %q does not name the sheet and its formula set", err)
	}
	if after := settled(before); after > before {
		t.Errorf("failed Load left goroutines behind: %d before, %d after", before, after)
	}

	sh := sheet.New("bad")
	sh.SetValue(1, 1, sheet.Number(1))
	sh.SetFormula(2, 1, "SUM((")
	before = runtime.NumGoroutine()
	eng, err = Open(db, "bad", sh, "rom", Options{AsyncRecalc: true})
	if err == nil || eng != nil {
		t.Fatalf("Open with an unparsable formula = %v, %v", eng, err)
	}
	if after := settled(before); after > before {
		t.Errorf("failed Open left goroutines behind: %d before, %d after", before, after)
	}
}

// fillDown is one shape a formula takes as it is filled down a column.
var fillDown = []func(r int) string{
	func(r int) string { return fmt.Sprintf("SUM(A%d:D%d)", r, r) },
	func(r int) string { return fmt.Sprintf("$A$1+A%d", r) },
	func(r int) string { return fmt.Sprintf("A$1*$B%d", r) },
	func(r int) string { return fmt.Sprintf("IF(A%d>0,ROUND(SUM(A%d:$B%d)/3,2),-C%d%%)", r, r+1, r+3, r) },
	func(r int) string { return fmt.Sprintf("SUM($A$1:A%d)&\"x\"", r) },
	func(r int) string { return fmt.Sprintf("#REF!+B%d", r) },
	func(r int) string { return fmt.Sprintf("A1*%d", r) }, // never a run: the factor changes, the row does not
	func(r int) string { return "1+2" },                   // no reads: every row equals the head
	func(r int) string { return fmt.Sprintf("D%d:A$2", r) },
}

// randomFormulaEngine builds a seeded formula population on a fresh sheet:
// values in columns A-E, fill-down columns from F on with holes, runs
// interrupted by one different formula, adjacent columns of different shapes,
// a cycle-poisoned pair, then a few structural edits (which shift references,
// split runs and leave #REF! behind).
func randomFormulaEngine(t testing.TB, seed int64) (*rdbms.DB, *Engine) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := rdbms.Open(rdbms.Options{})
	e, err := New(db, "p", Options{})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var edits []CellEdit
	for r := 1; r <= 30; r++ {
		for c := 1; c <= 5; c++ {
			edits = append(edits, CellEdit{Row: r, Col: c, Input: fmt.Sprint(rng.Intn(100) - 20)})
		}
	}
	for c := 6; c < 6+3+rng.Intn(8); c++ {
		shape := fillDown[rng.Intn(len(fillDown))]
		top := 1 + rng.Intn(10)
		for r := top; r < top+2+rng.Intn(60); r++ {
			switch rng.Intn(12) {
			case 0: // a hole
			case 1: // one different formula in the run
				edits = append(edits, CellEdit{Row: r, Col: c, Input: "=" + fillDown[rng.Intn(len(fillDown))](r+1)})
			default:
				edits = append(edits, CellEdit{Row: r, Col: c, Input: "=" + shape(r)})
			}
		}
	}
	_, err = e.ApplyCells(edits)
	must(err)
	must(e.SetFormula(5, 30, "AE5+1")) // AD5 = AE5+1
	must(e.SetFormula(5, 31, "AD5+1")) // AE5 = AD5+1: poisoned
	must(e.SetFormula(6, 31, "AE6"))   // reads itself: poisoned, right below
	for i := rng.Intn(4); i > 0; i-- {
		if at := 2 + rng.Intn(40); rng.Intn(2) == 0 {
			must(e.InsertRowsAfter(at, 1+rng.Intn(3)))
		} else {
			must(e.DeleteRows(at, 1+rng.Intn(2)))
		}
	}
	return db, e
}

// TestFormulaRunsRoundTripProperty: seeded random formula populations go
// through save -> reopen -> save. Every cell's expression text and the
// graph's precedents equal the original, the cycle and constant sets too, and
// the two saved values are byte-identical (one population, one encoding); on
// every vertical pair the walk that extends a run agrees with comparing text.
func TestFormulaRunsRoundTripProperty(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		db, e := randomFormulaEngine(t, seed)
		if err := e.Save(); err != nil {
			t.Fatal(err)
		}
		blob, ok, err := db.MetaValue(formulasKey("p"))
		if err != nil || !ok {
			t.Fatalf("seed %d: no formula set saved: %v", seed, err)
		}
		poisoned := 0
		for ref := range exprsOf(e) {
			if e.GetCell(ref.Row, ref.Col).Value.Equal(sheet.ErrCycle) {
				poisoned++
			}
		}
		if poisoned == 0 || len(exprsOf(e)) < 6 {
			t.Fatalf("seed %d: population of %d formulas, %d poisoned", seed, len(exprsOf(e)), poisoned)
		}
		records := 0
		for rest := blob; len(rest) > 0; records++ {
			var err error
			if _, rest, err = rdbms.NextRecord(rest); err != nil {
				t.Fatalf("seed %d: record %d: %v", seed, records, err)
			}
		}
		e2, err := Load(db, "p", Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(exprsOf(e2)) != len(exprsOf(e)) {
			t.Fatalf("seed %d: %d formulas saved in %d records, %d loaded", seed, len(exprsOf(e)), records, len(exprsOf(e2)))
		}
		for ref, expr := range exprsOf(e) {
			got, ok := exprsOf(e2)[ref]
			if !ok || got.String() != expr.String() {
				t.Fatalf("seed %d: %v = %q reloads as %v", seed, ref, expr, got)
			}
			if want := e.deps.Precedents(ref); !reflect.DeepEqual(e2.deps.Precedents(ref), want) {
				t.Fatalf("seed %d: %v = %q reads %v, reloaded %v", seed, ref, expr, want, e2.deps.Precedents(ref))
			}
			// The cell below: the structural walk and the text must agree.
			below := sheet.Ref{Row: ref.Row + 1, Col: ref.Col}
			if next, ok := exprsOf(e)[below]; ok {
				head, err := formula.Parse(expr.String())
				if err != nil {
					t.Fatal(err)
				}
				if walk, text := formula.IsMovedDown(expr, next, 1), formula.MoveDown(head, 1).String() == next.String(); walk != text {
					t.Fatalf("seed %d: %v = %q over %q: walk says %v, text says %v", seed, ref, expr, next, walk, text)
				}
			}
			if v, v2 := e.GetCell(ref.Row, ref.Col).Value, e2.GetCell(ref.Row, ref.Col).Value; !v2.Equal(v) {
				t.Fatalf("seed %d: %v = %q shows %v, reloaded %v", seed, ref, expr, v, v2)
			}
		}
		if e2.deps.Len() != e.deps.Len() {
			t.Fatalf("seed %d: graph of %d reloads as %d", seed, e.deps.Len(), e2.deps.Len())
		}
		if again := e2.encodeFormulaSet(); !bytes.Equal(again, blob) {
			t.Fatalf("seed %d: the reloaded set encodes differently:\n was % x\n now % x", seed, blob, again)
		}
		if records-1 >= len(exprsOf(e)) {
			t.Fatalf("seed %d: %d records for %d formula cells: nothing ran", seed, records-1, len(exprsOf(e)))
		}
	}
}

// FuzzFormulaSetDecode feeds mutated formula-set values to the decoder, over
// the seeds' 120x40 sheet and over a 2^20 x 2^14 one: an error, or a set that
// holds as many cells as its first record says and survives its own encoding,
// which writes no flag — never a panic, never a silently shorter set. One
// seed holds flag-1 records, as earlier writers saved cycle-poisoned cells.
func FuzzFormulaSetDecode(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		_, e := randomFormulaEngine(f, seed)
		if r, c := e.Bounds(); r > 120 || c > 40 {
			f.Fatalf("seed %d: population spans %dx%d", seed, r, c)
		}
		f.Add(e.encodeFormulaSet(), false)
		f.Add(e.encodeFormulaSet(), true)
	}
	f.Add(hugeCountFormulaSet(), true)
	f.Add(flaggedFormulaSet(), false)
	f.Fuzz(func(t *testing.T, blob []byte, big bool) {
		rows, cols := 120, 40
		if big {
			rows, cols = 1<<20, 1<<14
		}
		set, err := decodeFormulaSet(blob, rows, cols)
		if err != nil {
			return
		}
		rec, _, err := rdbms.NextRecord(blob)
		if err != nil {
			t.Fatalf("decoded a value whose first record does not: %v", err)
		}
		e := &Engine{deps: depgraph.New()}
		for _, r := range set.runs {
			e.deps.AddRun(r.ref, r.n, r.head)
		}
		if want := int(rec.Int()); e.deps.Len() != want {
			t.Fatalf("decoded %d cells where the value holds %d", e.deps.Len(), want)
		}
		again, err := decodeFormulaSet(e.encodeFormulaSet(), rows, cols)
		if err != nil {
			t.Fatalf("the decoded set does not survive its own encoding: %v", err)
		}
		e2 := &Engine{deps: depgraph.New()}
		for _, r := range again.runs {
			e2.deps.AddRun(r.ref, r.n, r.head)
		}
		if e2.deps.Len() != e.deps.Len() || len(again.poisoned) != 0 {
			t.Fatalf("re-encoded set differs: %d/%d cells, flag-1 records %v", e2.deps.Len(), e.deps.Len(), again.poisoned)
		}
		// Runs the encoding joined must still hold each member's formula:
		// check both ends of every decoded run against the re-decoded one.
		for _, r := range set.runs {
			for _, k := range []int{0, r.n - 1} {
				ref := sheet.Ref{Row: r.ref.Row + k, Col: r.ref.Col}
				head, j, ok := e2.deps.Formula(ref)
				if want := formula.MoveDown(r.head, k).String(); !ok || formula.MoveDown(head, j).String() != want {
					t.Fatalf("%v = %q re-encodes as %v", ref, want, head)
				}
			}
		}
	})
}

// hugeCountFormulaSet claims 1<<34 formula cells — as many as a 2^20 x 2^14
// sheet holds — and carries one run of three.
func hugeCountFormulaSet() []byte {
	blob := rdbms.AppendRecord(nil, rdbms.Row{rdbms.Int(1 << 34)})
	return rdbms.AppendRecord(blob, rdbms.Row{rdbms.Int(1), rdbms.Int(1), rdbms.Int(3), rdbms.Int(0), rdbms.Text("B1+1")})
}

// flaggedFormulaSet is a formula set as earlier writers saved a cycle: A1 and
// B1 read each other, each a flag-1 run of one, and C1..C3 below read A1.
func flaggedFormulaSet() []byte {
	blob := rdbms.AppendRecord(nil, rdbms.Row{rdbms.Int(5)})
	for _, rec := range []struct {
		col, n, flags int
		src           string
	}{{1, 1, flagCycle, "B1"}, {2, 1, flagCycle, "A1"}, {3, 3, 0, "COUNTA($A$1)"}} {
		blob = rdbms.AppendRecord(blob, rdbms.Row{rdbms.Int(int64(rec.col)), rdbms.Int(1), rdbms.Int(int64(rec.n)),
			rdbms.Int(int64(rec.flags)), rdbms.Text(rec.src)})
	}
	return blob
}

// TestFormulaSetDecodeHugeCountIsAnError: a damaged cell count the sheet's
// bounds allow is an error, and the decode's allocation follows the blob, not
// the count (sizing the decode by it used to end the process out of memory).
func TestFormulaSetDecodeHugeCountIsAnError(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeFormulaSet(hugeCountFormulaSet(), 1<<20, 1<<14)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a set claiming 1<<34 cells with 3 decoded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoding a 3-cell set allocated %d bytes", grew)
	}
}

// perCellEncoding is the formula set as a per-cell registry encodes it: every
// formula cell in (column, row) order, a run going on while the next cell down
// holds its head moved down that far.
func perCellEncoding(e *Engine) []byte {
	type cell struct {
		ref  sheet.Ref
		expr formula.Expr
	}
	var cells []cell
	for ref, expr := range exprsOf(e) {
		cells = append(cells, cell{ref, expr})
	}
	slices.SortFunc(cells, func(a, b cell) int {
		return cmp.Or(cmp.Compare(a.ref.Col, b.ref.Col), cmp.Compare(a.ref.Row, b.ref.Row))
	})
	out := rdbms.AppendRecord(nil, rdbms.Row{rdbms.Int(int64(len(cells)))})
	for i := 0; i < len(cells); {
		head, n := cells[i], 1
		for ; i+n < len(cells); n++ {
			next := cells[i+n]
			if next.ref != (sheet.Ref{Row: head.ref.Row + n, Col: head.ref.Col}) || !formula.IsMovedDown(head.expr, next.expr, n) {
				break
			}
		}
		out = rdbms.AppendRecord(out, rdbms.Row{rdbms.Int(int64(head.ref.Col)), rdbms.Int(int64(head.ref.Row)),
			rdbms.Int(int64(n)), rdbms.Int(0), rdbms.Text(head.expr.String())})
		i += n
	}
	return out
}

// TestFormulaSetRunEncodingMatchesPerCell: one population, one encoding. The
// run registry's encoding equals the per-cell walk's, byte for byte, on the
// seeded populations and after a session that splits runs — a value or
// another formula inside them, a row inserted into one — and refills them:
// the formulas put back, the row deleted again. The refilled registry holds
// split runs side by side; they still encode as maximal runs.
func TestFormulaSetRunEncodingMatchesPerCell(t *testing.T) {
	sideBySide := false
	for seed := int64(1); seed <= 40; seed++ {
		_, e := randomFormulaEngine(t, seed)
		if got, want := e.encodeFormulaSet(), perCellEncoding(e); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: run encoding\n% x\nper-cell\n% x", seed, got, want)
		}
		rng := rand.New(rand.NewSource(seed))
		var cells []sheet.Ref // the fill-down columns, not the cycle pair's
		for ref := range exprsOf(e) {
			if ref.Col < 30 {
				cells = append(cells, ref)
			}
		}
		slices.SortFunc(cells, func(a, b sheet.Ref) int { return cmp.Or(cmp.Compare(a.Row, b.Row), cmp.Compare(a.Col, b.Col)) })
		before := e.encodeFormulaSet()
		var refill []CellEdit
		for range 6 {
			c := cells[rng.Intn(len(cells))]
			was := e.GetCell(c.Row, c.Col)
			if was.Formula != "" {
				was.Value = sheet.Str("=" + was.Formula)
			}
			refill = append(refill, CellEdit{Row: c.Row, Col: c.Col, Input: was.Value.Text()})
			input := fmt.Sprint(rng.Intn(9))
			if rng.Intn(2) == 0 {
				input = "=" + fillDown[rng.Intn(len(fillDown))](c.Row)
			}
			if err := e.Set(c.Row, c.Col, input); err != nil {
				t.Fatal(err)
			}
		}
		at := cells[rng.Intn(len(cells))].Row
		if err := e.InsertRowsAfter(at, 1); err != nil {
			t.Fatal(err)
		}
		if got, want := e.encodeFormulaSet(), perCellEncoding(e); !bytes.Equal(got, want) {
			t.Fatalf("seed %d split: run encoding\n% x\nper-cell\n% x", seed, got, want)
		}
		if err := e.DeleteRows(at+1, 1); err != nil {
			t.Fatal(err)
		}
		for i := len(refill) - 1; i >= 0; i-- {
			if err := e.Set(refill[i].Row, refill[i].Col, refill[i].Input); err != nil {
				t.Fatal(err)
			}
		}
		got := e.encodeFormulaSet()
		if want := perCellEncoding(e); !bytes.Equal(got, want) {
			t.Fatalf("seed %d refilled: run encoding\n% x\nper-cell\n% x", seed, got, want)
		}
		if !bytes.Equal(got, before) {
			t.Fatalf("seed %d: split and refilled, the set encodes differently:\n was % x\n now % x", seed, before, got)
		}
		runs, records := 0, -1
		e.deps.Runs(func(sheet.Ref, int, formula.Expr) { runs++ })
		for rest := got; len(rest) > 0; records++ {
			_, rest, _ = rdbms.NextRecord(rest)
		}
		sideBySide = sideBySide || runs > records
	}
	if !sideBySide {
		t.Fatal("no session left split runs side by side")
	}
}

package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"dataspread/internal/formula"
	"dataspread/internal/hybrid"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// Tests of the engine's own concurrency (latch.go): a bare engine, no server
// around it, readers on other goroutines than the writer. Run under -race.

// An AsyncRecalc engine ticking a 5,280-cell cone while two goroutines read
// the cone's table cold (the cache holds 2 of the range's 6 tiles): nothing
// races, and every ReadRange reply is self-consistent — a formula cell not
// flagged pending equals its input as that same reply shows it — with
// generations that never go backwards.
func TestConcurrentReadersBesideAsyncRecalc(t *testing.T) {
	const rows, cols, ticks = 352, 16, 25 // formulas in B..P of every row
	e, err := New(rdbms.Open(rdbms.Options{}), "c", Options{AsyncRecalc: true, CacheBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	offset := func(r, c int) float64 { return float64(r*100 + c) }
	seed := []CellEdit{{Row: 1, Col: 1, Input: "0"}}
	for r := 1; r <= rows; r++ {
		for c := 2; c <= cols; c++ {
			seed = append(seed, CellEdit{Row: r, Col: c, Input: fmt.Sprintf("=A1+%v", offset(r, c))})
		}
	}
	if err := e.SetCells(seed); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, e)
	all := sheet.NewRange(1, 1, rows, cols)
	// check returns how many formula cells the reply showed settled.
	check := func(cells [][]sheet.Cell, pending [][]bool) (int, error) {
		tick, _ := cells[0][0].Value.Num()
		settled := 0
		for r := 1; r <= rows; r++ {
			for c := 2; c <= cols; c++ {
				if pending != nil && pending[r-1][c-1] {
					continue
				}
				if got, _ := cells[r-1][c-1].Value.Num(); got != tick+offset(r, c) {
					return 0, fmt.Errorf("(%d,%d) = %v unflagged beside A1 = %v", r, c, cells[r-1][c-1].Value, tick)
				}
				settled++
			}
		}
		return settled, nil
	}
	var done atomic.Bool
	var settled atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for !done.Load() {
				cells, pending, gen, err := e.ReadRange(all)
				if err != nil || gen < last {
					t.Errorf("ReadRange: generation %d after %d, %v", gen, last, err)
					return
				}
				last = gen
				n, err := check(cells, pending)
				if err != nil {
					t.Errorf("generation %d: %v", gen, err)
					return
				}
				settled.Add(int64(n))
				// The other read entries, beside the same dispatcher.
				if got := len(e.GetCells(all)); got != rows {
					t.Errorf("GetCells returned %d rows", got)
					return
				}
				seen := 0
				e.VisitRange(all, func(sheet.Ref, sheet.Value) bool { seen++; return true })
				if seen != rows*(cols-1)+1 {
					t.Errorf("VisitRange saw %d cells", seen)
					return
				}
			}
		}()
	}
	for tick := 1; tick <= ticks && !t.Failed(); tick++ {
		if err := e.Set(1, 1, fmt.Sprint(tick)); err != nil {
			t.Errorf("tick %d: %v", tick, err)
		}
		if tick%5 == 0 {
			mustDrain(t, e)
		}
	}
	done.Store(true)
	wg.Wait()
	if err := e.ReadErr(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d settled formula cells checked beside the dispatcher", settled.Load())
	mustDrain(t, e)
	cells, pending, _, err := e.ReadRange(all)
	if n, cerr := check(cells, pending); err != nil || cerr != nil || n != rows*(cols-1) {
		t.Fatalf("drained sheet: %d of %d formula cells right, %v, %v", n, rows*(cols-1), err, cerr)
	}
}

// Cold readers beside a writer whose every batch spans a row-oriented region,
// a column-oriented one and the overflow table: the cache holds 2 of the
// range's 6 tiles, so every read loads from the store and waits out the write
// window, whichever tables the batch in it writes. Every reply is one whole
// batch, stamped with its generation — the writer is alone and writes no
// formula, so batch v is generation g0+v.
func TestConcurrentColdReadersAcrossRegions(t *testing.T) {
	const rows, cols, batches = 130, 20, 20
	bothModes(t, func(t *testing.T, e *Engine) {
		for _, reg := range []hybrid.Region{
			{Rect: sheet.NewRange(1, 1, rows, 6), Kind: hybrid.ROM},
			{Rect: sheet.NewRange(1, 7, rows, 12), Kind: hybrid.COM},
		} {
			if _, err := e.Store().AddRegion(reg.Rect, reg.Kind); err != nil {
				t.Fatal(err)
			}
		}
		regions := e.Store().Regions()
		if len(regions) != 2 {
			t.Fatalf("%d regions, want 2", len(regions))
		}
		for _, reg := range regions {
			if reg.Rect.Contains(sheet.Ref{Row: 1, Col: cols}) {
				t.Fatalf("region %v covers column %d: the range has no overflow cells", reg.Rect, cols)
			}
		}
		all := sheet.NewRange(1, 1, rows, cols)
		batch := func(v int) []CellEdit {
			edits := make([]CellEdit, 0, all.Area())
			for r := 1; r <= rows; r++ {
				for c := 1; c <= cols; c++ {
					edits = append(edits, CellEdit{Row: r, Col: c, Input: fmt.Sprint(v)})
				}
			}
			return edits
		}
		g0, err := e.ApplyCells(batch(0))
		if err != nil {
			t.Fatal(err)
		}
		var done atomic.Bool
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !done.Load() {
					cells, _, gen, err := e.ReadRange(all)
					if err != nil {
						t.Errorf("ReadRange: %v", err)
						return
					}
					want := sheet.Number(float64(gen - g0))
					for i, row := range cells {
						for j, c := range row {
							if !c.Value.Equal(want) {
								t.Errorf("generation %d (batch %d): (%d,%d) = %v", gen, gen-g0, i+1, j+1, c.Value)
								return
							}
						}
					}
				}
			}()
		}
		for v := 1; v <= batches && !t.Failed(); v++ {
			if gen, err := e.ApplyCells(batch(v)); err != nil || gen != g0+uint64(v) {
				t.Errorf("batch %d: generation %d, %v", v, gen, err)
			}
		}
		done.Store(true)
		wg.Wait()
		if misses := e.CacheStats().Misses; misses == 0 {
			t.Fatal("no read loaded a block from the store")
		}
	}, Options{CacheBlocks: 2})
}

// Readers beside everything that moves the region layout — structural edits,
// LinkTable (one that succeeds, one that fails after clearing its range) and
// Optimize — called directly on a bare engine, in both recalc modes: every
// stamped read shows, in its unflagged cells, the sheet as it stood at that
// generation, nothing hangs, nothing stays pending after a Drain.
func TestConcurrentReadersBesideStructureChanges(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		const rows, cols = 140, 8
		all := sheet.NewRange(1, 1, rows, cols)
		edits := []CellEdit{
			{Row: 1, Col: 1, Input: "id"}, {Row: 1, Col: 2, Input: "amount"},
			{Row: 2, Col: 1, Input: "1"}, {Row: 2, Col: 2, Input: "100"},
			{Row: 3, Col: 1, Input: "2"}, {Row: 3, Col: 2, Input: "200"},
			{Row: 1, Col: 8, Input: "=SUM(B2:B3)"},   // reads the linked range
			{Row: 2, Col: 8, Input: "=SUM(A5:A130)"}, // absorbs inserted rows
			{Row: 3, Col: 8, Input: "=SUM(A5:F5)"},   // loses a deleted column
			{Row: 4, Col: 8, Input: "=SUM(A60:B62)"}, // reads the range of the failing link
		}
		for r := 5; r <= 130; r++ {
			for c := 1; c <= 6; c++ {
				edits = append(edits, CellEdit{Row: r, Col: c, Input: fmt.Sprint(r*100 + c)})
			}
		}
		if err := e.SetCells(edits); err != nil {
			t.Fatal(err)
		}
		mustDrain(t, e)

		// states holds the sheet at each generation; a read of a generation
		// not in it yet waits in stash.
		type sample struct {
			cells   [][]sheet.Cell
			pending [][]bool
			gen     uint64
		}
		var mu sync.Mutex
		states := map[uint64][][]sheet.Cell{}
		var stash []sample
		verify := func(s sample) {
			want := states[s.gen]
			for i, row := range s.cells {
				for j, c := range row {
					if (s.pending == nil || !s.pending[i][j]) && c != want[i][j] {
						t.Errorf("generation %d: (%d,%d) = %+v, want %+v", s.gen, i+1, j+1, c, want[i][j])
						return
					}
				}
			}
		}
		// settled records the drained sheet under its generation.
		settled := func(what string) {
			within(t, "Drain after "+what, func() {
				if err := e.Drain(); err != nil {
					t.Errorf("Drain after %s: %v", what, err)
				}
			})
			cells, pending, gen, err := e.ReadRange(all)
			if err != nil || pending != nil || e.PendingCount() != 0 {
				t.Fatalf("after %s: %d cells pending, %v", what, e.PendingCount(), err)
			}
			mu.Lock()
			states[gen] = cells
			mu.Unlock()
		}
		settled("the seed")

		var done atomic.Bool
		var wg sync.WaitGroup
		// One reader of the whole sheet and one of its first tile.
		for _, g := range []sheet.Range{all, sheet.NewRange(1, 1, 60, cols)} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var last uint64
				for !done.Load() {
					cells, pending, gen, err := e.ReadRange(g)
					if err != nil || gen < last {
						t.Errorf("ReadRange: generation %d after %d, %v", gen, last, err)
						return
					}
					last = gen
					mu.Lock()
					if s := (sample{cells, pending, gen}); states[gen] != nil {
						verify(s)
					} else {
						stash = append(stash, s)
					}
					mu.Unlock()
				}
			}()
		}
		step := func(what string, op func() error, wantErr bool) {
			within(t, what, func() {
				if err := op(); (err != nil) != wantErr {
					t.Errorf("%s: %v", what, err)
				}
			})
			settled(what)
		}
		// cleared predicts the generation between a LinkTable's clearing of its
		// range and its link: the sheet before it, the range blank (the formulas
		// reading the range are flagged throughout).
		cleared := func(g sheet.Range) {
			cells, _, gen, _ := e.ReadRange(all)
			for r := g.From.Row; r <= g.To.Row; r++ {
				for c := g.From.Col; c <= g.To.Col; c++ {
					cells[r-1][c-1] = sheet.Cell{}
				}
			}
			mu.Lock()
			states[gen+1] = cells
			mu.Unlock()
		}
		structural := func(when string) {
			step("InsertRowsAfter "+when, func() error { return e.InsertRowsAfter(50, 3) }, false)
			step("DeleteColumns "+when, func() error { return e.DeleteColumns(5, 1) }, false)
		}
		structural("in the overflow table")
		linked := sheet.NewRange(1, 1, 3, 2)
		cleared(linked)
		step("LinkTable", func() error { _, err := e.LinkTable(linked, "inv"); return err }, false)
		step("Optimize", func() error { _, err := e.Optimize("rom", 1); return err }, false)
		// Over a row-oriented region now: the link fails after its range is
		// cleared, so the cleared sheet is also what the step leaves behind.
		step("failing LinkTable", func() error { _, err := e.LinkTable(sheet.NewRange(60, 1, 62, 2), "t"); return err }, true)
		if c := e.GetCell(60, 1); !c.IsBlank() {
			t.Fatalf("A60 = %+v after the failing LinkTable, want its range cleared", c)
		}
		structural("in a row-oriented region")
		done.Store(true)
		wg.Wait()
		for _, s := range stash {
			if states[s.gen] == nil {
				t.Fatalf("a read was stamped with generation %d, at which no step left the sheet", s.gen)
			}
			verify(s)
		}
		t.Logf("%d reads waited for their generation's state", len(stash))
	})
}

// TestConcurrentFormulaTextBesideRegistryEdits: cold tile loads (the cache
// holds 2 of the range's 3 tiles) beside a writer that installs, drops and
// shifts formulas and poisons cycles. Each round opens an async engine over a
// sheet with cycles the executor finds only when it plans — it takes them out
// of the registry while the readers load — then edits: fill-down runs typed
// in lower case, clears, row and column shifts, a cycle closed and broken. A
// tile load renders formula text from the registry, so every reply's texts
// must be the registry's at the generation the reply carries; under -race, a
// registry mutation outside both latches (poisonCycles' removal after its
// write window, say) races with those loads.
func TestConcurrentFormulaTextBesideRegistryEdits(t *testing.T) {
	const rows, cols = 192, 16
	all := sheet.NewRange(1, 1, rows, cols)
	s := sheet.New("text")
	for r := 1; r <= rows; r++ {
		s.SetValue(r, 1, sheet.Number(float64(r)))
		s.SetFormula(r, 4, fmt.Sprintf("A%d*2", r))
		s.SetFormula(r, 5, fmt.Sprintf("SUM(A%d:D%d)", r, r))
	}
	for _, r := range []int{1, 70, 150} { // cycles in each tile
		s.SetFormula(r, 2, fmt.Sprintf("C%d+1", r))
		s.SetFormula(r, 3, fmt.Sprintf("B%d+1", r))
	}
	// texts is what the registry says of all's formulas; the caller holds
	// the edit lock, which every registry mutation holds too.
	texts := func(e *Engine) map[sheet.Ref]string {
		out := map[sheet.Ref]string{}
		e.deps.RunsIn(all, func(first sheet.Ref, k, n int, head formula.Expr) {
			for i := range n {
				out[sheet.Ref{Row: first.Row + i, Col: first.Col}] = string(formula.AppendAt(nil, head, k+i))
			}
		})
		for ref, src := range e.cycles {
			if all.Contains(ref) {
				out[ref] = src
			}
		}
		return out
	}
	served := func(cells [][]sheet.Cell) map[sheet.Ref]string {
		out := map[sheet.Ref]string{}
		for i, row := range cells {
			for j, c := range row {
				if c.Formula != "" {
					out[sheet.Ref{Row: i + 1, Col: j + 1}] = c.Formula
				}
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(3))
	checked := 0
	for round := range 3 {
		e, err := Open(rdbms.Open(rdbms.Options{}), "text", s, "rom", Options{AsyncRecalc: true, CacheBlocks: 2})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		want := map[uint64]map[sheet.Ref]string{}
		type sample struct {
			gen   uint64
			texts map[sheet.Ref]string
		}
		var stash []sample
		verify := func(sm sample) {
			w := want[sm.gen]
			for ref, text := range w {
				if sm.texts[ref] != text {
					t.Errorf("round %d generation %d: %v served %q, registry %q", round, sm.gen, ref, sm.texts[ref], text)
					return
				}
			}
			if len(sm.texts) != len(w) {
				t.Errorf("round %d generation %d: %d formulas served, %d registered", round, sm.gen, len(sm.texts), len(w))
			}
		}
		record := func() {
			e.writeMu.Lock()
			gen, w := e.gen.Load(), texts(e)
			e.writeMu.Unlock()
			mu.Lock()
			want[gen] = w
			mu.Unlock()
		}
		record()
		var done atomic.Bool
		var wg sync.WaitGroup
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !done.Load() {
					cells, _, gen, err := e.ReadRange(all)
					if err != nil {
						t.Errorf("ReadRange: %v", err)
						return
					}
					sm := sample{gen, served(cells)}
					mu.Lock()
					if want[gen] != nil {
						verify(sm)
						checked++
					} else {
						stash = append(stash, sm)
					}
					mu.Unlock()
				}
			}()
		}
		for step := 0; step < 30 && !t.Failed(); step++ {
			r, c := rng.Intn(rows-20)+1, rng.Intn(8)+6
			var err error
			switch rng.Intn(6) {
			case 0: // a fill-down run, typed in lower case
				var edits []CellEdit
				for i := range rng.Intn(20) + 1 {
					edits = append(edits, CellEdit{Row: r + i, Col: c, Input: fmt.Sprintf("=a%d + %d", r+i, c)})
				}
				err = e.SetCells(edits)
			case 1: // clear part of a run and of the seeded columns
				var edits []CellEdit
				for i := range rng.Intn(10) + 1 {
					edits = append(edits, CellEdit{Row: r + i, Col: []int{4, 5, c}[i%3]})
				}
				err = e.SetCells(edits)
			case 2:
				err = e.InsertRowsAfter(r, rng.Intn(3)+1)
			case 3:
				err = e.DeleteRows(r, rng.Intn(2)+1)
			case 4:
				if rng.Intn(2) == 0 {
					err = e.InsertColumnsAfter(c, 1)
				} else {
					err = e.DeleteColumns(c, 1)
				}
			case 5: // close a cycle; break it again half the time
				err = e.SetCells([]CellEdit{{Row: r, Col: 14, Input: fmt.Sprintf("=O%d+1", r)}, {Row: r, Col: 15, Input: fmt.Sprintf("=N%d+1", r)}})
				if err == nil && rng.Intn(2) == 0 {
					record()
					err = e.Set(r, 15, "7")
				}
			}
			if err != nil {
				t.Fatalf("round %d step %d: %v", round, step, err)
			}
			record()
		}
		done.Store(true)
		wg.Wait()
		mustDrain(t, e)
		for _, sm := range stash {
			if want[sm.gen] == nil {
				t.Fatalf("round %d: a read was stamped with generation %d, at which no step left the sheet", round, sm.gen)
			}
			verify(sm)
		}
		checked += len(stash)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d replies' formula text checked against the registry", checked)
}

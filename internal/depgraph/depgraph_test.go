package depgraph

import (
	"math/rand"
	"slices"
	"testing"

	"dataspread/internal/sheet"
)

func ref(row, col int) sheet.Ref { return sheet.Ref{Row: row, Col: col} }

func cellRange(row, col int) []sheet.Range {
	return []sheet.Range{sheet.NewRange(row, col, row, col)}
}

func TestDirectDependents(t *testing.T) {
	g := New()
	// B1 = A1+1 ; C1 = B1*2 ; D1 = SUM(A1:B1)
	g.Set(ref(1, 2), cellRange(1, 1))
	g.Set(ref(1, 3), cellRange(1, 2))
	g.Set(ref(1, 4), []sheet.Range{sheet.NewRange(1, 1, 1, 2)})

	deps := g.DirectDependents(sheet.NewRange(1, 1, 1, 1))
	if len(deps) != 2 || deps[0] != ref(1, 2) || deps[1] != ref(1, 4) {
		t.Fatalf("dependents of A1 = %v", deps)
	}
	deps = g.DirectDependents(sheet.NewRange(9, 9, 9, 9))
	if len(deps) != 0 {
		t.Fatalf("dependents of unrelated cell = %v", deps)
	}
}

// reach is what Mark walks from refs over an empty pending set.
func reach(g *Graph, refs ...sheet.Ref) []sheet.Ref {
	seen := map[sheet.Ref]bool{}
	var out []sheet.Ref
	g.Mark(refs, visitSet(seen, nil, func(r sheet.Ref) { out = append(out, r) }))
	return out
}

// affected is the engine's recalculation query: mark what a change at refs
// reaches (Mark), then order the marked set (AffectedFrom / ConeFrom).
func affected(g *Graph, refs ...sheet.Ref) (order, cycles []sheet.Ref) {
	return g.AffectedFrom(reach(g, refs...))
}

func TestAffectedTopologicalOrder(t *testing.T) {
	g := New()
	// Chain: B1 <- A1, C1 <- B1, D1 <- C1.
	g.Set(ref(1, 2), cellRange(1, 1))
	g.Set(ref(1, 3), cellRange(1, 2))
	g.Set(ref(1, 4), cellRange(1, 3))

	order, cycles := affected(g, ref(1, 1))
	if len(cycles) != 0 {
		t.Fatalf("unexpected cycles: %v", cycles)
	}
	want := []sheet.Ref{ref(1, 2), ref(1, 3), ref(1, 4)}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v want %v", order, want)
		}
	}
}

func TestAffectedDiamond(t *testing.T) {
	g := New()
	// B1 and C1 read A1; D1 reads both.
	g.Set(ref(1, 2), cellRange(1, 1))
	g.Set(ref(1, 3), cellRange(1, 1))
	g.Set(ref(1, 4), []sheet.Range{sheet.NewRange(1, 2, 1, 3)})

	order, cycles := affected(g, ref(1, 1))
	if len(cycles) != 0 || len(order) != 3 {
		t.Fatalf("order=%v cycles=%v", order, cycles)
	}
	if order[2] != ref(1, 4) {
		t.Fatalf("D1 must evaluate last: %v", order)
	}
}

func TestAffectedCycleDetection(t *testing.T) {
	g := New()
	// B1 <- A1; C1 <- B1; B1 also <- C1 (cycle between B1 and C1); D1 <- C1
	// downstream of it; E1 <- E1 and A1, a self-read.
	g.Set(ref(1, 2), []sheet.Range{sheet.NewRange(1, 1, 1, 1), sheet.NewRange(1, 3, 1, 3)})
	g.Set(ref(1, 3), cellRange(1, 2))
	g.Set(ref(1, 4), cellRange(1, 3))
	g.Set(ref(1, 5), []sheet.Range{sheet.NewRange(1, 1, 1, 1), sheet.NewRange(1, 5, 1, 5)})

	order, cycles := affected(g, ref(1, 1))
	if !slices.Equal(cycles, []sheet.Ref{ref(1, 2), ref(1, 3), ref(1, 5)}) || !slices.Equal(order, []sheet.Ref{ref(1, 4)}) {
		t.Fatalf("order=%v cycles=%v, want D1 in order and B1, C1, E1 on cycles", order, cycles)
	}
}

func TestSetRemove(t *testing.T) {
	g := New()
	g.Set(ref(1, 1), cellRange(2, 2))
	if g.Len() != 1 || len(g.Precedents(ref(1, 1))) != 1 {
		t.Fatal("Set failed")
	}
	g.Remove(ref(1, 1))
	if g.Len() != 0 {
		t.Fatal("Remove failed")
	}
	// Set with empty reads removes.
	g.Set(ref(1, 1), cellRange(2, 2))
	g.Set(ref(1, 1), nil)
	if g.Len() != 0 {
		t.Fatal("Set(nil) should remove")
	}
	// Each of two ranges is filed once in every stripe it covers, the
	// stripe's column bounds cover both, and Remove leaves no bucket behind.
	g.Set(ref(9, 9), []sheet.Range{sheet.NewRange(1, 1, 70, 1), sheet.NewRange(60, 2, 130, 2)})
	for s, want := range map[int]int{0: 2, 1: 2, 2: 1} {
		if got := len(g.stripes[s]); got != want {
			t.Fatalf("stripe %d holds %d reads of the two-range formula, want %d", s, got, want)
		}
	}
	if got := g.stripeCols[1]; got != [2]int{1, 2} {
		t.Fatalf("stripe 1 bounds columns %v, want [1 2]", got)
	}
	if deps := g.DirectDependents(sheet.NewRange(65, 1, 65, 2)); len(deps) != 1 {
		t.Fatalf("row 65 change: deps = %v", deps)
	}
	g.Remove(ref(9, 9))
	if g.Len() != 0 || len(g.stripes) != 0 || len(g.stripeCols) != 0 || len(g.cols) != 0 {
		t.Fatalf("Remove left %d stripes, %d column bounds, %d registry columns behind", len(g.stripes), len(g.stripeCols), len(g.cols))
	}
}

func TestRangeDependencyGranularity(t *testing.T) {
	g := New()
	// F1 = SUM(A1:A100). A change to A50 must trigger it; a change to B50
	// must not.
	g.Set(ref(1, 6), []sheet.Range{sheet.NewRange(1, 1, 100, 1)})
	if deps := g.DirectDependents(sheet.NewRange(50, 1, 50, 1)); len(deps) != 1 {
		t.Fatalf("A50 change: deps = %v", deps)
	}
	if deps := g.DirectDependents(sheet.NewRange(50, 2, 50, 2)); len(deps) != 0 {
		t.Fatalf("B50 change: deps = %v", deps)
	}
}

// refGraph builds a graph from (formulaCell, reads) pairs for shift tests.
func spanRange(r1, c1, r2, c2 int) sheet.Range { return sheet.NewRange(r1, c1, r2, c2) }

func TestShiftInsertRowsRelocatesKeys(t *testing.T) {
	g := New()
	g.Set(ref(2, 1), cellRange(1, 1))                       // above the edit, reads above
	g.Set(ref(10, 1), cellRange(1, 2))                      // below the edit, reads above
	g.Set(ref(12, 1), cellRange(11, 1))                     // below, reads below
	g.Set(ref(3, 1), []sheet.Range{spanRange(1, 1, 20, 1)}) // straddles

	res := g.Shift(Rows, 5, 3) // insert 3 rows at row 5
	wantMovedOld := []sheet.Ref{ref(10, 1), ref(12, 1)}
	wantMovedNew := []sheet.Ref{ref(13, 1), ref(15, 1)}
	if len(res.MovedOld) != 2 || res.MovedOld[0] != wantMovedOld[0] || res.MovedOld[1] != wantMovedOld[1] {
		t.Fatalf("MovedOld = %v", res.MovedOld)
	}
	if res.MovedNew[0] != wantMovedNew[0] || res.MovedNew[1] != wantMovedNew[1] {
		t.Fatalf("MovedNew = %v", res.MovedNew)
	}
	if len(res.Dropped) != 0 {
		t.Fatalf("Dropped = %v", res.Dropped)
	}
	// Crossers: (3,1) straddling 1..20, and (15,1) whose read 11 moved.
	if len(res.Rewritten) != 2 || res.Rewritten[0] != ref(3, 1) || res.Rewritten[1] != ref(15, 1) {
		t.Fatalf("Rewritten = %v", res.Rewritten)
	}
	// The untouched entry keeps its registration; queries see new geometry.
	if got := g.Precedents(ref(2, 1)); len(got) != 1 || got[0] != spanRange(1, 1, 1, 1) {
		t.Fatalf("untouched precedents = %v", got)
	}
	if got := g.Precedents(ref(3, 1)); len(got) != 1 || got[0] != spanRange(1, 1, 23, 1) {
		t.Fatalf("straddler precedents = %v (want absorbed 1..23)", got)
	}
	if got := g.Precedents(ref(15, 1)); len(got) != 1 || got[0] != spanRange(14, 1, 14, 1) {
		t.Fatalf("shifted reader precedents = %v", got)
	}
	// The dependents index followed the move: a change at the new location
	// of row 11 (now 14) triggers the moved reader.
	deps := g.DirectDependents(spanRange(14, 1, 14, 1))
	if len(deps) != 2 || deps[0] != ref(3, 1) || deps[1] != ref(15, 1) {
		t.Fatalf("dependents of moved cell = %v", deps)
	}
}

func TestShiftDeleteRowsDropsAndClips(t *testing.T) {
	g := New()
	g.Set(ref(6, 1), cellRange(2, 1))                       // inside deleted band
	g.Set(ref(20, 1), []sheet.Range{spanRange(5, 1, 8, 1)}) // clipped
	g.Set(ref(21, 1), []sheet.Range{spanRange(6, 2, 7, 2)}) // fully deleted reads
	g.Set(ref(2, 2), cellRange(1, 1))                       // untouched

	res := g.Shift(Rows, 5, -3) // delete rows 5..7
	if len(res.Dropped) != 1 || res.Dropped[0] != ref(6, 1) {
		t.Fatalf("Dropped = %v", res.Dropped)
	}
	if r, _ := g.find(ref(6, 1)); r != nil {
		t.Fatal("dropped entry still registered")
	}
	// (20,1) -> (17,1) with reads clipped to 5..5; (21,1) -> (18,1) with no
	// reads left (the graph forgets it; the caller rewrites it to #REF!).
	if got := g.Precedents(ref(17, 1)); len(got) != 1 || got[0] != spanRange(5, 1, 5, 1) {
		t.Fatalf("clipped precedents = %v", got)
	}
	if g.Precedents(ref(18, 1)) != nil {
		t.Fatalf("fully-deleted reads must leave the graph")
	}
	found := false
	for _, r := range res.Rewritten {
		if r == ref(18, 1) {
			found = true
		}
	}
	if !found {
		t.Fatalf("Rewritten = %v, want to include (18,1)", res.Rewritten)
	}
	if got := g.Precedents(ref(2, 2)); len(got) != 1 || got[0] != spanRange(1, 1, 1, 1) {
		t.Fatalf("untouched precedents = %v", got)
	}
}

func TestShiftColumns(t *testing.T) {
	g := New()
	g.Set(ref(1, 10), []sheet.Range{spanRange(1, 2, 1, 8)})
	g.Set(ref(1, 2), cellRange(1, 1))
	res := g.Shift(Cols, 5, 2) // insert 2 columns at column 5
	if len(res.MovedOld) != 1 || res.MovedOld[0] != ref(1, 10) || res.MovedNew[0] != ref(1, 12) {
		t.Fatalf("moved = %v -> %v", res.MovedOld, res.MovedNew)
	}
	if got := g.Precedents(ref(1, 12)); len(got) != 1 || got[0] != spanRange(1, 2, 1, 10) {
		t.Fatalf("absorbed column range = %v", got)
	}
	if got := g.Precedents(ref(1, 2)); len(got) != 1 || got[0] != spanRange(1, 1, 1, 1) {
		t.Fatalf("untouched = %v", got)
	}
}

func TestShiftWideRangeStaysIndexed(t *testing.T) {
	g := New()
	// A whole-column style read (wide) plus a narrow one.
	g.Set(ref(1, 5), []sheet.Range{spanRange(1, 1, 100000, 1)})
	g.Set(ref(1, 6), cellRange(50, 1))
	g.Shift(Rows, 10, 4)
	if got := g.Precedents(ref(1, 5)); got[0] != spanRange(1, 1, 100004, 1) {
		t.Fatalf("wide range after insert = %v", got)
	}
	// Still query-visible through the wide list.
	deps := g.DirectDependents(spanRange(99999, 1, 99999, 1))
	if len(deps) != 1 || deps[0] != ref(1, 5) {
		t.Fatalf("wide dependents = %v", deps)
	}
	deps = g.DirectDependents(spanRange(54, 1, 54, 1))
	if len(deps) != 2 {
		t.Fatalf("dependents after shift = %v", deps)
	}
}

func TestAffectedFromIncludesSeeds(t *testing.T) {
	g := New()
	g.Set(ref(1, 2), cellRange(1, 1)) // B1 = A1
	g.Set(ref(1, 3), cellRange(1, 2)) // C1 = B1
	order, cycles := g.AffectedFrom([]sheet.Ref{ref(1, 2)})
	if len(cycles) != 0 {
		t.Fatalf("cycles = %v", cycles)
	}
	if len(order) != 2 || order[0] != ref(1, 2) || order[1] != ref(1, 3) {
		t.Fatalf("order = %v", order)
	}
	// Unregistered seeds (e.g. a formula whose reads all became #REF!) are
	// kept verbatim so the caller still re-evaluates them.
	order, _ = g.AffectedFrom([]sheet.Ref{ref(9, 9)})
	if len(order) != 1 || order[0] != ref(9, 9) {
		t.Fatalf("unregistered seed order = %v", order)
	}
}

// TestIndexedDependentsMatchScan cross-checks the stripe index against a
// brute-force scan on a randomized graph, including after shifts.
func TestIndexedDependentsMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New()
	type reg struct {
		ref   sheet.Ref
		reads []sheet.Range
	}
	var regs []reg
	for i := 0; i < 300; i++ {
		r := sheet.Ref{Row: rng.Intn(5000) + 1, Col: rng.Intn(40) + 1}
		var reads []sheet.Range
		for j := 0; j < rng.Intn(3)+1; j++ {
			r1, c1 := rng.Intn(5000)+1, rng.Intn(40)+1
			h, w := rng.Intn(3000), rng.Intn(5)
			reads = append(reads, sheet.NewRange(r1, c1, r1+h, c1+w))
		}
		g.Set(r, reads)
		regs = append(regs, reg{r, reads})
	}
	check := func(changed sheet.Range) {
		got := g.DirectDependents(changed)
		want := map[sheet.Ref]bool{}
		for _, rg := range regs {
			if g.Precedents(rg.ref) == nil {
				continue
			}
			for _, r := range g.Precedents(rg.ref) {
				if r.Intersects(changed) {
					want[rg.ref] = true
					break
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("dependents(%v): index %d vs scan %d", changed, len(got), len(want))
		}
		for _, r := range got {
			if !want[r] {
				t.Fatalf("dependents(%v): %v not in scan result", changed, r)
			}
		}
	}
	for i := 0; i < 50; i++ {
		r1, c1 := rng.Intn(5000)+1, rng.Intn(40)+1
		check(sheet.NewRange(r1, c1, r1+rng.Intn(200), c1+rng.Intn(3)))
	}
	// Shift and re-check (the regs mirror is rebuilt from the graph).
	g.Shift(Rows, 2500, 100)
	regs = regs[:0]
	for _, col := range g.cols {
		for _, r := range col {
			for k := range r.n {
				regs = append(regs, reg{r.at(k), g.Precedents(r.at(k))})
			}
		}
	}
	for i := 0; i < 50; i++ {
		r1, c1 := rng.Intn(5200)+1, rng.Intn(40)+1
		check(sheet.NewRange(r1, c1, r1+rng.Intn(200), c1+rng.Intn(3)))
	}
}

// TestGraphConcurrentReaders: the query paths are safe for concurrent
// readers (the engine serializes writers; reads share the maps).
func TestGraphConcurrentReaders(t *testing.T) {
	g := New()
	for i := 1; i <= 200; i++ {
		g.Set(ref(i, 2), []sheet.Range{spanRange(i, 1, i+10, 1)})
	}
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				g.DirectDependents(spanRange(w*50+i%50+1, 1, w*50+i%50+3, 1))
				affected(g, ref(i%200+1, 1))
				g.Precedents(ref(i%200+1, 2))
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}

// TestAffectedFromMergesSeedsAndReach pins the engine's post-edit pass:
// seeds (formulas marked on their own) and the cells a change reaches
// evaluate in one topological order, without duplicates.
func TestAffectedFromMergesSeedsAndReach(t *testing.T) {
	g := New()
	g.Set(ref(1, 2), cellRange(1, 1)) // B1 = A1
	g.Set(ref(1, 3), cellRange(1, 2)) // C1 = B1
	g.Set(ref(2, 2), cellRange(2, 1)) // B2 = A2 (the extra seed)

	order, cycles := g.AffectedFrom(append(reach(g, ref(1, 1)), ref(2, 2)))
	if len(cycles) != 0 {
		t.Fatalf("cycles = %v", cycles)
	}
	want := map[sheet.Ref]bool{ref(1, 2): true, ref(1, 3): true, ref(2, 2): true}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want the 3 cells %v once each", order, want)
	}
	pos := map[sheet.Ref]int{}
	for i, r := range order {
		if !want[r] {
			t.Fatalf("unexpected cell %v in order %v", r, order)
		}
		if _, dup := pos[r]; dup {
			t.Fatalf("duplicate %v in order %v", r, order)
		}
		pos[r] = i
	}
	if pos[ref(1, 2)] > pos[ref(1, 3)] {
		t.Fatalf("B1 must precede C1: %v", order)
	}
	// A seed that is also in the changed cone appears exactly once.
	order, _ = g.AffectedFrom(append(reach(g, ref(1, 1)), ref(1, 2)))
	n := 0
	for _, r := range order {
		if r == ref(1, 2) {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("seed inside cone appears %d times in %v", n, order)
	}
}

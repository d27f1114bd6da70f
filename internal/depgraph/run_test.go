package depgraph

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dataspread/internal/formula"
	"dataspread/internal/sheet"
)

// fillShapes are fill-down formulas by column and row: relative and
// $-absolute rows, a mixed-anchor running total, a range whose bounds swap
// below row 40, a running total reading the member above, two-column
// ranges, a constant, reads of the neighbouring columns (chains across
// columns, and cycles when two neighbours read each other) and a range wider
// than 32 stripes.
var fillShapes = []func(col, row int) string{
	func(c, r int) string { return fmt.Sprintf("A%d+1", r) },
	func(c, r int) string { return "$A$1*2" },
	func(c, r int) string { return fmt.Sprintf("SUM(A$1:A%d)", r) },
	func(c, r int) string { return fmt.Sprintf("SUM(A$40:B%d)", r) },
	func(c, r int) string { return fmt.Sprintf("%s%d+A%d", sheet.ColumnName(c), max(r-1, 1), r) },
	func(c, r int) string { return fmt.Sprintf("SUM(A%d:B%d)", r, r+2) },
	func(c, r int) string { return "1+2" },
	func(c, r int) string { return fmt.Sprintf("%s%d*2", sheet.ColumnName(c-1), r) },
	func(c, r int) string { return fmt.Sprintf("%s%d-1", sheet.ColumnName(c+1), r) },
	func(c, r int) string { return fmt.Sprintf("SUM(B$1:B$2300)+A%d", r) },
}

// population is the per-cell reference of a run registry: every formula
// cell's expression.
type population map[sheet.Ref]formula.Expr

func (p population) refGraph() refGraph {
	m := refGraph{}
	for c, e := range p {
		m[c] = formula.Refs(e)
	}
	return m
}

// fillDown parses shape at (row, col).
func fillDown(t *testing.T, shape func(int, int) string, row, col int) formula.Expr {
	e, err := formula.Parse(shape(col, row))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// randomPopulation installs fill-down columns cell by cell in a random
// order (so members join runs from above, from below and between two),
// with holes and single cells of another shape splitting them.
func randomPopulation(t *testing.T, rng *rand.Rand, g *Graph) population {
	type install struct {
		ref  sheet.Ref
		expr formula.Expr
	}
	var todo []install
	for c := 2; c <= 7; c++ {
		for range rng.Intn(3) + 1 {
			shape := fillShapes[rng.Intn(len(fillShapes))]
			top := []int{1, 60, 2490}[rng.Intn(3)] + rng.Intn(40)
			for r := top; r < top+1+rng.Intn(18); r++ {
				switch rng.Intn(10) {
				case 0: // a hole
				case 1:
					todo = append(todo, install{sheet.Ref{Row: r, Col: c}, fillDown(t, fillShapes[rng.Intn(len(fillShapes))], r, c)})
				default:
					todo = append(todo, install{sheet.Ref{Row: r, Col: c}, fillDown(t, shape, r, c)})
				}
			}
		}
	}
	rng.Shuffle(len(todo), func(i, j int) { todo[i], todo[j] = todo[j], todo[i] })
	p := population{}
	for _, in := range todo {
		g.SetFormula(in.ref, in.expr)
		p[in.ref] = in.expr
	}
	return p
}

// maximalRuns is the per-cell walk the formula set's encoding makes: in
// (column, row) order, a run goes on while the next cell down holds its head
// moved down that far.
func maximalRuns(p population) [][2]sheet.Ref {
	cells := slices.SortedFunc(maps.Keys(p), func(a, b sheet.Ref) int {
		if a.Col != b.Col {
			return a.Col - b.Col
		}
		return a.Row - b.Row
	})
	var out [][2]sheet.Ref
	for i := 0; i < len(cells); {
		n := 1
		for ; i+n < len(cells); n++ {
			next := cells[i+n]
			if next != (sheet.Ref{Row: cells[i].Row + n, Col: cells[i].Col}) || !formula.IsMovedDown(p[cells[i]], p[next], n) {
				break
			}
		}
		out = append(out, [2]sheet.Ref{cells[i], cells[i+n-1]})
		i += n
	}
	return out
}

// checkRegistry compares every query of the run registry with the per-cell
// reference: each cell's formula and precedents, DirectDependents, ConeFrom,
// AffectedFrom, Mark, UpstreamWaves and HasCycleAt.
func checkRegistry(t *testing.T, label string, rng *rand.Rand, g *Graph, p population) {
	t.Helper()
	m := p.refGraph()
	if g.Len() != len(p) {
		t.Fatalf("%s: registry holds %d cells, reference %d", label, g.Len(), len(p))
	}
	cells := slices.SortedFunc(maps.Keys(p), cmpRefs)
	for _, c := range cells {
		head, k, ok := g.Formula(c)
		if !ok || formula.MoveDown(head, k).String() != p[c].String() {
			t.Fatalf("%s: %v = %v at %d, reference %q", label, c, head, k, p[c])
		}
		if got, want := g.Precedents(c), m[c]; !slices.Equal(got, want) {
			t.Fatalf("%s: %v = %q reads %v, reference %v", label, c, p[c], got, want)
		}
	}
	// A formula cell, a cell some formula reads (a corner of its read), or
	// any cell.
	pick := func() sheet.Ref {
		c := cells[rng.Intn(len(cells))]
		switch rng.Intn(3) {
		case 0:
			return sheet.Ref{Row: rng.Intn(2600) + 1, Col: rng.Intn(9) + 1}
		case 1:
			if reads := m[c]; len(reads) > 0 {
				r := reads[rng.Intn(len(reads))]
				return []sheet.Ref{r.From, r.To}[rng.Intn(2)]
			}
		}
		return c
	}
	for range 30 {
		c := pick()
		if _, _, ok := g.Formula(c); ok != (p[c] != nil) {
			t.Fatalf("%s: %v registered %v, reference %v", label, c, ok, p[c] != nil)
		}
		changed := sheet.NewRange(c.Row, c.Col, c.Row+rng.Intn(3)*rng.Intn(80), c.Col+rng.Intn(2))
		var want []sheet.Ref
		for _, f := range cells {
			for _, r := range m[f] {
				if r.Intersects(changed) {
					want = append(want, f)
					break
				}
			}
		}
		if got := g.DirectDependents(changed); !slices.Equal(got, want) {
			t.Fatalf("%s: dependents of %v = %v, reference %v", label, changed, got, want)
		}
		reads := []sheet.Range{sheet.NewRange(pick().Row, pick().Col, pick().Row, pick().Col)}
		if got, want := g.HasCycleAt(c, reads), cycleAt(m, c, reads); got != want {
			t.Fatalf("%s: HasCycleAt(%v, %v) = %v, reference %v", label, c, reads, got, want)
		}
		// RunsIn covers exactly the formula cells of a tile-sized box, each
		// rendering its reference's text.
		box := sheet.NewRange(c.Row, c.Col, c.Row+rng.Intn(64), c.Col+rng.Intn(16))
		texts := map[sheet.Ref]string{}
		g.RunsIn(box, func(first sheet.Ref, k, n int, head formula.Expr) {
			for i := range n {
				texts[sheet.Ref{Row: first.Row + i, Col: first.Col}] = string(formula.AppendAt(nil, head, k+i))
			}
		})
		inBox := map[sheet.Ref]string{}
		for f, e := range p {
			if box.Contains(f) {
				inBox[f] = e.String()
			}
		}
		if !maps.Equal(texts, inBox) {
			t.Fatalf("%s: formulas in %v = %v, reference %v", label, box, texts, inBox)
		}
	}

	seeds := []sheet.Ref{pick(), pick(), pick()}
	members := map[sheet.Ref]bool{}
	for _, s := range seeds {
		members[s] = true
	}
	m.closure(seeds, members)
	wantWaves, wantCycles := levels(members, func(u, v sheet.Ref) bool { return m.reads(v, u) })
	cone := g.ConeFrom(seeds)
	if !reflect.DeepEqual(cone.Waves, wantWaves) || !slices.Equal(cone.Cycles, wantCycles) {
		t.Fatalf("%s: cone of %v: waves %v cycles %v, reference %v %v", label, seeds, cone.Waves, cone.Cycles, wantWaves, wantCycles)
	}
	for i, u := range cone.Refs {
		got := map[sheet.Ref]bool{}
		for _, j := range cone.Succ[cone.Off[i]:cone.Off[i+1]] {
			got[cone.Refs[j]] = true
		}
		for v := range members {
			if got[v] != m.reads(v, u) {
				t.Fatalf("%s: edge %v -> %v is %v in the cone", label, u, v, got[v])
			}
		}
	}
	if order, cycles := g.AffectedFrom(seeds); !slices.Equal(order, slices.Concat(wantWaves...)) || !slices.Equal(cycles, wantCycles) {
		t.Fatalf("%s: AffectedFrom = %v / %v", label, order, cycles)
	}

	marked := map[sheet.Ref]bool{}
	refs := []sheet.Ref{pick(), pick()}
	checkMark(t, label, g, m, marked, refs)
	up := map[sheet.Ref]bool{}
	vpSeeds := append(refs, pick(), pick())
	for _, s := range vpSeeds {
		up[s] = marked[s]
	}
	for grew := true; grew; {
		grew = false
		for f := range m {
			for s := range up {
				if up[s] && !up[f] && marked[f] && m.reads(s, f) {
					up[f], grew = true, true
				}
			}
		}
	}
	maps.DeleteFunc(up, func(_ sheet.Ref, in bool) bool { return !in })
	wantUp, _ := levels(up, func(u, v sheet.Ref) bool { _, ok := m[u]; return ok && m.reads(v, u) })
	if got := g.UpstreamWaves(vpSeeds, func(r sheet.Ref) bool { return marked[r] }); !reflect.DeepEqual(got, wantUp) {
		t.Fatalf("%s: UpstreamWaves %v, reference %v", label, got, wantUp)
	}
}

// cycleAt is HasCycleAt by brute force: a formula at ref reading reads closes
// a cycle when ref is among the cells reads reach through formulas.
func cycleAt(m refGraph, ref sheet.Ref, reads []sheet.Range) bool {
	seen := map[sheet.Ref]bool{}
	queue := slices.Clone(reads)
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		if r.Contains(ref) {
			return true
		}
		for f, fr := range m {
			if r.Contains(f) && !seen[f] {
				seen[f] = true
				queue = append(queue, fr...)
			}
		}
	}
	return false
}

// shiftPopulation is Shift on the per-cell reference: cells move by
// ShiftIndex or drop, and a formula reading at or past the edit is
// rewritten by formula.Shift. It returns the reference's ShiftResult.
func shiftPopulation(p population, axis Axis, at, delta int) (population, ShiftResult) {
	sh := formula.Shift{Rows: axis == Rows, At: at, Count: max(delta, -delta), Delete: delta < 0}
	out := population{}
	var res ShiftResult
	for _, c := range slices.SortedFunc(maps.Keys(p), cmpRefs) {
		e := p[c]
		nw, ok := shiftRef(c, axis, at, delta)
		if !ok {
			res.Dropped = append(res.Dropped, c)
			continue
		}
		if nw != c {
			res.MovedOld, res.MovedNew = append(res.MovedOld, c), append(res.MovedNew, nw)
		}
		for _, r := range formula.Refs(e) {
			if axis == Cols && r.To.Col >= at || axis == Rows && r.To.Row >= at {
				e = sh.Apply(e)
				res.Rewritten = append(res.Rewritten, nw)
				res.Exprs = append(res.Exprs, e)
				break
			}
		}
		out[nw] = e
	}
	sortRefs(res.Rewritten)
	return out, res
}

// TestRunRegistryMatchesReference: random fill-down populations registered
// as runs answer every query as a brute-force per-cell reference does —
// after installs in random order, after edits that split runs and refill
// them (the registry then holds exactly the maximal runs), and after row and
// column inserts and deletes, deletes dropping part of a run included, which
// report the same moves, drops and rewrites as the reference.
func TestRunRegistryMatchesReference(t *testing.T) {
	sawWide, sawSplit, sawCycle := false, false, false
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		p := randomPopulation(t, rng, g)
		checkRegistry(t, fmt.Sprintf("seed %d installed", seed), rng, g, p)

		// Split runs by removing and overwriting cells inside them, then
		// refill half of them with the formula that was there.
		cells := slices.SortedFunc(maps.Keys(p), cmpRefs)
		for range 8 {
			c := cells[rng.Intn(len(cells))]
			old := p[c]
			if rng.Intn(2) == 0 {
				g.Remove(c)
				delete(p, c)
			} else {
				e := fillDown(t, fillShapes[rng.Intn(len(fillShapes))], c.Row, c.Col)
				g.SetFormula(c, e)
				p[c] = e
			}
			if rng.Intn(2) == 0 && old != nil {
				g.SetFormula(c, old)
				p[c] = old
			}
		}
		runs := 0
		var got [][2]sheet.Ref
		g.Runs(func(first sheet.Ref, n int, head formula.Expr) {
			runs++
			got = append(got, [2]sheet.Ref{first, {Row: first.Row + n - 1, Col: first.Col}})
		})
		if want := maximalRuns(p); !slices.Equal(got, want) {
			t.Fatalf("seed %d: runs %v, maximal runs %v", seed, got, want)
		}
		sawSplit = sawSplit || runs < len(p)
		checkRegistry(t, fmt.Sprintf("seed %d split and refilled", seed), rng, g, p)
		sawWide = sawWide || len(g.wide) > 0

		for i := range 4 {
			axis, at, delta := Rows, []int{2, 65, 2495, 30}[rng.Intn(4)]+rng.Intn(12), rng.Intn(5)+1
			if i%2 == 1 {
				axis, at = Cols, rng.Intn(8)+1
				delta = min(delta, 2)
			}
			if rng.Intn(2) == 0 {
				delta = -delta
			}
			var want ShiftResult
			p, want = shiftPopulation(p, axis, at, delta)
			res := g.Shift(axis, at, delta)
			label := fmt.Sprintf("seed %d shift %d by %d at %d", seed, axis, delta, at)
			pairs := func(r ShiftResult) map[sheet.Ref]sheet.Ref {
				out := map[sheet.Ref]sheet.Ref{}
				for i, o := range r.MovedOld {
					out[o] = r.MovedNew[i]
				}
				return out
			}
			if !maps.Equal(pairs(res), pairs(want)) || !slices.Equal(res.Rewritten, want.Rewritten) ||
				!slices.Equal(slices.SortedFunc(slices.Values(res.Dropped), cmpRefs), want.Dropped) && len(res.Dropped)+len(want.Dropped) > 0 {
				t.Fatalf("%s: moved %v dropped %v rewritten %v, reference %v %v %v", label,
					pairs(res), res.Dropped, res.Rewritten, pairs(want), want.Dropped, want.Rewritten)
			}
			for i, e := range res.Exprs {
				if e.String() != want.Exprs[i].String() {
					t.Fatalf("%s: %v rewritten as %q, reference %q", label, res.Rewritten[i], e, want.Exprs[i])
				}
			}
			if len(p) == 0 {
				break
			}
			checkRegistry(t, label, rng, g, p)
		}
		sawCycle = sawCycle || len(g.ConeFrom(slices.Collect(maps.Keys(p))).Cycles) > 0
	}
	if !sawWide || !sawSplit || !sawCycle {
		t.Fatalf("populations too tame: wide %v, runs longer than a cell %v, cycles %v", sawWide, sawSplit, sawCycle)
	}
}

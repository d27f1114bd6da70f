package depgraph

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dataspread/internal/formula"
	"dataspread/internal/sheet"
)

// refGraph is the brute-force reference: the registrations, scanned whole.
type refGraph map[sheet.Ref][]sheet.Range

// reads reports whether formula f reads cell c.
func (m refGraph) reads(f, c sheet.Ref) bool {
	for _, r := range m[f] {
		if r.Contains(c) {
			return true
		}
	}
	return false
}

// closure adds to set every formula transitively reading one of srcs.
func (m refGraph) closure(srcs []sheet.Ref, set map[sheet.Ref]bool) {
	queue := slices.Clone(srcs)
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for f := range m {
			if !set[f] && m.reads(f, c) {
				set[f] = true
				queue = append(queue, f)
			}
		}
	}
}

// visitSet is Mark's visit over a set standing in for the pending bits: it
// marks seg's cells, hands each one it newly marks to fresh as a one-row
// segment (the walk joins them) and to onFresh, and each cell offered to
// offered when that is not nil.
func visitSet(set map[sheet.Ref]bool, offered, onFresh func(sheet.Ref)) func(sheet.Range, []sheet.Range) []sheet.Range {
	return func(seg sheet.Range, fresh []sheet.Range) []sheet.Range {
		if seg.Cols() != 1 || seg.Rows() < 1 {
			panic(fmt.Sprintf("Mark visited %v, not a column segment", seg))
		}
		for row := seg.From.Row; row <= seg.To.Row; row++ {
			r := sheet.Ref{Row: row, Col: seg.From.Col}
			if offered != nil {
				offered(r)
			}
			if !set[r] {
				set[r] = true
				fresh = append(fresh, sheet.Range{From: r, To: r})
				if onFresh != nil {
					onFresh(r)
				}
			}
		}
		return fresh
	}
}

// checkMark runs Mark from changed over pending, a closed pre-marked set as
// the pending bits are, and checks it against the reference: it adds exactly
// the cone of changed, and every cell it offers reads a changed cell or one
// it newly marked, so it never passes a pre-marked cell.
func checkMark(t *testing.T, label string, g *Graph, m refGraph, pending map[sheet.Ref]bool, changed []sheet.Ref) {
	t.Helper()
	want := maps.Clone(pending)
	m.closure(changed, want)
	sources := map[sheet.Ref]bool{}
	for _, c := range changed {
		sources[c] = true
	}
	var offered []sheet.Ref
	g.Mark(changed, visitSet(pending,
		func(r sheet.Ref) {
			if offered = append(offered, r); len(offered) > 100*len(m) {
				t.Fatalf("%s: Mark from %v offered %d cells of %d formulas: it passes marked cells", label, changed, len(offered), len(m))
			}
		},
		func(r sheet.Ref) { sources[r] = true }))
	if !maps.Equal(pending, want) {
		t.Fatalf("%s: Mark from %v left %d cells marked, reference %d", label, changed, len(pending), len(want))
	}
	for _, v := range offered {
		reads := false
		for s := range sources {
			reads = reads || m.reads(v, s)
		}
		if !reads {
			t.Fatalf("%s: Mark from %v offered %v, which reads no changed or newly marked cell", label, changed, v)
		}
	}
}

// levels is the reference layout of members under edge(u, v) ("v reads u"):
// the members on a cycle (a chain of edges leads from the member back to
// it), sorted, and the others by longest chain of member precedents on no
// cycle, each level sorted.
func levels(members map[sheet.Ref]bool, edge func(u, v sheet.Ref) bool) (waves [][]sheet.Ref, cycles []sheet.Ref) {
	var list []sheet.Ref
	for r := range members {
		list = append(list, r)
	}
	sortRefs(list)
	n := len(list)
	path := make([][]bool, n) // path[i][j]: a chain of one or more edges leads from i to j
	for i := range path {
		path[i] = make([]bool, n)
		for j := range path[i] {
			path[i][j] = edge(list[i], list[j])
		}
	}
	for k := range n {
		for i := range n {
			for j := range n {
				path[i][j] = path[i][j] || path[i][k] && path[k][j]
			}
		}
	}
	cyclic := make([]bool, n)
	for v := range n {
		cyclic[v] = path[v][v]
	}
	level := make([]int, n)
	var at func(v int) int
	at = func(v int) int {
		if level[v] == 0 {
			level[v] = 1 // 1 + the level, so 0 means "not computed"
			for u := range n {
				if !cyclic[u] && edge(list[u], list[v]) {
					level[v] = max(level[v], at(u)+1)
				}
			}
		}
		return level[v]
	}
	for v := range n {
		if cyclic[v] {
			cycles = append(cycles, list[v])
			continue
		}
		l := at(v) - 1
		for len(waves) <= l {
			waves = append(waves, nil)
		}
		waves[l] = append(waves[l], list[v])
	}
	return waves, cycles
}

// checkUpstream checks UpstreamCone from seeds over the member set against
// the reference layout of up, the member closure the caller built.
func checkUpstream(t *testing.T, label string, g *Graph, m refGraph, up map[sheet.Ref]bool, seeds []sheet.Ref, member map[sheet.Ref]bool) {
	t.Helper()
	wantWaves, wantCycles := levels(up, func(u, v sheet.Ref) bool { _, ok := m[u]; return ok && m.reads(v, u) })
	got := g.UpstreamCone(seeds, func(r sheet.Ref) bool { return member[r] })
	var gotWaves [][]sheet.Ref
	var gotCycles []sheet.Ref
	if got != nil {
		gotWaves, gotCycles = got.Waves, got.Cycles
	}
	if !reflect.DeepEqual(gotWaves, wantWaves) || !slices.Equal(gotCycles, wantCycles) {
		t.Fatalf("%s: UpstreamCone waves %v cycles %v, reference %v %v", label, gotWaves, gotCycles, wantWaves, wantCycles)
	}
}

// randomGraph registers n formulas over rows 1..3000 and columns 1..6: point
// reads of earlier formulas (chains) and now and then of later ones
// (cycles), ranges around earlier formulas, rare whole-column reads wider
// than 32 stripes, and duplicated reads.
func randomGraph(rng *rand.Rand, n int) (*Graph, refGraph) {
	g, m := New(), refGraph{}
	cells := make([]sheet.Ref, n)
	for i := range cells {
		cells[i] = ref(rng.Intn(3000)+1, rng.Intn(6)+1)
	}
	for i, c := range cells {
		var reads []sheet.Range
		for k := rng.Intn(3) + 1; k > 0; k-- {
			switch p := rng.Intn(20); {
			case p < 10:
				t := cells[rng.Intn(i+1)]
				if rng.Intn(8) == 0 {
					t = cells[rng.Intn(n)]
				}
				reads = append(reads, sheet.NewRange(t.Row, t.Col, t.Row, t.Col))
			case p < 19:
				t, h, w := cells[rng.Intn(i+1)], rng.Intn(100), rng.Intn(3)
				r1, c1 := max(1, t.Row-rng.Intn(h+1)), max(1, t.Col-rng.Intn(w+1))
				reads = append(reads, sheet.NewRange(r1, c1, r1+h, c1+w))
			default:
				col := rng.Intn(6) + 1
				reads = append(reads, sheet.NewRange(1, col, 2200+rng.Intn(800), col))
			}
			if rng.Intn(6) == 0 {
				reads = append(reads, reads[len(reads)-1])
			}
		}
		g.Set(c, reads)
		m[c] = reads
	}
	return g, m
}

// TestConeMatchesReference checks ConeFrom, UpstreamCone and Mark against a
// brute-force scan on random graphs: members, longest-path waves sorted
// row-major, the cycle tail, the CSR edges, and Mark's stop at pre-marked
// cells of a closed set. Members downstream of a cycle are among them.
func TestConeMatchesReference(t *testing.T) {
	sawCycles, sawDeep, sawDownstream := false, false, false
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, m := randomGraph(rng, 120)
		var formulas []sheet.Ref
		for f := range m {
			formulas = append(formulas, f)
		}
		sortRefs(formulas)
		pick := func(k int) []sheet.Ref {
			var out []sheet.Ref
			for range k {
				out = append(out, formulas[rng.Intn(len(formulas))])
			}
			return out
		}
		// Seeds: formulas, a duplicate, and cells no formula sits on.
		seeds := pick(4)
		seeds = append(seeds, seeds[0], ref(3001+rng.Intn(50), 1), ref(rng.Intn(3000)+1, 7))

		members := map[sheet.Ref]bool{}
		for _, s := range seeds {
			members[s] = true
		}
		m.closure(seeds, members)
		wantWaves, wantCycles := levels(members, func(u, v sheet.Ref) bool { return m.reads(v, u) })
		c := g.ConeFrom(seeds)
		if len(c.Refs) != len(members) {
			t.Fatalf("seed %d: cone has %d members, reference %d", seed, len(c.Refs), len(members))
		}
		if !reflect.DeepEqual(c.Waves, wantWaves) {
			t.Fatalf("seed %d: waves %v, reference %v", seed, c.Waves, wantWaves)
		}
		if !slices.Equal(c.Cycles, wantCycles) {
			t.Fatalf("seed %d: cycles %v, reference %v", seed, c.Cycles, wantCycles)
		}
		for i, u := range c.Refs {
			got := map[sheet.Ref]bool{}
			for _, j := range c.Succ[c.Off[i]:c.Off[i+1]] {
				got[c.Refs[j]] = true
			}
			for v := range members {
				if got[v] != m.reads(v, u) {
					t.Fatalf("seed %d: edge %v -> %v is %v in the cone", seed, u, v, got[v])
				}
			}
		}
		order, cycles := g.AffectedFrom(seeds)
		if !slices.Equal(order, slices.Concat(wantWaves...)) || !slices.Equal(cycles, wantCycles) {
			t.Fatalf("seed %d: AffectedFrom = %v / %v", seed, order, cycles)
		}
		sawCycles = sawCycles || len(wantCycles) > 0
		sawDeep = sawDeep || len(wantWaves) > 3
		for _, v := range slices.Concat(wantWaves...) {
			for _, u := range wantCycles {
				sawDownstream = sawDownstream || m.reads(v, u)
			}
		}

		// A closed pre-marked set, as the pending bits are: Mark adds exactly
		// the cone of refs and never passes a pre-marked cell.
		pending := map[sheet.Ref]bool{}
		m.closure(pick(2), pending)
		refs := append(pick(3), ref(rng.Intn(3000)+1, rng.Intn(6)+1))
		checkMark(t, fmt.Sprintf("seed %d", seed), g, m, pending, refs)

		// UpstreamCone over that set: the member seeds and their member
		// formula ancestors, laid out by the same rule.
		up := map[sheet.Ref]bool{}
		vpSeeds := append(pick(6), refs...)
		for _, s := range vpSeeds {
			up[s] = pending[s]
		}
		for grew := true; grew; {
			grew = false
			for p := range m {
				for s := range up {
					if up[s] && !up[p] && pending[p] && m.reads(s, p) {
						up[p], grew = true, true
					}
				}
			}
		}
		for r, in := range up {
			if !in {
				delete(up, r)
			}
		}
		checkUpstream(t, fmt.Sprintf("seed %d", seed), g, m, up, vpSeeds, pending)
	}
	if !sawCycles || !sawDeep || !sawDownstream {
		t.Fatalf("random graphs too tame: cycles seen %v, more than 3 waves seen %v, a wave member reading a cycle %v",
			sawCycles, sawDeep, sawDownstream)
	}
}

// TestMarkSegmentsMatchesReference checks the segment walk on random
// fill-down populations registered with SetFormula — relative and
// $-absolute rows, multi-cell and wide reads, runs of one between them —
// from scattered, rectangular (row- or column-major) and one-cell changed
// sets, over empty and closed pre-marked sets: Mark adds exactly the
// brute-force closure and never passes a pre-marked cell.
func TestMarkSegmentsMatchesReference(t *testing.T) {
	sawRun, sawLong := false, false
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		p := randomPopulation(t, rng, g)
		m := p.refGraph()
		cells := slices.SortedFunc(maps.Keys(p), cmpRefs)
		anyCell := func() sheet.Ref {
			if rng.Intn(2) == 0 {
				return cells[rng.Intn(len(cells))]
			}
			return ref(rng.Intn(2600)+1, rng.Intn(9)+1)
		}
		g.Runs(func(_ sheet.Ref, n int, _ formula.Expr) { sawRun = sawRun || n > 1 })
		for i := range 12 {
			var changed []sheet.Ref
			switch i % 3 {
			case 0: // scattered, or every other row down a column
				c, step := anyCell(), rng.Intn(2)
				for k := range rng.Intn(20) + 2 {
					if step == 0 {
						c = anyCell()
					}
					changed = append(changed, ref(c.Row+2*k*step, c.Col))
				}
			case 1:
				c, rows, cols := anyCell(), rng.Intn(70)+1, rng.Intn(4)+1
				for r := c.Row; r < c.Row+rows; r++ {
					for col := c.Col; col < c.Col+cols; col++ {
						changed = append(changed, ref(r, col))
					}
				}
				if rng.Intn(2) == 0 {
					slices.SortFunc(changed, func(a, b sheet.Ref) int { return cmp.Or(a.Col-b.Col, a.Row-b.Row) })
				}
			default:
				changed = []sheet.Ref{anyCell()}
			}
			pending := map[sheet.Ref]bool{}
			if rng.Intn(2) == 0 {
				m.closure([]sheet.Ref{anyCell(), anyCell()}, pending)
			}
			before := len(pending)
			checkMark(t, fmt.Sprintf("seed %d set %d", seed, i), g, m, pending, changed)
			sawLong = sawLong || len(pending)-before > 20
		}
	}
	g, _ := tickerRuns(4, 3)
	noop := func(_ sheet.Range, fresh []sheet.Range) []sheet.Range { return fresh }
	if n := testing.AllocsPerRun(100, func() { g.Mark([]sheet.Ref{ref(2, 1)}, noop) }); n != 0 {
		t.Fatalf("a one-cell Mark allocated %v times", n)
	}
	if !sawRun || !sawLong {
		t.Fatalf("populations too tame: runs longer than a cell %v, a walk marking more than 20 cells %v", sawRun, sawLong)
	}
}

// tickerGraph is workload.TickerMarket's shape: B{i} = A1*i for i in
// 1..inter, and leaves C{i}.. = B{i}+j along each row, registered cell by
// cell with Set, so each cell is a run of one.
func tickerGraph(inter, leaves int) (*Graph, []sheet.Ref) {
	g := New()
	var cells []sheet.Ref
	for i := 1; i <= inter; i++ {
		g.Set(ref(i, 2), cellRange(1, 1))
		cells = append(cells, ref(i, 2))
		for j := 1; j <= leaves; j++ {
			g.Set(ref(i, 2+j), cellRange(i, 2))
			cells = append(cells, ref(i, 2+j))
		}
	}
	return g, cells
}

// tickerRuns is workload.TickerMarket as the engine registers it: its
// formulas installed with SetFormula, so each leaf column is one fill-down
// run of inter cells and column B is inter runs of one.
func tickerRuns(inter, leaves int) (*Graph, []sheet.Ref) {
	g := New()
	var cells []sheet.Ref
	set := func(at sheet.Ref, src string) {
		e, err := formula.Parse(src)
		if err != nil {
			panic(err)
		}
		g.SetFormula(at, e)
		cells = append(cells, at)
	}
	for i := 1; i <= inter; i++ {
		set(ref(i, 2), fmt.Sprintf("A1*%d", i))
		for j := 1; j <= leaves; j++ {
			set(ref(i, 2+j), fmt.Sprintf("B%d+%d", i, j))
		}
	}
	return g, cells
}

// rowSumGraph is edit-contended's shape: Q{r} = SUM(A{r}:P{r}) on rows
// 1..rows.
func rowSumGraph(rows int) (*Graph, []sheet.Ref) {
	g := New()
	var cells []sheet.Ref
	for r := 1; r <= rows; r++ {
		g.Set(ref(r, 17), []sheet.Range{sheet.NewRange(r, 1, r, 16)})
		cells = append(cells, ref(r, 17))
	}
	return g, cells
}

// BenchmarkConeFrom plans the whole pending set, as the recalc executor's
// full plan does after a tick (40,400 cells, the ticker registered as the
// engine does and cell by cell, as BenchmarkMark's) or a load (rowsum,
// 30,000 cells). The pending bits come out in no particular order.
func BenchmarkConeFrom(b *testing.B) {
	for _, bc := range []struct {
		name  string
		build func() (*Graph, []sheet.Ref)
	}{
		{"ticker", func() (*Graph, []sheet.Ref) { return tickerRuns(400, 100) }},
		{"ticker-cells", func() (*Graph, []sheet.Ref) { return tickerGraph(400, 100) }},
		{"rowsum", func() (*Graph, []sheet.Ref) { return rowSumGraph(30_000) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			g, seeds := bc.build()
			rand.New(rand.NewSource(1)).Shuffle(len(seeds), func(i, j int) { seeds[i], seeds[j] = seeds[j], seeds[i] })
			b.ReportAllocs()
			for b.Loop() {
				g.ConeFrom(seeds)
			}
		})
	}
}

// BenchmarkMark walks an edit's cone over an empty pending set, a dense
// bitmap standing in for the pending bits: the ticker cell A1 (40,400
// cells), with the ticker registered as the engine does (ticker: 100
// fill-down runs and 400 runs of one) and cell by cell (ticker-cells: 40,400
// runs of one); column A of every row of the row-sum sheet (30,000 cells);
// and two pastes of 4,096 cells into that sheet, 256 rows x 16 columns (256
// row sums) and 16 rows x 256 columns (16 row sums).
func BenchmarkMark(b *testing.B) {
	rect := func(rows, cols int) []sheet.Ref {
		var out []sheet.Ref
		for r := 1; r <= rows; r++ {
			for c := 1; c <= cols; c++ {
				out = append(out, ref(r, c))
			}
		}
		return out
	}
	ticker, _ := tickerRuns(400, 100)
	tickerCells, _ := tickerGraph(400, 100)
	rowSum, _ := rowSumGraph(30_000)
	for _, bc := range []struct {
		name string
		g    *Graph
		refs []sheet.Ref
	}{
		{"ticker", ticker, []sheet.Ref{ref(1, 1)}},
		{"ticker-cells", tickerCells, []sheet.Ref{ref(1, 1)}},
		{"rowsum", rowSum, rect(30_000, 1)},
		{"paste", rowSum, rect(256, 16)},
		{"widepaste", rowSum, rect(16, 256)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			const stride = 128
			marked := make([]bool, 30_001*stride)
			var set []int
			visit := func(seg sheet.Range, fresh []sheet.Range) []sheet.Range {
				for row := seg.From.Row; row <= seg.To.Row; row++ {
					if i := row*stride + seg.From.Col; !marked[i] {
						marked[i] = true
						set = append(set, i)
						if n := len(fresh) - 1; n >= 0 && fresh[n].From.Col == seg.From.Col && fresh[n].To.Row == row-1 {
							fresh[n].To.Row = row
						} else {
							fresh = append(fresh, sheet.NewRange(row, seg.From.Col, row, seg.From.Col))
						}
					}
				}
				return fresh
			}
			b.ReportAllocs()
			for b.Loop() {
				for _, i := range set {
					marked[i] = false
				}
				set = set[:0]
				bc.g.Mark(bc.refs, visit)
			}
		})
	}
}

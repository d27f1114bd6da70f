package depgraph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

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

// levels is the reference layout of members under edge(u, v) ("v reads u"):
// the members on or downstream of a cycle, sorted, and the others by
// longest chain of member precedents, each level sorted.
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
	for u := range n {
		for v := range n {
			if path[u][u] && (u == v || path[u][v]) {
				cyclic[v] = true
			}
		}
	}
	level := make([]int, n)
	var at func(v int) int
	at = func(v int) int {
		if level[v] == 0 {
			level[v] = 1 // 1 + the level, so 0 means "not computed"
			for u := range n {
				if edge(list[u], list[v]) {
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

// TestConeMatchesReference checks ConeFrom, UpstreamWaves and Mark against a
// brute-force scan on random graphs: members, longest-path waves sorted
// row-major, the cycle tail, the CSR edges, and Mark's stop at pre-marked
// cells of a closed set.
func TestConeMatchesReference(t *testing.T) {
	sawCycles, sawDeep := false, false
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

		// A closed pre-marked set, as the pending bits are: Mark adds exactly
		// the cone of refs and never passes a pre-marked cell.
		pending := map[sheet.Ref]bool{}
		m.closure(pick(2), pending)
		want := map[sheet.Ref]bool{}
		for r := range pending {
			want[r] = true
		}
		refs := append(pick(3), ref(rng.Intn(3000)+1, rng.Intn(6)+1))
		m.closure(refs, want)
		g.Mark(refs, func(r sheet.Ref) bool {
			if pending[r] {
				return false
			}
			pending[r] = true
			return true
		})
		if !reflect.DeepEqual(pending, want) {
			t.Fatalf("seed %d: Mark marked %d cells, reference %d", seed, len(pending), len(want))
		}

		// UpstreamWaves over that set: the member seeds and their member
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
		wantUp, _ := levels(up, func(u, v sheet.Ref) bool { _, ok := m[u]; return ok && m.reads(v, u) })
		if got := g.UpstreamWaves(vpSeeds, func(r sheet.Ref) bool { return pending[r] }); !reflect.DeepEqual(got, wantUp) {
			t.Fatalf("seed %d: UpstreamWaves %v, reference %v", seed, got, wantUp)
		}
	}
	if !sawCycles || !sawDeep {
		t.Fatalf("random graphs too tame: cycles seen %v, more than 3 waves seen %v", sawCycles, sawDeep)
	}
}

// tickerGraph is workload.TickerMarket's shape: B{i} = A1*i for i in
// 1..inter, and leaves C{i}.. = B{i}+j along each row.
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
// full plan does after a tick (ticker, 40,400 cells) or a load (rowsum,
// 30,000 cells). The pending bits come out in no particular order.
func BenchmarkConeFrom(b *testing.B) {
	for _, bc := range []struct {
		name  string
		build func() (*Graph, []sheet.Ref)
	}{
		{"ticker", func() (*Graph, []sheet.Ref) { return tickerGraph(400, 100) }},
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
// cells), and column A of every row of the row-sum sheet (30,000 cells).
func BenchmarkMark(b *testing.B) {
	column := make([]sheet.Ref, 30_000)
	for i := range column {
		column[i] = ref(i+1, 1)
	}
	ticker, _ := tickerGraph(400, 100)
	rowSum, _ := rowSumGraph(30_000)
	for _, bc := range []struct {
		name string
		g    *Graph
		refs []sheet.Ref
	}{
		{"ticker", ticker, []sheet.Ref{ref(1, 1)}},
		{"rowsum", rowSum, column},
	} {
		b.Run(bc.name, func(b *testing.B) {
			const stride = 128
			marked := make([]bool, 30_001*stride)
			var set []int
			b.ReportAllocs()
			for b.Loop() {
				for _, i := range set {
					marked[i] = false
				}
				set = set[:0]
				bc.g.Mark(bc.refs, func(r sheet.Ref) bool {
					i := r.Row*stride + r.Col
					if marked[i] {
						return false
					}
					marked[i] = true
					set = append(set, i)
					return true
				})
			}
		})
	}
}

// Package depgraph maintains the formula dependency graph of DataSpread's
// execution engine (Section VI): for each formula cell, which cells/ranges
// it reads, and — inverted — which formula cells must be recomputed when a
// cell changes. Recomputation order is topological; cycles are detected and
// reported so the engine can poison the affected cells with #CYCLE!.
//
// The unit of registration is the fill-down run, the persisted formula set's
// record: n cells down one column, member k being the run's head moved down k
// rows (formula.MoveDown). A run keeps one head expression and the head's
// reads, and member k's reads are arithmetic on them (formula.Read.At), so a
// column of 30,000 row sums is one registration and one tree. Installing a
// formula joins the run above or below it when it continues that run; an edit
// inside a run splits it; the cell-level Set registers a run of one.
//
// Dependents are resolved through a row-bucketed interval index: each read of
// a run is filed on its own by its envelope — the union of what its members
// read — under the 64-row stripes that envelope covers, single-cell reads by
// stripe and column (envelopes spanning many stripes — whole-column
// references, long runs — go to a small "wide" list instead). A candidate run answers a query
// with O(1) member arithmetic: the members whose read meets a changed range
// are one interval of the run. A cone query therefore touches only the
// stripes the changed cells fall in, and structural edits move whole runs,
// splitting only those the edit straddles.
//
// The recalc executor's two walks share one dependents query: a column
// segment (rows lo..hi of one column) in, each run reading it and the
// interval of its members that do out, a read counting only in the first
// bucket where its envelope meets the segment — no visited set. Mark, the
// edit-time walk, moves segments a level at a time: its caller's visit sets
// an interval's pending bits and hands back the sub-segments it newly set,
// which, joined per column, are the next level, so a tick marks its
// 40,400-cell cone in O(runs) and stops at cells already pending. ConeFrom,
// the plan, queries one cell at a time, numbers cone members with dense
// int32 ids through one map per plan, records each dependent edge as the
// walk finds it, keeps successors in CSR arrays and emits Kahn-by-level
// waves straight from them — no per-cell map of edges, degrees or levels.
package depgraph

import (
	"cmp"
	"maps"
	"slices"
	"sort"

	"dataspread/internal/formula"
	"dataspread/internal/sheet"
)

// Axis selects the dimension of a structural shift.
type Axis int

// Rows and Cols are the two shift axes.
const (
	Rows Axis = iota
	Cols
)

const (
	// stripeRows is the row granularity of the dependents index.
	stripeRows = 64
	// wideStripeSpan caps per-read index registrations: an envelope covering
	// more stripes than this (≥ ~2k rows, e.g. a whole-column reference or a
	// long relative run) registers once in the wide list instead of in
	// O(rows/64) stripes.
	wideStripeSpan = 32
	// maxCoord bounds the open edge of a band (any real reference fits).
	maxCoord = 1 << 29
)

// run is one registration: n formula cells filled down column col from row
// row. Member k sits at (row+k, col), is head moved down k rows and reads
// reads[i].At(k). The
// index buckets hold *run pointers, so moving a run under a structural shift
// touches only the run, never the buckets its unchanged reads live in.
type run struct {
	col, row, n int
	head        formula.Expr
	reads       []formula.Read
}

func (r *run) last() int { return r.row + r.n - 1 }

func (r *run) at(k int) sheet.Ref { return sheet.Ref{Row: r.row + k, Col: r.col} }

// Where the index files a read.
const (
	inStripes  = iota // multi-cell reads, under the stripes they cover
	inPoints          // one cell every member reads, under that cell
	inSegments        // one cell per member down a column, by stripe and column
	inWide            // reads spanning more than wideStripeSpan stripes
)

// file returns where a read of r is filed and the stripes its envelope — the
// union of what the members read through it — spans. The envelope runs from
// the first member's top to the last member's bottom: both bounds of Read.At
// only grow with the offset.
func (r *run) file(rd formula.Read) (lo, hi, where int) {
	bottom := rd.To.Row
	if k := r.n - 1; k > 0 {
		bottom = rd.At(k).To.Row
	}
	lo, hi = stripeOf(rd.From.Row), stripeOf(bottom)
	switch {
	case hi-lo+1 > wideStripeSpan:
		return lo, hi, inWide
	case rd.From != rd.To || rd.FromAbs != rd.ToAbs:
		return lo, hi, inStripes
	case rd.FromAbs || r.n == 1:
		return lo, hi, inPoints
	}
	return lo, hi, inSegments
}

// Graph tracks dependencies between cells. Precedents are stored as ranges
// (a compact representation of formula reads — takeaway 4); dependents are
// resolved through the stripe index.
type Graph struct {
	// cols is the registry: each column's runs, sorted by first row.
	cols map[int][]*run
	// cells counts the formula cells the runs hold.
	cells int
	// stripes files multi-cell reads under the row stripes their envelopes
	// cover, and stripeCols bounds the columns of the reads filed in each
	// stripe (it only widens, until its stripe empties).
	stripes    map[int][]filing
	stripeCols map[int][2]int
	// points indexes runs by the exact target of each single-cell read all
	// their members share — the dominant read shape. A dependents query for
	// one changed cell is then a map probe costing O(answer); without it,
	// every cell in a dense row stripe (think 100 leaf formulas per row all
	// reading that row's aggregate) drags the whole stripe bucket into every
	// walk step.
	points map[sheet.Ref][]*run
	// segments files reads of one cell further down a column per member
	// (=B1+1 filled down) by the stripes and column those cells span.
	segments map[uint64][]filing
	// wide holds the stripe-spanning reads.
	wide []filing
}

// filing is one read of a run as the index files it: r.reads[i].
type filing struct {
	r *run
	i int
}

// New returns an empty dependency graph.
func New() *Graph {
	return &Graph{
		cols:       make(map[int][]*run),
		stripes:    make(map[int][]filing),
		stripeCols: make(map[int][2]int),
		points:     make(map[sheet.Ref][]*run),
		segments:   make(map[uint64][]filing),
	}
}

func stripeOf(row int) int {
	if row < 1 {
		return 0
	}
	return (row - 1) / stripeRows
}

// segmentKey packs a stripe and a column into one segments key.
func segmentKey(stripe, col int) uint64 { return uint64(stripe)<<32 | uint64(uint32(col)) }

func removeEntry[T comparable](s []T, x T) []T {
	for i, y := range s {
		if y == x {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// registerReads files each read of the run into the index (see file).
func (g *Graph) registerReads(r *run) {
	for i, rd := range r.reads {
		f := filing{r, i}
		switch lo, hi, where := r.file(rd); where {
		case inPoints:
			g.points[rd.From] = append(g.points[rd.From], r)
		case inWide:
			g.wide = append(g.wide, f)
		case inSegments:
			for s := lo; s <= hi; s++ {
				key := segmentKey(s, rd.From.Col)
				g.segments[key] = append(g.segments[key], f)
			}
		default:
			for s := lo; s <= hi; s++ {
				g.stripes[s] = append(g.stripes[s], f)
				env, ok := g.stripeCols[s]
				if !ok {
					env = [2]int{rd.From.Col, rd.To.Col}
				}
				g.stripeCols[s] = [2]int{min(env[0], rd.From.Col), max(env[1], rd.To.Col)}
			}
		}
	}
}

// unregisterReads removes each read of the run from where it is filed.
func (g *Graph) unregisterReads(r *run) {
	for i, rd := range r.reads {
		f := filing{r, i}
		switch lo, hi, where := r.file(rd); where {
		case inPoints:
			if rest := removeEntry(g.points[rd.From], r); len(rest) > 0 {
				g.points[rd.From] = rest
			} else {
				delete(g.points, rd.From)
			}
		case inWide:
			g.wide = removeEntry(g.wide, f)
		case inSegments:
			for s := lo; s <= hi; s++ {
				key := segmentKey(s, rd.From.Col)
				if rest := removeEntry(g.segments[key], f); len(rest) > 0 {
					g.segments[key] = rest
				} else {
					delete(g.segments, key)
				}
			}
		default:
			for s := lo; s <= hi; s++ {
				if rest := removeEntry(g.stripes[s], f); len(rest) > 0 {
					g.stripes[s] = rest
				} else {
					delete(g.stripes, s)
					delete(g.stripeCols, s)
				}
			}
		}
	}
}

func byRow(x *run, row int) int { return cmp.Compare(x.row, row) }

// add registers a run over cells no run holds.
func (g *Graph) add(r *run) {
	col := g.cols[r.col]
	i, _ := slices.BinarySearchFunc(col, r.row, byRow)
	g.cols[r.col] = slices.Insert(col, i, r)
	g.cells += r.n
	g.registerReads(r)
}

// drop unregisters a run.
func (g *Graph) drop(r *run) {
	col := g.cols[r.col]
	i, _ := slices.BinarySearchFunc(col, r.row, byRow)
	if col = slices.Delete(col, i, i+1); len(col) > 0 {
		g.cols[r.col] = col
	} else {
		delete(g.cols, r.col)
	}
	g.cells -= r.n
	g.unregisterReads(r)
}

// reshape gives r new first row, length and head (whose reads have the same
// shape as the old head's), refiling it only when a read's envelope changes
// stripes: growing a run by a member does so once in 64 rows.
func (g *Graph) reshape(r *run, row, n int, head formula.Expr) {
	nr := run{col: r.col, row: row, n: n, head: head, reads: r.reads}
	if head != r.head {
		nr.reads = formula.Reads(head)
	}
	same := len(nr.reads) == len(r.reads)
	for i := 0; same && i < len(r.reads); i++ {
		lo, hi, where := r.file(r.reads[i])
		nlo, nhi, nwhere := nr.file(nr.reads[i])
		same = where == nwhere && (where == inWide || lo == nlo && hi == nhi) && r.reads[i].From == nr.reads[i].From
	}
	if !same {
		g.unregisterReads(r)
	}
	g.cells += n - r.n
	r.row, r.n, r.head, r.reads = row, n, head, nr.reads
	if !same {
		g.registerReads(r)
	}
}

// find returns the run holding ref and ref's offset in it (nil when none).
func (g *Graph) find(ref sheet.Ref) (*run, int) {
	col := g.cols[ref.Col]
	i, found := slices.BinarySearchFunc(col, ref.Row, byRow)
	if !found {
		i--
	}
	if i >= 0 && i < len(col) && ref.Row <= col[i].last() {
		return col[i], ref.Row - col[i].row
	}
	return nil, 0
}

// moveDown is head moved down k rows.
func moveDown(head formula.Expr, k int) formula.Expr {
	if k == 0 {
		return head
	}
	return formula.MoveDown(head, k)
}

// Set registers (or replaces) the ranges read by the formula at ref: a run of
// one, whose head is a call reading the ranges with $-absolute rows.
func (g *Graph) Set(ref sheet.Ref, reads []sheet.Range) {
	g.Remove(ref)
	if len(reads) == 0 {
		return
	}
	head := &formula.Call{Name: "READS"}
	for _, rg := range reads {
		head.Args = append(head.Args, &formula.RangeNode{
			From: formula.RefNode{Ref: rg.From, AbsRow: true}, To: formula.RefNode{Ref: rg.To, AbsRow: true}})
	}
	g.AddRun(ref, 1, head)
}

// SetFormula registers (or replaces) the formula at ref. It joins the run
// above when it is that run's head moved down to ref, and the run below when
// that run's head is it moved down a row (formula.IsMovedDown), so a column
// filled down is one run however its cells were entered.
func (g *Graph) SetFormula(ref sheet.Ref, expr formula.Expr) {
	g.Remove(ref)
	up, _ := g.find(sheet.Ref{Row: ref.Row - 1, Col: ref.Col})
	down, _ := g.find(sheet.Ref{Row: ref.Row + 1, Col: ref.Col})
	if down != nil && !formula.IsMovedDown(expr, down.head, 1) {
		down = nil
	}
	switch {
	case up != nil && formula.IsMovedDown(up.head, expr, ref.Row-up.row):
		n := up.n + 1
		if down != nil {
			g.drop(down)
			n += down.n
		}
		g.reshape(up, up.row, n, up.head)
	case down != nil:
		g.reshape(down, ref.Row, down.n+1, expr)
	default:
		g.add(&run{col: ref.Col, row: ref.Row, n: 1, head: expr, reads: formula.Reads(expr)})
	}
}

// AddRun registers n formula cells filled down from ref over cells no run
// holds: member k is head moved down k rows. It is a persisted run as it is,
// with no per-cell copies.
func (g *Graph) AddRun(ref sheet.Ref, n int, head formula.Expr) {
	g.add(&run{col: ref.Col, row: ref.Row, n: n, head: head, reads: formula.Reads(head)})
}

// Remove drops the formula at ref, splitting its run around it.
func (g *Graph) Remove(ref sheet.Ref) {
	r, k := g.find(ref)
	if r == nil {
		return
	}
	if k+1 < r.n {
		below := moveDown(r.head, k+1)
		g.add(&run{col: r.col, row: ref.Row + 1, n: r.n - k - 1, head: below, reads: formula.Reads(below)})
	}
	if k == 0 {
		g.drop(r)
	} else {
		g.reshape(r, r.row, k, r.head)
	}
}

// Len returns the number of tracked formula cells.
func (g *Graph) Len() int { return g.cells }

// Formula returns the formula at ref as its run's head and ref's offset in
// the run — formula.EvalAt evaluates it there; ok is false when no formula is
// registered at ref.
func (g *Graph) Formula(ref sheet.Ref) (head formula.Expr, k int, ok bool) {
	r, k := g.find(ref)
	if r == nil {
		return nil, 0, false
	}
	return r.head, k, true
}

// Runs visits every run in (column, row) order: its first cell, its length
// and its head.
func (g *Graph) Runs(fn func(ref sheet.Ref, n int, head formula.Expr)) {
	for _, c := range slices.Sorted(maps.Keys(g.cols)) {
		for _, r := range g.cols[c] {
			fn(r.at(0), r.n, r.head)
		}
	}
}

// Precedents returns the ranges the formula at ref reads (nil when ref has
// no formula or reads nothing).
func (g *Graph) Precedents(ref sheet.Ref) []sheet.Range {
	r, k := g.find(ref)
	if r == nil || len(r.reads) == 0 {
		return nil
	}
	out := make([]sheet.Range, len(r.reads))
	for i, rd := range r.reads {
		out[i] = rd.At(k)
	}
	return out
}

// members returns the members [k1, k2] of an n-member run whose read rd
// meets g (k1 > k2: none). Both bounds of rd.At(k) grow with k, so member k's
// rows reach g's top from the first k either bound does, and start no lower
// than g's bottom up to the last k either bound does.
func members(rd formula.Read, n int, g sheet.Range) (k1, k2 int) {
	if rd.To.Col < g.From.Col || rd.From.Col > g.To.Col {
		return 0, -1
	}
	first := func(row int, abs bool) int {
		switch {
		case row >= g.From.Row:
			return 0
		case abs:
			return n
		}
		return g.From.Row - row
	}
	last := func(row int, abs bool) int {
		switch {
		case row > g.To.Row:
			return -1
		case abs:
			return n - 1
		}
		return g.To.Row - row
	}
	return max(0, min(first(rd.From.Row, rd.FromAbs), first(rd.To.Row, rd.ToAbs))),
		min(n-1, max(last(rd.From.Row, rd.FromAbs), last(rd.To.Row, rd.ToAbs)))
}

// runsNear streams every run filed in a bucket rg meets — the stripe, point
// and segment buckets of its rows and columns, and the wide list — scanning a
// bucket map instead when rg spans more of its keys than it holds. A run may
// come more than once; callers dedup.
func (g *Graph) runsNear(rg sheet.Range, fn func(*run)) {
	lo, hi := stripeOf(rg.From.Row), stripeOf(rg.To.Row)
	if span := hi - lo + 1; span > len(g.stripes) {
		for s, bucket := range g.stripes {
			if s >= lo && s <= hi {
				for _, f := range bucket {
					fn(f.r)
				}
			}
		}
	} else {
		for s := lo; s <= hi; s++ {
			for _, f := range g.stripes[s] {
				fn(f.r)
			}
		}
	}
	if rg.Area() > len(g.points) {
		for key, bucket := range g.points {
			if rg.Contains(key) {
				for _, r := range bucket {
					fn(r)
				}
			}
		}
	} else {
		for row := rg.From.Row; row <= rg.To.Row; row++ {
			for c := rg.From.Col; c <= rg.To.Col; c++ {
				for _, r := range g.points[sheet.Ref{Row: row, Col: c}] {
					fn(r)
				}
			}
		}
	}
	if (hi-lo+1)*rg.Cols() > len(g.segments) {
		for key, bucket := range g.segments {
			if s, c := int(key>>32), int(uint32(key)); s >= lo && s <= hi && c >= rg.From.Col && c <= rg.To.Col {
				for _, f := range bucket {
					fn(f.r)
				}
			}
		}
	} else {
		for s := lo; s <= hi; s++ {
			for c := rg.From.Col; c <= rg.To.Col; c++ {
				for _, f := range g.segments[segmentKey(s, c)] {
					fn(f.r)
				}
			}
		}
	}
	for _, f := range g.wide {
		fn(f.r)
	}
}

// DirectDependents returns formula cells that directly read any cell in
// the changed range, in deterministic order.
func (g *Graph) DirectDependents(changed sheet.Range) []sheet.Ref {
	var out []sheet.Ref
	seen := make(map[*run]bool)
	g.runsNear(changed, func(r *run) {
		if seen[r] {
			return
		}
		seen[r] = true
		for _, rd := range r.reads {
			k1, k2 := members(rd, r.n, changed)
			for k := k1; k <= k2; k++ {
				out = append(out, r.at(k))
			}
		}
	})
	sortRefs(out)
	return slices.Compact(out)
}

// AffectedFrom returns the dependency cone of an explicit set of formula
// cells that must themselves be recomputed, in a valid evaluation order
// (precedents before dependents): the seeds verbatim — even seeds no longer
// registered in the graph, such as formulas whose reads all collapsed to
// #REF! — plus every formula transitively reading them. Cells participating
// in a dependency cycle (and everything downstream of one) are returned
// separately. It is ConeFrom without the edge structure.
func (g *Graph) AffectedFrom(seeds []sheet.Ref) (order []sheet.Ref, cycles []sheet.Ref) {
	c := g.ConeFrom(seeds)
	if c == nil {
		return nil, nil
	}
	return c.Refs[:len(c.Refs)-len(c.Cycles)], c.Cycles
}

// dependents streams to fn every member interval [k1, k2] of a run whose
// members read a cell of seg — rows seg.From.Row..seg.To.Row of column
// seg.From.Col — in O(runs it meets), with the members arithmetic: point
// probes (or one pass over the points map, when seg is longer than it), the
// stripe and segment buckets of seg's stripes and the wide list. A read
// filed in several buckets counts only in the first one where its envelope
// meets seg, so an interval comes once per read of its run that meets seg,
// with no visited set.
func (g *Graph) dependents(seg sheet.Range, fn func(r *run, k1, k2 int)) {
	col, lo, hi := seg.From.Col, stripeOf(seg.From.Row), stripeOf(seg.To.Row)
	// scan matches the reads filed in stripe s (s < 0: the wide list, where
	// each read is filed once).
	scan := func(bucket []filing, s int) {
		for _, f := range bucket {
			rd := f.r.reads[f.i]
			if rd.To.Col >= col && rd.From.Col <= col && (s < 0 || max(stripeOf(rd.From.Row), lo) == s) {
				if k1, k2 := members(rd, f.r.n, seg); k1 <= k2 {
					fn(f.r, k1, k2)
				}
			}
		}
	}
	if seg.Rows() > len(g.points) {
		for key, bucket := range g.points {
			if seg.Contains(key) {
				for _, r := range bucket {
					fn(r, 0, r.n-1)
				}
			}
		}
	} else {
		for row := seg.From.Row; row <= seg.To.Row; row++ {
			for _, r := range g.points[sheet.Ref{Row: row, Col: col}] {
				fn(r, 0, r.n-1)
			}
		}
	}
	for s := lo; s <= hi; s++ {
		if env := g.stripeCols[s]; col >= env[0] && col <= env[1] {
			scan(g.stripes[s], s)
		}
		scan(g.segments[segmentKey(s, col)], s)
	}
	scan(g.wide, -1)
}

// Mark is the edit-time walk over the dependency cone of the changed cells,
// by column segment (a one-column sheet.Range), one level at a time: each
// level's segments are queried for the member intervals reading them, visit
// marks each interval and appends to fresh the sub-segments it newly marked,
// and those, joined per column, are the next level. The walk does not pass
// a cell visit did not newly mark, and the changed cells themselves are not
// visited. The recalc executor's visit sets the pending bits, so the walk
// stops at cells already pending — exact by the pending set's closure (every
// dependent of a pending cell is pending) — and keeps no visited set of its
// own: a tick into a 40,400-cell cone costs O(runs), not one probe per cell.
func (g *Graph) Mark(changed []sheet.Ref, visit func(seg sheet.Range, fresh []sheet.Range) []sheet.Range) {
	if len(changed) == 0 {
		return
	}
	cell := [1]sheet.Range{{From: changed[0], To: changed[0]}} // a one-cell edit allocates nothing
	level := cell[:]
	if len(changed) > 1 {
		var j joiner
		for _, c := range changed {
			j.add(sheet.Range{From: c, To: c})
		}
		level = j.out
	}
	var fresh []sheet.Range
	for len(level) > 0 {
		var j joiner
		for _, seg := range level {
			g.dependents(seg, func(r *run, k1, k2 int) {
				fresh = visit(sheet.Range{From: r.at(k1), To: r.at(k2)}, fresh[:0])
				for _, s := range fresh {
					j.add(s)
				}
			})
		}
		level = j.out
	}
}

// joiner groups column segments by column through a table over their
// column span — no comparison sort — joining each to the last segment of
// its column when they touch or overlap, so a row-major batch of cells comes
// out as one segment per column and row run.
type joiner struct {
	lo   int
	last []int32 // by column - lo: 1 + the index in out of its last segment
	out  []sheet.Range
}

func (j *joiner) add(s sheet.Range) {
	if len(j.last) == 0 {
		j.lo = s.From.Col
	}
	if s.From.Col < j.lo { // grown by at least its length: descending columns stay linear
		grow := max(j.lo-s.From.Col, len(j.last))
		j.last, j.lo = slices.Insert(j.last, 0, make([]int32, grow)...), j.lo-grow
	}
	b := s.From.Col - j.lo
	if b >= len(j.last) {
		j.last = append(j.last, make([]int32, b+1-len(j.last))...)
	}
	if i := j.last[b] - 1; i >= 0 && s.From.Row >= j.out[i].From.Row && s.From.Row <= j.out[i].To.Row+1 {
		j.out[i].To.Row = max(j.out[i].To.Row, s.To.Row)
		return
	}
	j.out = append(j.out, s)
	j.last[b] = int32(len(j.out))
}

// UpstreamWaves returns the member-filtered transitive precedent closure
// of seeds (the member seeds themselves plus every member ancestor),
// partitioned into topological waves: wave k's cells read, within the
// set, only cells of earlier waves. Set members on dependency cycles are
// omitted — the caller's full plan poisons them. The background recalc
// scheduler uses it with member = "is pending" to evaluate a viewport's
// stale cells and their stale ancestors ahead of everything else, in
// O(viewport cone), without first paying the full cone's plan.
func (g *Graph) UpstreamWaves(seeds []sheet.Ref, member func(sheet.Ref) bool) [][]sheet.Ref {
	b := newConeBuilder(len(seeds))
	for _, s := range seeds {
		if member(s) {
			b.add(s)
		}
	}
	for v := 0; v < len(b.refs); v++ {
		r, k := g.find(b.refs[v])
		if r == nil {
			continue
		}
		for _, rd := range r.reads {
			g.formulasIn(rd.At(k), func(p sheet.Ref) bool {
				if _, ok := b.ids[cellKey(p)]; ok || member(p) {
					b.edge(b.add(p), int32(v))
				}
				return false
			})
		}
	}
	if c := b.cone(); c != nil {
		return c.Waves
	}
	return nil
}

// Cone is a dependency cone laid out flat for the recalc planner: members are
// positions in Refs, which lists them in evaluation order, and the dependent
// edges between them are CSR arrays over those positions.
type Cone struct {
	// Refs lists the members: the acyclic ones wave by wave, each wave
	// sorted row-major, then the cycle members, sorted.
	Refs []sheet.Ref
	// Waves partitions the acyclic members (sub-slices of Refs) into
	// topological levels: wave k holds the members whose longest chain of
	// precedents within the cone has length k, so every member's cone-internal
	// precedents complete strictly before its wave runs — the members of one
	// wave are mutually independent and may evaluate in parallel.
	Waves [][]sheet.Ref
	// Cycles is the tail of Refs on or downstream of a dependency cycle; it
	// has no valid order and must be poisoned.
	Cycles []sheet.Ref
	// Succ[Off[i]:Off[i+1]] are the positions of the members reading member
	// i (edge i -> j when formula j reads cell i). An acyclic member's
	// readers all sit after it in Refs.
	Off, Succ []int32
}

// ConeFrom returns the full cone structure of an explicit set of formula
// cells: the seeds verbatim plus every formula transitively reading them,
// in evaluation order, with their dependent edges (nil when empty). Each
// member is walked once, and the readers it yields are its edges.
func (g *Graph) ConeFrom(seeds []sheet.Ref) *Cone {
	b := newConeBuilder(len(seeds))
	for _, s := range seeds {
		b.add(s)
	}
	for u := 0; u < len(b.refs); u++ {
		g.dependents(sheet.Range{From: b.refs[u], To: b.refs[u]}, func(r *run, k1, k2 int) {
			for k := k1; k <= k2; k++ {
				b.edge(int32(u), b.add(r.at(k)))
			}
		})
	}
	return b.cone()
}

// coneBuilder numbers cone members with dense ids — the one map of a plan —
// and collects the dependent edges between them as the walk finds them.
type coneBuilder struct {
	ids      map[uint64]int32 // by cellKey
	refs     []sheet.Ref
	from, to []int32
}

func newConeBuilder(n int) *coneBuilder {
	return &coneBuilder{ids: make(map[uint64]int32, n), refs: make([]sheet.Ref, 0, n)}
}

// add returns r's id, numbering r when it is new.
func (b *coneBuilder) add(r sheet.Ref) int32 {
	id, ok := b.ids[cellKey(r)]
	if !ok {
		id = int32(len(b.refs))
		b.ids[cellKey(r)] = id
		b.refs = append(b.refs, r)
	}
	return id
}

// cellKey packs a ref into one word, the cheapest map key to hash.
func cellKey(r sheet.Ref) uint64 { return uint64(r.Row)<<32 | uint64(uint32(r.Col)) }

// edge records that member v reads member u. A formula reading a cell twice
// records it twice; Kahn counts and releases both.
func (b *coneBuilder) edge(u, v int32) {
	b.from = append(b.from, u)
	b.to = append(b.to, v)
}

// cone lays the members out by Kahn levels over the edges in CSR form, each
// wave sorted row-major, the members no wave reaches (on or downstream of a
// cycle) last, and renumbers the edges by position (nil when empty).
func (b *coneBuilder) cone() *Cone {
	n := len(b.refs)
	if n == 0 {
		return nil
	}
	off := make([]int32, n+1)
	indeg := make([]int32, n)
	for i, u := range b.from {
		off[u+1]++
		indeg[b.to[i]]++
	}
	for i := range n {
		off[i+1] += off[i]
	}
	succ := make([]int32, len(b.from))
	fill := slices.Clone(off[:n])
	for i, u := range b.from {
		succ[fill[u]] = b.to[i]
		fill[u]++
	}
	byRef := func(x, y int32) int { return cmpRefs(b.refs[x], b.refs[y]) }
	order := make([]int32, 0, n)
	for v, d := range indeg {
		if d == 0 {
			order = append(order, int32(v))
		}
	}
	var ends []int
	for lo := 0; lo < len(order); lo = ends[len(ends)-1] {
		ends = append(ends, len(order))
		slices.SortFunc(order[lo:], byRef)
		for _, v := range order[lo:ends[len(ends)-1]] {
			for _, w := range succ[off[v]:off[v+1]] {
				if indeg[w]--; indeg[w] == 0 {
					order = append(order, w)
				}
			}
		}
	}
	acyclic := len(order)
	for v, d := range indeg {
		if d > 0 {
			order = append(order, int32(v))
		}
	}
	slices.SortFunc(order[acyclic:], byRef)

	pos := fill // id -> position in order
	for i, v := range order {
		pos[v] = int32(i)
	}
	c := &Cone{Refs: make([]sheet.Ref, n), Off: make([]int32, n+1), Succ: make([]int32, 0, len(succ))}
	for i, v := range order {
		c.Refs[i] = b.refs[v]
		for _, w := range succ[off[v]:off[v+1]] {
			c.Succ = append(c.Succ, pos[w])
		}
		c.Off[i+1] = int32(len(c.Succ))
	}
	lo := 0
	for _, hi := range ends {
		c.Waves = append(c.Waves, c.Refs[lo:hi])
		lo = hi
	}
	c.Cycles = c.Refs[acyclic:]
	return c
}

// HasCycleAt reports whether installing a formula at ref that reads the
// given ranges would create a dependency cycle (including self-reference).
// The walk follows precedent edges: from a formula cell to the formula
// cells located inside the ranges it reads; reaching ref closes a cycle.
func (g *Graph) HasCycleAt(ref sheet.Ref, reads []sheet.Range) bool {
	for _, r := range reads {
		if r.Contains(ref) {
			return true
		}
	}
	var seen map[sheet.Ref]bool
	var stack []sheet.Ref
	seed := func(ranges []sheet.Range) bool {
		for _, r := range ranges {
			if g.formulasIn(r, func(dep sheet.Ref) bool {
				if dep == ref {
					return true
				}
				if !seen[dep] {
					if seen == nil {
						seen = make(map[sheet.Ref]bool)
					}
					seen[dep] = true
					stack = append(stack, dep)
				}
				return false
			}) {
				return true
			}
		}
		return false
	}
	if seed(reads) {
		return true
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, r := range g.Precedents(cur) {
			if r.Contains(ref) {
				return true
			}
		}
		if seed(g.Precedents(cur)) {
			return true
		}
	}
	return false
}

// formulasIn visits every registered formula cell inside r, early-exiting
// (and returning true) when visit does. HasCycleAt runs once per formula
// install, and scanning the whole registry there turns bulk loads quadratic:
// runsIn keeps the cost to the formulas inside r.
func (g *Graph) formulasIn(r sheet.Range, visit func(sheet.Ref) bool) bool {
	return g.runsIn(r, func(x *run) bool {
		for row := max(x.row, r.From.Row); row <= min(x.last(), r.To.Row); row++ {
			if visit(sheet.Ref{Row: row, Col: x.col}) {
				return true
			}
		}
		return false
	})
}

// RunsIn visits the part inside r of every run meeting it, down each column
// in row order: the part's first cell, that cell's offset k in its run, the
// number n of members inside r, and the run's head, which member k+i is moved
// down k+i rows. It is how the engine overlays formula text on a tile it
// loads.
func (g *Graph) RunsIn(r sheet.Range, fn func(first sheet.Ref, k, n int, head formula.Expr)) {
	g.runsIn(r, func(x *run) bool {
		lo, hi := max(x.row, r.From.Row), min(x.last(), r.To.Row)
		fn(sheet.Ref{Row: lo, Col: x.col}, lo-x.row, hi-lo+1, x.head)
		return false
	})
}

// runsIn visits every run meeting r until visit returns true, and reports
// whether it did: per column of r, a binary search to the first run reaching
// r's top, then each run up to r's bottom — the cost tracks the runs inside
// r, not the registry. A range spanning more columns than hold formulas walks
// the registry's columns instead (in no particular order).
func (g *Graph) runsIn(r sheet.Range, visit func(*run) bool) bool {
	inCol := func(runs []*run) bool {
		i := sort.Search(len(runs), func(i int) bool { return runs[i].last() >= r.From.Row })
		for ; i < len(runs) && runs[i].row <= r.To.Row; i++ {
			if visit(runs[i]) {
				return true
			}
		}
		return false
	}
	if r.To.Col-r.From.Col+1 > len(g.cols) {
		for c, runs := range g.cols {
			if c >= r.From.Col && c <= r.To.Col && inCol(runs) {
				return true
			}
		}
		return false
	}
	for c := r.From.Col; c <= r.To.Col; c++ {
		if inCol(g.cols[c]) {
			return true
		}
	}
	return false
}

// ShiftResult reports what a structural Shift did to the registrations.
type ShiftResult struct {
	// MovedOld and MovedNew are parallel: formula cells that relocated,
	// pre- and post-shift, in pre-shift (column, row) order.
	MovedOld, MovedNew []sheet.Ref
	// Rewritten lists formulas (post-shift positions, row-major) whose read
	// ranges cross the edit, and Exprs their rewritten expressions: the graph
	// holds them already; the caller persists their new text.
	Rewritten []sheet.Ref
	Exprs     []formula.Expr
	// Dropped lists formulas (pre-shift positions) whose own cell was
	// inside a deleted band; they have been removed from the graph.
	Dropped []sheet.Ref
}

// ShiftIndex maps a 1-based row/column index through a structural shift
// (delta > 0 inserts delta slots before `at`; delta < 0 deletes the -delta
// slots [at, at-delta-1]). ok is false when the index falls inside a
// deleted band. It is the single source of truth for the relocation rule —
// the engine's constant relocation and recalc-seed mapping use it too.
func ShiftIndex(idx, at, delta int) (nw int, ok bool) {
	if delta > 0 {
		if idx >= at {
			return idx + delta, true
		}
		return idx, true
	}
	count := -delta
	switch {
	case idx >= at+count:
		return idx - count, true
	case idx >= at:
		return 0, false
	}
	return idx, true
}

// Shift relocates registrations under a structural edit on the given axis:
// delta > 0 inserts delta rows/columns before index `at` (existing indexes
// >= at move up by delta); delta < 0 deletes the -delta rows/columns
// [at, at-delta-1]. Formula cells inside a deleted band are removed; a run
// with no cell at or past the edit and no read reaching it is not looked at,
// and one that only moves moves whole. Members reading at or past the edit —
// a suffix of each run — are rewritten (formula.Shift: inserts move and
// absorb, deletes clip) and grouped into runs again.
func (g *Graph) Shift(axis Axis, at, delta int) ShiftResult {
	var res ShiftResult
	if delta == 0 {
		return res
	}
	sh := formula.Shift{Rows: axis == Rows, At: at, Count: max(delta, -delta), Delete: delta < 0}
	reach := sheet.NewRange(1, at, maxCoord, maxCoord) // at or past the edit
	if sh.Rows {
		reach = sheet.NewRange(at, 1, maxCoord, maxCoord)
	}
	seen := make(map[*run]bool)
	var runs []*run
	near := func(r *run) {
		if !seen[r] {
			seen[r] = true
			runs = append(runs, r)
		}
	}
	for _, col := range g.cols {
		for i := len(col) - 1; i >= 0 && (!sh.Rows || col[i].last() >= at); i-- {
			near(col[i])
		}
	}
	g.runsNear(reach, near)
	slices.SortFunc(runs, func(a, b *run) int { return cmp.Or(cmp.Compare(a.col, b.col), cmp.Compare(a.row, b.row)) })

	type rewrite struct {
		ref  sheet.Ref
		expr formula.Expr
	}
	var rewrites []rewrite
	var gone, pieces []*run
	for _, r := range runs {
		cross := r.n // members [cross, n) read at or past the edit
		for _, rd := range r.reads {
			if k1, k2 := members(rd, r.n, reach); k1 <= k2 {
				cross = min(cross, k1)
			}
		}
		last := r.at(r.n - 1)
		if cross == r.n && (sh.Rows && last.Row < at || !sh.Rows && last.Col < at) {
			continue
		}
		gone = append(gone, r)
		// Cut where crossing starts and where the cell mapping changes: each
		// segment then drops, stays or moves as one, crossing or not.
		cuts := []int{0, cross, r.n}
		if sh.Rows {
			cuts = append(cuts, at-r.row, at+sh.Count-r.row)
		}
		cuts = slices.DeleteFunc(cuts, func(c int) bool { return c < 0 || c > r.n })
		slices.Sort(cuts)
		cuts = slices.Compact(cuts)
		for i := 0; i+1 < len(cuts); i++ {
			a, b := cuts[i], cuts[i+1]
			nw, ok := shiftRef(r.at(a), axis, at, delta)
			for k := a; k < b; k++ {
				if !ok {
					res.Dropped = append(res.Dropped, r.at(k))
				} else if nw != r.at(a) {
					res.MovedOld = append(res.MovedOld, r.at(k))
					res.MovedNew = append(res.MovedNew, sheet.Ref{Row: nw.Row + k - a, Col: nw.Col})
				}
			}
			switch {
			case !ok:
			case a < cross: // reads nothing the edit moves: the members keep their formulas
				pieces = append(pieces, &run{col: nw.Col, row: nw.Row, n: b - a, head: moveDown(r.head, a)})
			default:
				var cur *run
				for k := a; k < b; k++ {
					ref, e := sheet.Ref{Row: nw.Row + k - a, Col: nw.Col}, sh.Apply(formula.MoveDown(r.head, k))
					rewrites = append(rewrites, rewrite{ref, e})
					if cur != nil && formula.IsMovedDown(cur.head, e, ref.Row-cur.row) {
						cur.n++
						continue
					}
					cur = &run{col: ref.Col, row: ref.Row, n: 1, head: e}
					pieces = append(pieces, cur)
				}
			}
		}
	}
	// Every run leaves before any piece arrives: old and new cells may
	// overlap.
	for _, r := range gone {
		g.drop(r)
	}
	for _, p := range pieces {
		p.reads = formula.Reads(p.head)
		g.add(p)
	}
	slices.SortFunc(rewrites, func(a, b rewrite) int { return cmpRefs(a.ref, b.ref) })
	for _, w := range rewrites {
		res.Rewritten = append(res.Rewritten, w.ref)
		res.Exprs = append(res.Exprs, w.expr)
	}
	return res
}

// shiftRef maps a cell through a structural shift (ShiftIndex on the axis).
func shiftRef(ref sheet.Ref, axis Axis, at, delta int) (sheet.Ref, bool) {
	idx := &ref.Col
	if axis == Rows {
		idx = &ref.Row
	}
	nw, ok := ShiftIndex(*idx, at, delta)
	*idx = nw
	return ref, ok
}

// cmpRefs orders refs row-major.
func cmpRefs(a, b sheet.Ref) int {
	if a.Row != b.Row {
		return cmp.Compare(a.Row, b.Row)
	}
	return cmp.Compare(a.Col, b.Col)
}

func sortRefs(refs []sheet.Ref) { slices.SortFunc(refs, cmpRefs) }

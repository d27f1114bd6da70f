// Package depgraph maintains the formula dependency graph of DataSpread's
// execution engine (Section VI): for each formula cell, which cells/ranges
// it reads, and — inverted — which formula cells must be recomputed when a
// cell changes. Recomputation order is topological; cycles are detected and
// reported so the engine can poison the affected cells with #CYCLE!.
//
// Dependents are resolved through a row-bucketed interval index: every
// registered read range is filed under the 64-row stripes it covers (ranges
// spanning many stripes — whole-column references — go to a small "wide"
// list instead), and formula cells themselves are filed under the stripe of
// their own row. A dependents query therefore touches only the stripes the
// changed range intersects, so a cone query costs O(dependents · log n) instead
// of a scan over every formula, and structural edits relocate registrations
// in place through Shift instead of re-registering the whole sheet.
//
// The recalc executor's two walks are flat passes over that index. Mark, the
// edit-time walk, keeps no visited set of its own: its caller's visit (the
// pending bits) is one, and it stops at a cell already marked. ConeFrom, the
// plan, numbers cone members with dense int32 ids through one map per plan,
// records each dependent edge as the walk finds it, keeps successors in CSR
// arrays and emits Kahn-by-level waves straight from them — no per-cell map
// of edges, degrees or levels.
package depgraph

import (
	"cmp"
	"slices"
	"sort"

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
	// wideStripeSpan caps per-range index registrations: a range covering
	// more stripes than this (≥ ~2k rows, e.g. a whole-column reference)
	// registers once in the wide list instead of in O(rows/64) stripes.
	wideStripeSpan = 32
)

// entry is one registered formula: its cell and the ranges it reads. The
// index buckets hold *entry pointers, so relocating a formula under a
// structural shift touches only the entry, never the buckets its unchanged
// ranges live in.
type entry struct {
	ref   sheet.Ref
	reads []sheet.Range
	// wide marks registration in the wide list (at most once per entry).
	wide bool
}

// Graph tracks dependencies between cells. Precedents are stored as ranges
// (a compact representation of formula reads — takeaway 4); dependents are
// resolved through the stripe index.
type Graph struct {
	// deps maps a formula cell to its registration.
	deps map[sheet.Ref]*entry
	// stripes indexes entries by the row stripes their read ranges cover.
	stripes map[int][]*entry
	// wide holds entries owning at least one stripe-spanning range.
	wide []*entry
	// keyStripes indexes entries by their own cell's row stripe, so
	// structural shifts locate movers without scanning every formula.
	keyStripes map[int][]*entry
	// points indexes entries by the exact target of each single-cell read
	// — the dominant read shape. A dependents query for one changed cell
	// is then a map probe costing O(answer); without it, every cell in a
	// dense row stripe (think 100 leaf formulas per row all reading that
	// row's aggregate) drags the whole stripe bucket into every BFS step.
	points map[sheet.Ref][]*entry
	// pointKeys buckets the occupied point targets by row stripe, so
	// range queries and row shifts find point readers without walking the
	// whole points map.
	pointKeys map[int]map[sheet.Ref]bool
}

// New returns an empty dependency graph.
func New() *Graph {
	return &Graph{
		deps:       make(map[sheet.Ref]*entry),
		stripes:    make(map[int][]*entry),
		keyStripes: make(map[int][]*entry),
		points:     make(map[sheet.Ref][]*entry),
		pointKeys:  make(map[int]map[sheet.Ref]bool),
	}
}

// Grow sizes an empty graph for n formulas, so a bulk registration (core.Load
// knows the count before it registers anything) does not grow the registry
// through a dozen doublings.
func (g *Graph) Grow(n int) {
	if len(g.deps) == 0 {
		g.deps = make(map[sheet.Ref]*entry, n)
	}
}

func stripeOf(row int) int {
	if row < 1 {
		return 0
	}
	return (row - 1) / stripeRows
}

// rangeStripes returns the stripe span of a range and whether it is wide.
func rangeStripes(r sheet.Range) (lo, hi int, wide bool) {
	lo, hi = stripeOf(r.From.Row), stripeOf(r.To.Row)
	return lo, hi, hi-lo+1 > wideStripeSpan
}

func removeEntry(s []*entry, e *entry) []*entry {
	for i, x := range s {
		if x == e {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

func (g *Graph) registerPoint(key sheet.Ref, e *entry) {
	g.points[key] = append(g.points[key], e)
	s := stripeOf(key.Row)
	b := g.pointKeys[s]
	if b == nil {
		b = make(map[sheet.Ref]bool)
		g.pointKeys[s] = b
	}
	b[key] = true
}

func (g *Graph) unregisterPoint(key sheet.Ref, e *entry) {
	if rest := removeEntry(g.points[key], e); len(rest) > 0 {
		g.points[key] = rest
		return
	}
	delete(g.points, key)
	s := stripeOf(key.Row)
	if b := g.pointKeys[s]; b != nil {
		delete(b, key)
		if len(b) == 0 {
			delete(g.pointKeys, s)
		}
	}
}

// stripeSet returns the set registerReads and unregisterReads keep an entry to
// one filing per stripe with. Only an entry with two or more multi-cell ranges
// can meet a stripe twice; the usual single range (a row's SUM) gets nil and
// allocates nothing.
func stripeSet(reads []sheet.Range) map[int]bool {
	multi := 0
	for _, r := range reads {
		if r.From != r.To {
			if multi++; multi > 1 {
				return make(map[int]bool)
			}
		}
	}
	return nil
}

// registerReads files the entry's ranges into the index: single-cell reads
// into the point map, multi-cell ranges into the stripe/wide buckets. Each
// stripe (and the wide list) holds the entry at most once.
func (g *Graph) registerReads(e *entry) {
	seen := stripeSet(e.reads)
	for _, r := range e.reads {
		if r.From == r.To {
			g.registerPoint(r.From, e)
			continue
		}
		lo, hi, wide := rangeStripes(r)
		if wide {
			if !e.wide {
				e.wide = true
				g.wide = append(g.wide, e)
			}
			continue
		}
		for s := lo; s <= hi; s++ {
			if seen != nil {
				if seen[s] {
					continue
				}
				seen[s] = true
			}
			g.stripes[s] = append(g.stripes[s], e)
		}
	}
}

// unregisterReads removes the entry from every bucket its ranges cover.
func (g *Graph) unregisterReads(e *entry) {
	seen := stripeSet(e.reads)
	for _, r := range e.reads {
		if r.From == r.To {
			g.unregisterPoint(r.From, e)
			continue
		}
		lo, hi, wide := rangeStripes(r)
		if wide {
			continue
		}
		for s := lo; s <= hi; s++ {
			if seen != nil {
				if seen[s] {
					continue
				}
				seen[s] = true
			}
			if rest := removeEntry(g.stripes[s], e); len(rest) > 0 {
				g.stripes[s] = rest
			} else {
				delete(g.stripes, s)
			}
		}
	}
	if e.wide {
		e.wide = false
		g.wide = removeEntry(g.wide, e)
	}
}

func (g *Graph) registerKey(e *entry) {
	s := stripeOf(e.ref.Row)
	g.keyStripes[s] = append(g.keyStripes[s], e)
}

func (g *Graph) unregisterKey(e *entry) {
	s := stripeOf(e.ref.Row)
	if rest := removeEntry(g.keyStripes[s], e); len(rest) > 0 {
		g.keyStripes[s] = rest
	} else {
		delete(g.keyStripes, s)
	}
}

// Set registers (or replaces) the ranges read by the formula at ref.
func (g *Graph) Set(ref sheet.Ref, reads []sheet.Range) {
	if len(reads) == 0 {
		g.Remove(ref)
		return
	}
	if e, ok := g.deps[ref]; ok {
		g.unregisterReads(e)
		e.reads = reads
		g.registerReads(e)
		return
	}
	e := &entry{ref: ref, reads: reads}
	g.deps[ref] = e
	g.registerReads(e)
	g.registerKey(e)
}

// Remove drops the formula at ref.
func (g *Graph) Remove(ref sheet.Ref) {
	e, ok := g.deps[ref]
	if !ok {
		return
	}
	g.unregisterReads(e)
	g.unregisterKey(e)
	delete(g.deps, ref)
}

// Len returns the number of tracked formula cells.
func (g *Graph) Len() int { return len(g.deps) }

// Precedents returns the ranges the formula at ref reads (nil when ref has
// no formula).
func (g *Graph) Precedents(ref sheet.Ref) []sheet.Range {
	if e, ok := g.deps[ref]; ok {
		return e.reads
	}
	return nil
}

// stripeCandidates streams every range-reader entry whose index bucket
// intersects the row band [fromRow, toRow] (stripe buckets plus the wide
// list) to fn. Single-cell reads live in the point index instead — pair
// with pointCandidates for full coverage. An entry may be produced more
// than once; callers dedup.
func (g *Graph) stripeCandidates(fromRow, toRow int, fn func(*entry)) {
	lo, hi := stripeOf(fromRow), stripeOf(toRow)
	if span := hi - lo + 1; span < 0 || span > len(g.stripes) {
		// The band covers more stripes than exist: walk the map instead.
		for s, bucket := range g.stripes {
			if s >= lo && s <= hi {
				for _, e := range bucket {
					fn(e)
				}
			}
		}
	} else {
		for s := lo; s <= hi; s++ {
			for _, e := range g.stripes[s] {
				fn(e)
			}
		}
	}
	for _, e := range g.wide {
		fn(e)
	}
}

// pointCandidates streams every entry registered as a point reader of a
// cell inside changed. Entries may repeat; callers dedup.
func (g *Graph) pointCandidates(changed sheet.Range, fn func(*entry)) {
	if changed.From == changed.To {
		for _, e := range g.points[changed.From] {
			fn(e)
		}
		return
	}
	emit := func(bucket map[sheet.Ref]bool) {
		for key := range bucket {
			if changed.Contains(key) {
				for _, e := range g.points[key] {
					fn(e)
				}
			}
		}
	}
	lo, hi := stripeOf(changed.From.Row), stripeOf(changed.To.Row)
	if span := hi - lo + 1; span < 0 || span > len(g.pointKeys) {
		for s, bucket := range g.pointKeys {
			if s >= lo && s <= hi {
				emit(bucket)
			}
		}
		return
	}
	for s := lo; s <= hi; s++ {
		emit(g.pointKeys[s])
	}
}

// DirectDependents returns formula cells that directly read any cell in
// the changed range, in deterministic order.
func (g *Graph) DirectDependents(changed sheet.Range) []sheet.Ref {
	var out []sheet.Ref
	seen := make(map[*entry]bool)
	collect := func(e *entry) {
		if seen[e] {
			return
		}
		seen[e] = true
		for _, r := range e.reads {
			if r.Intersects(changed) {
				out = append(out, e.ref)
				return
			}
		}
	}
	g.pointCandidates(changed, collect)
	g.stripeCandidates(changed.From.Row, changed.To.Row, collect)
	sortRefs(out)
	return out
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

// readers streams to fn every formula directly reading one of the cells in
// sorted (row-major, as sortRefs leaves it): one point probe per cell and one
// stripe probe per distinct stripe, matched against the exact cells —
// scattered edits do not drag every formula in their bounding rectangle
// along. An entry may be produced more than once.
func (g *Graph) readers(sorted []sheet.Ref, fn func(*entry)) {
	last := -1
	for _, ref := range sorted {
		for _, e := range g.points[ref] {
			fn(e)
		}
		if stripeOf(ref.Row) == last {
			continue
		}
		last = stripeOf(ref.Row)
		g.stripeCandidates(ref.Row, ref.Row, func(e *entry) {
			for _, r := range e.reads {
				if r.From != r.To && rangeContainsAny(r, sorted) {
					fn(e)
					return
				}
			}
		})
	}
}

// Mark is the edit-time walk over the dependency cone of refs: every formula
// directly reading one of refs goes to visit, and the readers of a formula
// for which visit reports true are visited in turn; the walk does not pass a
// formula for which it reports false. refs themselves are not visited. The
// recalc executor's visit sets the pending bit and reports whether it was
// newly set, so the walk stops at a cell already pending — exact by the
// pending set's closure (every dependent of a pending cell is pending) — and
// keeps no visited set of its own: an edit into a 100k-cell cone must return
// in milliseconds.
func (g *Graph) Mark(refs []sheet.Ref, visit func(sheet.Ref) bool) {
	sorted := refs
	if !slices.IsSortedFunc(refs, cmpRefs) {
		sorted = slices.Clone(refs)
		sortRefs(sorted)
	}
	// Depth first: the stack holds a fan-out, not the cone.
	var stack []sheet.Ref
	step := func(e *entry) {
		if visit(e.ref) {
			stack = append(stack, e.ref)
		}
	}
	g.readers(sorted, step)
	for len(stack) > 0 {
		top := [1]sheet.Ref{stack[len(stack)-1]}
		stack = stack[:len(stack)-1]
		g.readers(top[:], step)
	}
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
		e, ok := g.deps[b.refs[v]]
		if !ok {
			continue
		}
		for _, r := range e.reads {
			g.formulasIn(r, func(p sheet.Ref) bool {
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

// rangeContainsAny reports whether r contains any of the refs (sorted by
// row, then column): binary search to the range's first row, then walk.
func rangeContainsAny(r sheet.Range, sorted []sheet.Ref) bool {
	if len(sorted) == 1 { // a walk step: skip the search
		return r.Contains(sorted[0])
	}
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i].Row >= r.From.Row })
	for ; i < len(sorted) && sorted[i].Row <= r.To.Row; i++ {
		if c := sorted[i].Col; c >= r.From.Col && c <= r.To.Col {
			return true
		}
	}
	return false
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
		g.readers(b.refs[u:u+1], func(e *entry) { b.edge(int32(u), b.add(e.ref)) })
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
// (and returning true) when visit does. Single-cell ranges resolve with one
// map probe and larger ones walk the key-stripe index, so the cost tracks
// the range's row span rather than the total number of registered formulas
// — HasCycleAt runs once per formula install, and scanning the whole
// registry there turns bulk loads quadratic. A range spanning more stripe
// slots than are populated falls back to the full registry scan.
func (g *Graph) formulasIn(r sheet.Range, visit func(sheet.Ref) bool) bool {
	if r.From == r.To {
		if _, ok := g.deps[r.From]; ok {
			return visit(r.From)
		}
		return false
	}
	lo, hi := stripeOf(r.From.Row), stripeOf(r.To.Row)
	if hi-lo+1 > len(g.keyStripes) {
		for ref := range g.deps {
			if r.Contains(ref) && visit(ref) {
				return true
			}
		}
		return false
	}
	for s := lo; s <= hi; s++ {
		for _, e := range g.keyStripes[s] {
			if r.Contains(e.ref) && visit(e.ref) {
				return true
			}
		}
	}
	return false
}

// ShiftResult reports what a structural Shift did to the registrations.
type ShiftResult struct {
	// MovedOld and MovedNew are parallel: formula cells that relocated,
	// pre- and post-shift, ordered by pre-shift position.
	MovedOld, MovedNew []sheet.Ref
	// Rewritten lists formulas (post-shift positions) whose read ranges
	// cross the edit: their expressions must be rewritten and re-registered
	// by the caller (Set with the rewritten reads is authoritative).
	Rewritten []sheet.Ref
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
// [at, at-delta-1]. Formula cells inside a deleted band are removed; read
// ranges that do not cross the edit stay registered untouched (no
// re-bucketing), which is what makes a structural edit cost
// O(movers + crossers), not O(formulas).
func (g *Graph) Shift(axis Axis, at, delta int) ShiftResult {
	var res ShiftResult
	if delta == 0 {
		return res
	}

	// Locate movers and dropped entries. The key index bounds the search to
	// stripes at or after the edit for row shifts; column shifts scan the
	// map (formula cells are not indexed by column).
	var movers, dropped []*entry
	classify := func(e *entry) {
		idx := e.ref.Col
		if axis == Rows {
			idx = e.ref.Row
		}
		switch nw, ok := ShiftIndex(idx, at, delta); {
		case !ok:
			dropped = append(dropped, e)
		case nw != idx:
			movers = append(movers, e)
		}
	}
	if axis == Rows {
		lo := stripeOf(at)
		for s, bucket := range g.keyStripes {
			if s >= lo {
				for _, e := range bucket {
					classify(e)
				}
			}
		}
	} else {
		for _, e := range g.deps {
			classify(e)
		}
	}
	byRef := func(a, b *entry) int { return cmpRefs(a.ref, b.ref) }
	slices.SortFunc(movers, byRef)
	slices.SortFunc(dropped, byRef)

	// Locate crossers: entries with a read range ending at or after the
	// edit. The stripe walk bounds this to entries actually reading near or
	// past the edit (plus the wide list).
	crosserSet := make(map[*entry]bool)
	var crossers []*entry
	collectCrosser := func(e *entry) {
		if crosserSet[e] {
			return
		}
		for _, r := range e.reads {
			hi := r.To.Col
			if axis == Rows {
				hi = r.To.Row
			}
			if hi >= at {
				crosserSet[e] = true
				crossers = append(crossers, e)
				return
			}
		}
	}
	if axis == Rows {
		lo := stripeOf(at)
		for s, bucket := range g.stripes {
			if s >= lo {
				for _, e := range bucket {
					collectCrosser(e)
				}
			}
		}
		// Point reads at or past the edit: any read row >= at lives in a
		// pointKeys stripe >= lo (collectCrosser re-checks the boundary for
		// same-stripe keys before it).
		for s, bucket := range g.pointKeys {
			if s >= lo {
				for key := range bucket {
					for _, e := range g.points[key] {
						collectCrosser(e)
					}
				}
			}
		}
		for _, e := range g.wide {
			collectCrosser(e)
		}
	} else {
		for _, e := range g.deps {
			collectCrosser(e)
		}
	}

	// Apply: dropped entries leave the graph entirely.
	for _, e := range dropped {
		res.Dropped = append(res.Dropped, e.ref)
		g.unregisterReads(e)
		g.unregisterKey(e)
		delete(g.deps, e.ref)
		delete(crosserSet, e)
	}
	// Movers rekey in two phases so old and new key ranges may overlap.
	for _, e := range movers {
		res.MovedOld = append(res.MovedOld, e.ref)
		g.unregisterKey(e)
		delete(g.deps, e.ref)
	}
	for _, e := range movers {
		if axis == Rows {
			e.ref.Row += delta
		} else {
			e.ref.Col += delta
		}
		res.MovedNew = append(res.MovedNew, e.ref)
		g.deps[e.ref] = e
		g.registerKey(e)
	}
	// Crossers: shift their ranges in place (insert moves every boundary at
	// or past the edit; delete clips into the surviving span). The caller
	// re-Sets these entries from the rewritten expressions, so this keeps
	// the graph coherent for queries issued in between.
	for _, e := range crossers {
		if !crosserSet[e] {
			continue // dropped above
		}
		g.unregisterReads(e)
		kept := e.reads[:0]
		for _, r := range e.reads {
			if nr, ok := shiftRange(r, axis, at, delta); ok {
				kept = append(kept, nr)
			}
		}
		e.reads = kept
		if len(e.reads) == 0 {
			// Every read vanished with a deleted band: the formula is now a
			// constant (#REF!); it leaves the graph, but the caller still
			// hears about it through Rewritten.
			res.Rewritten = append(res.Rewritten, e.ref)
			g.unregisterKey(e)
			delete(g.deps, e.ref)
			continue
		}
		g.registerReads(e)
		res.Rewritten = append(res.Rewritten, e.ref)
	}
	sortRefs(res.Rewritten)
	return res
}

// shiftRange relocates one range under a shift, mirroring the reference
// rewriting of formula.Shift (inserts move and absorb; deletes clip; ok is
// false when the whole range falls inside a deleted band).
func shiftRange(r sheet.Range, axis Axis, at, delta int) (sheet.Range, bool) {
	lo, hi := r.From.Col, r.To.Col
	if axis == Rows {
		lo, hi = r.From.Row, r.To.Row
	}
	if delta > 0 {
		if lo >= at {
			lo += delta
		}
		if hi >= at {
			hi += delta
		}
	} else {
		count := -delta
		end := at + count // first index past the deleted band
		switch {
		case lo >= end:
			lo -= count
		case lo >= at:
			lo = at
		}
		switch {
		case hi >= end:
			hi -= count
		case hi >= at:
			hi = at - 1
		}
		if hi < lo {
			return sheet.Range{}, false
		}
	}
	if axis == Rows {
		return sheet.NewRange(lo, r.From.Col, hi, r.To.Col), true
	}
	return sheet.NewRange(r.From.Row, lo, r.To.Row, hi), true
}

// cmpRefs orders refs row-major.
func cmpRefs(a, b sheet.Ref) int {
	if a.Row != b.Row {
		return cmp.Compare(a.Row, b.Row)
	}
	return cmp.Compare(a.Col, b.Col)
}

func sortRefs(refs []sheet.Ref) { slices.SortFunc(refs, cmpRefs) }

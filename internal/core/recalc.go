// The recalc executor — the paper's LazyBrowsing direction, and the engine's
// one recalculation path. Every mutation marks the cells it makes stale
// pending (a staleness bit in the cache sidecar, surfaced to readers:
// Engine.mark) and then settles: the executor derives a plan from the
// pending bits — the viewport's stale cells and their stale ancestors first,
// then the whole cone in topological waves cut into bounded chunks —
// evaluates each chunk, and commits it through the engine's one
// write-through (Engine.commit). The last full plan is kept and used again
// while the registry and the pending set are the ones it was built from, so a
// ticking feed that marks the same cone tick after tick pays for its values,
// not for re-planning (buildPlan). Options.AsyncRecalc decides only who runs
// it:
//
//   - AsyncRecalc: the edit returns with its cone marked; a single
//     dispatcher goroutine runs the plan, evaluating each chunk itself, so
//     what the user can see converges first and the edit never waits for a
//     100k-cell cone. Between the viewport pass and the rest of the cone it
//     goes straight on when the pending set is the kept plan's, a repeated
//     cone with nothing to coalesce; otherwise it waits until edits have
//     paused for coldDelay, or until somebody waits on it (Drain, WaitRange,
//     Close).
//   - otherwise: the edit runs the plan itself, serially, before it returns.
//     On return nothing is pending and every recomputed value is in the
//     store; durability stays the caller's Save. An error leaves the
//     unfinished cells pending; with no dispatcher to wait for, the next
//     edit, Drain, WaitRange or Close runs the plan again itself, so a
//     synchronous engine never waits on a cell nobody will compute.
//
// Concurrency contract (the lock order is stated once, in latch.go):
//
//   - Every executor step — building a plan, committing a chunk, the
//     drain-save — runs under writeMu, like every edit: the dispatcher takes
//     it per step, an inline settle's caller holds it already
//     (recalcScheduler.lock is the one place the two differ). An inline
//     settle starts no goroutine.
//   - A chunk is evaluated under writeMu alone (reads only — chunk members
//     are mutually independent, same topological wave) on the goroutine that
//     commits it, then committed in one batch through Engine.commit: one
//     store write and one publish that pokes the values and clears the
//     chunk's pending bits together, the write-window latch held for just
//     that, so a reader loading a cold block never waits for an evaluation.
//     Its reads go through a tile reader (cache.TileReader), which reads
//     resident tiles' columns without the cache lock, since every writer of
//     those columns holds writeMu, and pays the lock, the map probe and the
//     shared hit counter once per tile, not per cell.
//   - Edits concurrent with a running plan set the restructure flag (under
//     writeMu); the executor abandons its stale plan at the next chunk
//     boundary and rebuilds from the pending bits, whose closure property
//     (every dependent of a pending cell is pending) makes the rebuild
//     exact. A chunk that won its locks just after such an edit commits
//     only the cells that read no pending cell.
//   - When the pending set drains to zero the dispatcher persists the
//     recomputed values (manifest save + WAL flush), so a cleanly closed
//     async engine is as durable as a synchronous one. Values computed
//     between drains are volatile until the next drain — formulas and the
//     edits themselves are durable at edit time (see README).
package core

import (
	"fmt"
	"iter"
	"maps"
	"slices"
	"sync"
	"time"

	"dataspread/internal/depgraph"
	"dataspread/internal/formula"
	"dataspread/internal/model"
	"dataspread/internal/sheet"
)

// recalcChunkSize bounds how many cells one executor step holds the edit lock
// for: large enough to amortize lock churn, small enough that an edit never
// waits behind a long evaluation.
const recalcChunkSize = 512

// coldDelay is the dispatcher's quiet window: how long after the latest edit
// it leaves the cells nobody is looking at alone, unless they are the kept
// plan's (process). It coalesces a paste burst's recalculation and
// drain-saves and keeps a load's revalidation off an open's first reads: with
// it at 0 for every edit, edit-contended lost paste throughput and WAL bytes,
// and opens got slower. A repeated cone, a ticking feed's, has nothing to
// coalesce and does not wait. A variable for tests.
var coldDelay = 40 * time.Millisecond

var errEngineClosed = fmt.Errorf("core: engine closed")

type recalcScheduler struct {
	e *Engine
	// async is Options.AsyncRecalc: a dispatcher goroutine runs the plans.
	async bool
	// done closes when the dispatcher has exited (at once when there is
	// none).
	done chan struct{}

	mu   sync.Mutex
	cond *sync.Cond // new work, chunk completion, viewport change, close

	// restructure tells the executor its plan is stale: an edit changed
	// the pending set (or a viewport moved), so the evaluation plan must
	// be rebuilt from the pending bits.
	restructure bool
	closed      bool
	// stalled is set when an evaluation or commit error left cells
	// pending; the dispatcher backs off until the next edit instead of
	// hot-looping against a poisoned store.
	stalled bool
	lastErr error

	viewports map[int]sheet.Range
	nextVP    int

	// edited is when the latest edit settled, waiters how many callers are
	// blocked in wait: the two ends of the quiet window.
	edited  time.Time
	waiters int

	// The last full plan (buildPlan) and commitChunk's scratch belong to
	// whoever runs the executor: the dispatcher, or an inline settle.
	plan    recalcPlan
	scratch chunkScratch
}

// chunkScratch is commitChunk's reused buffers: the members' pending bits,
// the cells to evaluate, the changed values and the bits to clear. Each holds
// at most one chunk, so it is kept from process to process.
type chunkScratch struct {
	pending []bool
	jobs    []recalcJob
	writes  []model.CellWrite
	clear   []sheet.Ref
}

// startRecalc attaches the recalc executor; launch starts the dispatcher when
// opts ask for one.
func (e *Engine) startRecalc(opts Options) {
	s := &recalcScheduler{
		e:         e,
		done:      make(chan struct{}),
		viewports: make(map[int]sheet.Range),
	}
	s.cond = sync.NewCond(&s.mu)
	e.sched = s
	if !opts.AsyncRecalc {
		close(s.done)
		return
	}
	s.async = true
}

// launch is the last step of New, Open and Load: it starts the dispatcher of
// an AsyncRecalc engine — only now that nothing can fail to build any more; a
// dispatcher started earlier would outlive an error return and pin the engine
// forever — and, when recalc is set, marks every formula; then whatever is
// pending settles.
func (e *Engine) launch(recalc bool) (*Engine, error) {
	if e.sched.async {
		go e.sched.run()
	}
	if recalc || e.cache.PendingCount() > 0 {
		if err := e.recalc(recalc); err != nil {
			e.Close()
			return nil, err
		}
	}
	return e, nil
}

// PendingCount returns how many cells await recalculation (0 whenever a
// synchronous engine's edit has returned without error).
func (e *Engine) PendingCount() int { return e.cache.PendingCount() }

// PendingInRange counts the pending cells inside g.
func (e *Engine) PendingInRange(g sheet.Range) int { return e.cache.PendingInRange(g) }

// IsPending reports whether one cell's displayed value is stale.
func (e *Engine) IsPending(row, col int) bool {
	return e.cache.IsPending(sheet.Ref{Row: row, Col: col})
}

// RegisterViewport registers a region whose cells jump the recalc queue
// (together with their pending ancestors), returning a handle for
// UpdateViewport/UnregisterViewport. Sessions register the region their
// user is looking at.
func (e *Engine) RegisterViewport(g sheet.Range) int {
	s := e.sched
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextVP++
	s.viewports[s.nextVP] = g
	s.restructure = true
	s.cond.Broadcast()
	return s.nextVP
}

// UpdateViewport moves a registered viewport (scrolling).
func (e *Engine) UpdateViewport(id int, g sheet.Range) {
	s := e.sched
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.viewports[id]; ok {
		s.viewports[id] = g
		s.restructure = true
		s.cond.Broadcast()
	}
}

// UnregisterViewport drops a registered viewport (session end).
func (e *Engine) UnregisterViewport(id int) {
	s := e.sched
	s.mu.Lock()
	delete(s.viewports, id)
	s.mu.Unlock()
}

// Drain blocks until no cell is pending, returning the executor's error
// when it is stalled instead (poisoned store).
func (e *Engine) Drain() error {
	return e.sched.wait(func() bool { return e.cache.PendingCount() == 0 })
}

// WaitRange blocks until no cell inside g is pending — "the viewport has
// converged".
func (e *Engine) WaitRange(g sheet.Range) error {
	return e.sched.wait(func() bool { return e.cache.PendingInRange(g) == 0 })
}

// Close stops the recalc dispatcher after a best-effort drain (a stalled
// one stops without draining; its error is returned). Idempotent. The
// engine remains readable, but async edits after Close stay pending
// forever; a synchronous engine has no dispatcher and keeps working.
func (e *Engine) Close() error { return e.sched.close() }

// lockWritesDrained acquires the edit lock at a moment when no cell is
// pending: structural shifts relocate cells, and no staleness bit may be
// left pointing at a pre-shift position. If the executor is stalled the
// lock is taken anyway — the caller's writeGuard rejects the mutation on
// the same poisoned store that stalled it.
func (e *Engine) lockWritesDrained() func() {
	for {
		e.writeMu.Lock()
		if e.cache.PendingCount() == 0 {
			return e.writeMu.Unlock
		}
		e.writeMu.Unlock()
		if err := e.Drain(); err != nil {
			e.writeMu.Lock()
			return e.writeMu.Unlock
		}
	}
}

// settle is the one way marked cells get computed. Callers hold writeMu. An
// AsyncRecalc engine wakes the dispatcher and returns; otherwise the plan
// runs here, on the caller, until nothing is pending.
func (e *Engine) settle() error {
	s := e.sched
	s.mu.Lock()
	s.restructure = true
	s.stalled = false
	s.edited = time.Now()
	s.cond.Broadcast()
	s.mu.Unlock()
	if s.async {
		return nil
	}
	for e.cache.PendingCount() > 0 {
		if err := s.process(); err != nil {
			s.noteErr(err)
			return err
		}
	}
	return nil
}

// lock takes the edit lock for one executor step and returns the release: the
// dispatcher takes writeMu, an inline settle's caller holds it.
func (s *recalcScheduler) lock() (unlock func()) {
	if !s.async {
		return func() {}
	}
	s.e.writeMu.Lock()
	return s.e.writeMu.Unlock
}

// wait blocks until done() holds, the executor stalls, or it closes. A
// synchronous engine has no dispatcher to wait for: the waiter becomes the
// caller of an inline settle of whatever a failed edit left pending, so
// Drain, Close and the drained edit lock never hang.
func (s *recalcScheduler) wait(done func() bool) error {
	if e := s.e; !s.async {
		e.writeMu.Lock()
		defer e.writeMu.Unlock()
		return e.settle()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.waiters++
	defer func() { s.waiters-- }()
	s.cond.Broadcast() // somebody is waiting: the quiet window is over
	for {
		if done() {
			return nil
		}
		if s.stalled {
			return s.lastErr
		}
		if s.closed {
			if s.lastErr != nil {
				return s.lastErr
			}
			return errEngineClosed
		}
		s.cond.Wait()
	}
}

func (s *recalcScheduler) close() error {
	// Best-effort drain, so recomputed values reach the store before the
	// dispatcher stops; its last act is the drain-save that makes them
	// durable.
	_ = s.wait(func() bool { return s.e.cache.PendingCount() == 0 })
	s.mu.Lock()
	s.closed = true
	s.restructure = true // a plan still running stops at its next chunk
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

func (s *recalcScheduler) noteErr(err error) {
	s.mu.Lock()
	s.stalled = true
	s.lastErr = err
	s.cond.Broadcast()
	s.mu.Unlock()
}

// interrupted reports whether the current plan should be abandoned.
func (s *recalcScheduler) interrupted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restructure
}

// run is the dispatcher: sleep until woken, run a plan, and persist what it
// computed once nothing is pending — one last time on the way out.
func (s *recalcScheduler) run() {
	defer close(s.done)
	for {
		s.mu.Lock()
		for !s.closed && !s.restructure {
			s.cond.Wait()
		}
		closed := s.closed
		s.mu.Unlock()
		var err error
		if !closed {
			err = s.process()
		}
		if err == nil {
			err = s.drainSave()
		}
		if err != nil {
			s.noteErr(err)
		}
		if closed {
			return
		}
	}
}

// process runs one plan, rebuilt from the pending bits, until it completes
// or is interrupted. The viewport fast path goes first: the pending cells a
// user is looking at (plus their pending ancestors) commit before the full
// plan's cone-wide topological sort even starts — on a 100k-cell cone the
// sort alone costs more than the whole hot pass. The rest starts at once on
// the kept plan while it is current, since waiting would coalesce nothing,
// and after quiet otherwise (a paste burst, a new cone, a load).
func (s *recalcScheduler) process() error {
	s.mu.Lock()
	s.restructure = false
	s.mu.Unlock()
	if err := s.commitPlan(s.buildHotPlan()); err != nil {
		return err
	}
	unlock := s.lock()
	p, current := s.keptPlan()
	unlock()
	if !current {
		if !s.quiet() {
			return nil // a new edit, or Close: the dispatcher plans again from the top
		}
		p = s.buildPlan()
	}
	return s.commitPlan(p)
}

// commitPlan commits a plan's chunks in order, each under its own hold of the
// edit lock, stopping at the first chunk boundary after the plan went stale.
func (s *recalcScheduler) commitPlan(p recalcPlan) error {
	for refs, cycle := range p.chunks() {
		if s.interrupted() {
			return nil
		}
		unlock := s.lock()
		err := s.commitChunk(refs, cycle)
		unlock()
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.cond.Broadcast() // wake Drain / WaitRange watchers
		s.mu.Unlock()
	}
	return nil
}

// quiet stands between the viewport pass and a full plan that is not the kept
// one: the dispatcher blocks until coldDelay has passed since the latest edit,
// or somebody waits (Drain, WaitRange, Close, a structural edit), and learns
// whether the full plan is still worth building — not after a new edit or
// Close. An inline settle has its caller waiting and goes straight on.
func (s *recalcScheduler) quiet() bool {
	if !s.async {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.restructure && !s.closed && s.waiters == 0 && s.e.cache.PendingCount() > 0 {
		d := time.Until(s.edited.Add(coldDelay))
		if d <= 0 {
			break
		}
		t := time.AfterFunc(d, s.cond.Broadcast)
		s.cond.Wait()
		t.Stop()
	}
	return !s.restructure && !s.closed
}

// buildHotPlan is the viewport fast path: pending cells inside registered
// viewports plus their pending ancestors, computed in O(viewport cone) and
// cut as the full plan is — the ancestors on a cycle poisoned first, so no
// wave reads a pending one. It is never kept.
func (s *recalcScheduler) buildHotPlan() recalcPlan {
	s.mu.Lock()
	vps := slices.Collect(maps.Values(s.viewports))
	s.mu.Unlock()
	if len(vps) == 0 {
		return recalcPlan{}
	}
	e := s.e
	unlock := s.lock()
	defer unlock()
	var seeds []sheet.Ref
	for _, g := range vps {
		seeds = append(seeds, e.cache.PendingRefsIn(g)...)
	}
	if len(seeds) == 0 {
		return recalcPlan{}
	}
	return newPlan(0, e.deps.UpstreamCone(seeds, e.cache.IsPending))
}

// buildPlan derives the evaluation plan from the pending bits: the cone over
// the pending set, cut by newPlan. It needs no viewport ordering: the hot
// plan has committed every pending viewport cell and its ancestors before
// this plan starts, and an edit or viewport move since then sets
// restructure, which abandons the plan before it builds or commits. A plan is
// a function of the registry and the pending set alone, so the last one is
// kept and reused while both read the same (keptPlan), or nothing is pending.
func (s *recalcScheduler) buildPlan() recalcPlan {
	e := s.e
	unlock := s.lock()
	defer unlock()
	// An edit that held the lock meanwhile has marked and flagged: a plan
	// built now would be abandoned at its first chunk, after the O(cone)
	// sort, and that edit's viewport cells would have waited behind it.
	if e.cache.PendingCount() == 0 || s.interrupted() {
		return recalcPlan{}
	}
	if p, current := s.keptPlan(); current {
		return p
	}
	s.plan = newPlan(e.deps.Gen(), e.deps.ConeFrom(e.cache.PendingRefs()))
	return s.plan
}

// keptPlan returns the kept plan and whether it is current: built at the
// registry's generation over exactly the pending set, so a rebuild would give
// the same plan. Callers hold the edit lock.
func (s *recalcScheduler) keptPlan() (recalcPlan, bool) {
	e := s.e
	return s.plan, s.plan.gen == e.deps.Gen() && e.cache.PendingIs(s.plan.n, s.plan.rects)
}

// recalcPlan is a plan kept compactly: the registry generation it was built
// at, its n members in plan order as row-major rectangles, each chunk's size
// and how many lead on a cycle — no per-member array, no edges. The
// 40,400-cell ticker cone is a few rectangles.
type recalcPlan struct {
	gen            uint64
	n, cycleChunks int
	rects          []sheet.Range
	sizes          []int
}

// newPlan cuts a cone into commit units of at most recalcChunkSize cells —
// the members on a cycle first (their value is #CYCLE! whatever they read,
// and the waves may read them), then the waves in order — and keeps the
// members as runs of columns in one row, folded into rectangles.
func newPlan(gen uint64, c *depgraph.Cone) recalcPlan {
	p := recalcPlan{gen: gen}
	if c == nil {
		return p
	}
	var rows []sheet.Range
	for i, wave := range append([][]sheet.Ref{c.Cycles}, c.Waves...) {
		for lo := 0; lo < len(wave); lo += recalcChunkSize {
			p.sizes = append(p.sizes, min(recalcChunkSize, len(wave)-lo))
			if i == 0 {
				p.cycleChunks++
			}
		}
		p.n += len(wave)
		for _, r := range wave {
			if last := len(rows) - 1; last >= 0 && rows[last].To == (sheet.Ref{Row: r.Row, Col: r.Col - 1}) {
				rows[last].To.Col++
			} else {
				rows = append(rows, sheet.Range{From: r, To: r})
			}
		}
	}
	for _, g := range rows {
		if last := len(p.rects) - 1; last >= 0 && g.From == (sheet.Ref{Row: p.rects[last].To.Row + 1, Col: p.rects[last].From.Col}) && g.To.Col == p.rects[last].To.Col {
			p.rects[last].To.Row++
		} else {
			p.rects = append(p.rects, g)
		}
	}
	return p
}

// chunks lays the plan's chunks out in order, each into the one reused
// buffer, and yields it with its cycle flag; a chunk is good until the next.
func (p recalcPlan) chunks() iter.Seq2[[]sheet.Ref, bool] {
	return func(yield func([]sheet.Ref, bool) bool) {
		buf := make([]sheet.Ref, 0, min(p.n, recalcChunkSize))
		i := 0
		for _, g := range p.rects {
			for r := g.From; r.Row <= g.To.Row; r.Row++ {
				for r.Col = g.From.Col; r.Col <= g.To.Col; r.Col++ {
					if buf = append(buf, r); len(buf) < p.sizes[i] {
						continue
					}
					if !yield(buf, i < p.cycleChunks) {
						return
					}
					buf, i = buf[:0], i+1
				}
			}
		}
	}
}

// commitChunk evaluates and commits one chunk under the edit lock: test the
// members' pending bits in one hold of the sidecar's lock, evaluate (reads
// only; a cycle chunk's value is #CYCLE!), read the old values, and commit the
// changed ones in one batch whose publish also clears the bits of the members
// whose value stands. Every read goes through a tile reader
// (cache.TileReader), one for the evaluation and one for the old values, so a
// chunk of about 5 rows by 100 columns visits each tile it touches about
// once, not once per cell; the old values are read before the chunk's publish
// changes them. An edit may have slipped in between the plan
// and the lock (it marks and flags under writeMu, so the flag is exact here):
// the plan's order is then stale, and only the cells that read no pending
// cell — right to evaluate under any plan — commit; the rest, and a whole
// cycle chunk, whose cycle the edit may have broken, stay pending for the
// rebuilt plan. A tile that fails to load fails the chunk with its cause
// before anything commits: a value computed from its blank would be wrong.
func (s *recalcScheduler) commitChunk(refs []sheet.Ref, cycle bool) error {
	e := s.e
	stale := s.interrupted()
	if stale && cycle {
		return nil
	}
	readsPending := func(r sheet.Ref) bool {
		for _, g := range e.deps.Precedents(r) {
			if e.cache.PendingInRange(g) > 0 {
				return true
			}
		}
		return false
	}
	sc := &s.scratch
	sc.pending = e.cache.PendingOf(refs, sc.pending[:0])
	jobs, clear := sc.jobs[:0], sc.clear[:0]
	for i, r := range refs {
		if !sc.pending[i] {
			continue // committed or superseded since the plan was built
		}
		if stale && readsPending(r) {
			continue // the rebuilt plan orders it after its reads
		}
		// A pending cell holds a live formula: every drop is a write whose
		// publish clears the cell's bit, and a structural edit starts with
		// nothing pending.
		head, k, _ := e.deps.Formula(r)
		jobs = append(jobs, recalcJob{ref: r, head: head, k: k})
	}
	res := &evalReader{e: e, tiles: e.cache.TileReader()}
	for i := range jobs {
		if cycle {
			jobs[i].val = sheet.ErrCycle
		} else {
			jobs[i].val = formula.EvalAt(jobs[i].head, jobs[i].k, res)
		}
	}
	if err := res.tiles.Err(); err != nil {
		return err
	}
	writes, olds := sc.writes[:0], e.cache.TileReader()
	for _, j := range jobs {
		old := olds.Get(j.ref)
		if old.Value.Equal(j.val) {
			clear = append(clear, j.ref)
			continue
		}
		writes = append(writes, model.CellWrite{Row: j.ref.Row, Col: j.ref.Col,
			Cell: sheet.Cell{Value: j.val, Formula: old.Formula}})
	}
	sc.jobs, sc.writes, sc.clear = jobs, writes, clear
	if err := olds.Err(); err != nil {
		return err
	}
	return e.commit(writes, clear)
}

// recalcJob is a chunk's cell: its run's head, evaluated k rows down, to val.
type recalcJob struct {
	ref  sheet.Ref
	head formula.Expr
	k    int
	val  sheet.Value
}

// drainSave persists the recomputed values once the pending set is empty:
// one manifest save plus one WAL flush, mirroring what Save would do.
func (s *recalcScheduler) drainSave() error {
	e := s.e
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if e.cache.PendingCount() != 0 {
		return nil
	}
	return e.saveLocked()
}

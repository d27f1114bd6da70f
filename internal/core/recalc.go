// The recalc executor — the paper's LazyBrowsing direction, and the engine's
// one recalculation path. Every mutation marks the cells it makes stale
// pending (a staleness bit in the cache sidecar, surfaced to readers:
// Engine.mark) and then settles: the executor derives a plan from the
// pending bits — the viewport's stale cells and their stale ancestors first,
// then the whole cone in topological waves cut into bounded chunks —
// evaluates each chunk, and commits it through the engine's one
// write-through (Engine.commit). Options.AsyncRecalc decides only who runs
// it:
//
//   - AsyncRecalc: the edit returns with its cone marked; a single
//     dispatcher goroutine runs the plan, evaluating each chunk on a bounded
//     worker pool, so what the user can see converges first and the edit
//     never waits for a 100k-cell cone. Between the viewport pass and the
//     rest of the cone it waits until edits have paused for coldDelay, or
//     until somebody waits on it (Drain, WaitRange, Close).
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
//     are mutually independent, same topological wave; in parallel on the
//     dispatcher), then committed in one batch through Engine.commit: one
//     store write and one publish that pokes the values and clears their
//     pending bits together, the write-window latch held for just that, so
//     a reader loading a cold block never waits for an evaluation.
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
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dataspread/internal/depgraph"
	"dataspread/internal/formula"
	"dataspread/internal/model"
	"dataspread/internal/sheet"
)

// recalcChunkSize bounds how many cells one executor step holds the edit lock
// for: large enough to amortize lock churn and fan work to the pool, small
// enough that an edit never waits behind a long evaluation.
const recalcChunkSize = 512

// coldDelay is the dispatcher's quiet window: how long after the latest edit
// it leaves the cells nobody is looking at alone. It amortizes the full plan
// (~19 ms for the 40,400-cell ticker cone, BenchmarkConeFrom, 2-CPU VM),
// which the next edit throws away, and it coalesces a paste burst's
// recalculation and drain-saves and keeps the cold pass off a tick's and an
// open's first reads: with it at 0, edit-contended lost paste throughput,
// WAL bytes and tick latency, and opens got slower (ROADMAP item 17). A
// variable for tests.
var coldDelay = 40 * time.Millisecond

var errEngineClosed = fmt.Errorf("core: engine closed")

type recalcScheduler struct {
	e *Engine
	// async is Options.AsyncRecalc: a dispatcher goroutine runs the plans.
	async   bool
	workers int
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
}

// startRecalc attaches the recalc executor; launch starts the dispatcher when
// opts ask for one.
func (e *Engine) startRecalc(opts Options) {
	s := &recalcScheduler{
		e:         e,
		workers:   1,
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
	if s.workers = opts.RecalcWorkers; s.workers <= 0 {
		s.workers = min(runtime.GOMAXPROCS(0), 4)
	}
}

// launch is the last step of New, Open and Load: it starts the dispatcher of
// an AsyncRecalc engine — only now that nothing can fail to build any more; a
// dispatcher started earlier would outlive an error return and pin the engine
// forever — and, when recalc is set, marks every formula and settles.
func (e *Engine) launch(recalc bool) (*Engine, error) {
	if e.sched.async {
		go e.sched.run()
	}
	if recalc {
		if err := e.RecalcAll(); err != nil {
			e.Close()
			return nil, err
		}
	}
	return e, nil
}

// AsyncRecalc reports whether this engine evaluates formulas in the
// background (Options.AsyncRecalc).
func (e *Engine) AsyncRecalc() bool { return e.sched.async }

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

// recalcChunk is one commit unit: refs are mutually independent (same
// topological wave), or the cycle set to poison.
type recalcChunk struct {
	refs  []sheet.Ref
	cycle bool
}

// process runs one plan, rebuilt from the pending bits, until it completes
// or is interrupted. The viewport fast path goes first: the pending cells a
// user is looking at (plus their pending ancestors) commit before the full
// plan's cone-wide topological sort even starts — on a 100k-cell cone the
// sort alone costs more than the whole hot pass.
func (s *recalcScheduler) process() error {
	s.mu.Lock()
	s.restructure = false
	s.mu.Unlock()
	if err := s.commitPlan(s.buildHotPlan()); err != nil {
		return err
	}
	if !s.quiet() {
		return nil // a new edit, or Close: the dispatcher plans again from the top
	}
	return s.commitPlan(s.buildPlan())
}

// commitPlan commits a plan's chunks in order, each under its own hold of the
// edit lock, stopping at the first chunk boundary after the plan went stale.
func (s *recalcScheduler) commitPlan(chunks []recalcChunk) error {
	for _, chunk := range chunks {
		if s.interrupted() {
			return nil
		}
		unlock := s.lock()
		err := s.commitChunk(chunk)
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

// quiet stands between the viewport pass and the full plan: the dispatcher
// blocks until coldDelay has passed since the latest edit, or somebody waits
// (Drain, WaitRange, Close, a structural edit), and learns whether the full
// plan is still worth building — not after a new edit or Close. An inline
// settle has its caller waiting and goes straight on.
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

// appendChunks cuts one wave into bounded commit units.
func appendChunks(chunks []recalcChunk, wave []sheet.Ref, cycle bool) []recalcChunk {
	for lo := 0; lo < len(wave); lo += recalcChunkSize {
		chunks = append(chunks, recalcChunk{refs: wave[lo:min(lo+recalcChunkSize, len(wave))], cycle: cycle})
	}
	return chunks
}

// viewportList snapshots the registered viewports.
func (s *recalcScheduler) viewportList() []sheet.Range {
	s.mu.Lock()
	defer s.mu.Unlock()
	vps := make([]sheet.Range, 0, len(s.viewports))
	for _, g := range s.viewports {
		vps = append(vps, g)
	}
	return vps
}

// buildHotPlan is the viewport fast path: pending cells inside registered
// viewports plus their pending ancestors, in topological waves, computed
// in O(viewport cone). Ancestors on dependency cycles are left out (and
// left pending) — the full plan poisons them and everything downstream.
func (s *recalcScheduler) buildHotPlan() []recalcChunk {
	vps := s.viewportList()
	if len(vps) == 0 {
		return nil
	}
	e := s.e
	unlock := s.lock()
	defer unlock()
	var seeds []sheet.Ref
	for _, g := range vps {
		seeds = append(seeds, e.cache.PendingRefsIn(g)...)
	}
	if len(seeds) == 0 {
		return nil
	}
	var chunks []recalcChunk
	for _, wave := range e.deps.UpstreamWaves(seeds, e.cache.IsPending) {
		chunks = appendChunks(chunks, wave, false)
	}
	return chunks
}

// buildPlan derives the evaluation plan from the pending bits: the cone
// over the pending set, partitioned into topological waves, hot (viewport
// cells and their pending ancestors) before cold, waves cut into bounded
// chunks.
func (s *recalcScheduler) buildPlan() []recalcChunk {
	e := s.e
	unlock := s.lock()
	var cone *depgraph.Cone
	// An edit that held the lock meanwhile has marked and flagged: a plan
	// built now would be abandoned at its first chunk, after the O(cone)
	// sort, and that edit's viewport cells would have waited behind it.
	if pending := e.cache.PendingRefs(); len(pending) > 0 && !s.interrupted() {
		cone = e.deps.ConeFrom(pending)
	}
	unlock()
	if cone == nil {
		return nil
	}
	// Cycle members (and everything downstream of them) poison first:
	// their value is #CYCLE! regardless of inputs, and poisoning them
	// unblocks nothing — but readers stop seeing them as pending.
	chunks := appendChunks(nil, cone.Cycles, true)
	hot := s.hotSet(cone)
	if hot == nil {
		for _, wave := range cone.Waves {
			chunks = appendChunks(chunks, wave, false)
		}
		return chunks
	}
	// Hot waves before cold. The hot pass is topologically closed: hotSet
	// marks every pending ancestor of a viewport cell hot, so hot waves
	// never read an uncommitted cold cell.
	for _, want := range []bool{true, false} {
		i := 0
		for _, wave := range cone.Waves {
			var sel []sheet.Ref
			for _, r := range wave {
				if hot[i] == want {
					sel = append(sel, r)
				}
				i++
			}
			chunks = appendChunks(chunks, sel, false)
		}
	}
	return chunks
}

// hotSet marks, by position in cone.Refs, the members that should jump the
// queue: cells inside a registered viewport, plus — one pass over the
// acyclic members in reverse evaluation order — every cone ancestor of a hot
// cell (its precedents must commit first anyway, so they are promoted
// together). Nil when no viewport is registered.
func (s *recalcScheduler) hotSet(cone *depgraph.Cone) []bool {
	vps := s.viewportList()
	if len(vps) == 0 {
		return nil
	}
	hot := make([]bool, len(cone.Refs))
	for v := len(cone.Refs) - len(cone.Cycles) - 1; v >= 0; v-- {
		for _, w := range cone.Succ[cone.Off[v]:cone.Off[v+1]] {
			hot[v] = hot[v] || hot[w]
		}
		for _, g := range vps {
			hot[v] = hot[v] || g.Contains(cone.Refs[v])
		}
	}
	return hot
}

// commitChunk evaluates and commits one chunk under the edit lock: evaluate
// in parallel (reads only), write the changed values through in one batch,
// clear pending bits. An edit may have slipped in between the plan and the
// lock (it marks and flags under writeMu, so the flag is exact here): the
// plan's order is then stale, and only the cells that read no pending cell
// — right to evaluate under any plan — commit; the rest stay pending for the
// rebuilt plan.
func (s *recalcScheduler) commitChunk(ch recalcChunk) error {
	e := s.e
	stale := s.interrupted()
	if stale && ch.cycle {
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
	type job struct {
		ref  sheet.Ref
		head formula.Expr // of the cell's run, evaluated k rows down
		k    int
	}
	jobs := make([]job, 0, len(ch.refs))
	var cycle []sheet.Ref
	for _, r := range ch.refs {
		if !e.cache.IsPending(r) {
			continue // committed or superseded since the plan was built
		}
		head, k, live := e.deps.Formula(r)
		_, poisoned := e.cycles[r]
		switch {
		case ch.cycle || poisoned:
			// On a cycle the plan found, or installed closing one.
			cycle = append(cycle, r)
		case !live:
			// The formula was dropped after planning; the cell's current
			// contents are definitive.
			e.cache.ClearPending(r)
		case stale && readsPending(r):
			// Stays pending: the rebuilt plan orders it after its reads.
		default:
			jobs = append(jobs, job{r, head, k})
		}
	}
	if err := e.poisonCycles(cycle); err != nil {
		return err
	}
	vals := make([]sheet.Value, len(jobs))
	if nw := min(s.workers, len(jobs)); nw > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					vals[i] = formula.EvalAt(jobs[i].head, jobs[i].k, evalReader{e})
				}
			}()
		}
		wg.Wait()
	} else {
		for i := range jobs {
			vals[i] = formula.EvalAt(jobs[i].head, jobs[i].k, evalReader{e})
		}
	}
	writes := make([]model.CellWrite, 0, len(jobs))
	for i, j := range jobs {
		old := e.cache.Get(j.ref)
		if old.Value.Equal(vals[i]) {
			e.cache.ClearPending(j.ref)
			continue
		}
		writes = append(writes, model.CellWrite{Row: j.ref.Row, Col: j.ref.Col,
			Cell: sheet.Cell{Value: vals[i], Formula: old.Formula}})
	}
	return e.commit(writes, nil)
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

package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dataspread"
	"dataspread/internal/cache"
	"dataspread/internal/core"
	"dataspread/internal/rdbms"
	"dataspread/internal/serve"
	"dataspread/internal/sheet"
	"dataspread/internal/workload"
)

// flushPolicy is what the run holds fixed about durability; it is printed
// with every result because a latency is only comparable under the same one.
const flushPolicy = "group commit off, WAL fsync per commit, auto-checkpoint at the default 4096 dirty pages (count-triggered), no maintenance scheduler, AsyncRecalc with 2 workers"

const (
	requestTimeout = 10 * time.Second
	recalcWorkers  = 2
	// importPoolPages is the buffer pool the import runs with: room for the
	// whole file. At the default 1024 pages a bulk load larger than the pool
	// spends most of its time re-fetching pages for the formula results it
	// writes back (3.7x longer on scroll-large), which would make set-up
	// time a pool-thrash measurement.
	importPoolPages = 16384
)

// result is everything one run of one workload measured.
type result struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Traced   bool               `json:"traced"`
	E2E      map[string]float64 `json:"end_to_end"`
	// Samples is the sample count behind each end-to-end timing: per round
	// for the round metrics, in total for open_view_p50_ms.
	Samples map[string]int `json:"samples"`
	// Rounds holds the per-round statistic each round metric is the median
	// of, in round order.
	Rounds map[string][]float64 `json:"rounds"`
	// AsTimed holds every speed-corrected end-to-end metric as the clock
	// read it, and KernelMs the speed kernel's readings the correction
	// used: for set-up, for each round, for the open burst.
	AsTimed  map[string]float64   `json:"end_to_end_as_timed"`
	KernelMs map[string][]float64 `json:"speed_kernel_ms"`
	Layer    map[string]float64   `json:"per_layer,omitempty"`
	// Ops counts the foreground ops of each phase over the measured rounds;
	// these repeat exactly for a seed. Background ops are paced by the
	// clock and counted apart.
	Ops          map[string]int `json:"ops"`
	Attempted    int64          `json:"attempted"`
	Background   int64          `json:"background_ops"`
	Failed       int64          `json:"failed"`
	FirstFailure string         `json:"first_failure,omitempty"`
	LatenessP95  float64        `json:"background_lateness_p95_ms"`
	MeasureS     float64        `json:"measure_s"`
	// PhaseS is the wall time each phase took over the measured rounds,
	// checks and quiescing included.
	PhaseS      map[string]float64 `json:"phase_s"`
	Cells       int                `json:"cells"`
	CacheBlocks int                `json:"cache_blocks"`
	PoolPages   int                `json:"pool_pages"`
	FilePages   int                `json:"file_pages"`
	Goroutines  [2]int             `json:"goroutines_before_after"`
}

type reply struct {
	g     sheet.Range
	cells [][]sheet.Cell
	gen   uint64
}

type runner struct {
	w    workloadSpec
	seed uint64
	dir  string
	tr   *tracer
	res  *result

	rng, bgRng *rand.Rand
	path       string
	opts       core.Options
	poolPages  int

	db      *rdbms.DB
	srv     *serve.Server
	srvDone chan error
	rc, wc  *serve.Client

	oracles []*oracle
	o       *oracle
	name    string

	pasteAreas, bgAreas []*area
	pasteSeq, bgSeq     int
	// Viewport walk state.
	curRow, curCol, step int

	attempted, background, failed atomic.Int64
	failMu                        sync.Mutex
	firstFailure                  string
	lateness                      []float64

	// Storage counters over the measured view and edit phases.
	viewIO, editIO ioCount

	// Logical ops of the last round, kept (while keep is set) for the traced
	// run's probes: the same requests are replayed one depth at a time.
	keep        bool
	kernel      *speedKernel
	lastViews   []tracedOp
	lastPastes  []tracedOp
	lastStructs []int
}

// tracedOp is a request of the last round with the op and span it was
// recorded under.
type tracedOp struct {
	op, span int
	g        sheet.Range
	edits    []core.CellEdit
}

func (r *runner) failf(format string, a ...any) {
	r.failed.Add(1)
	r.failMu.Lock()
	if r.firstFailure == "" {
		r.firstFailure = fmt.Sprintf(format, a...)
	}
	r.failMu.Unlock()
}

// runWorkload runs one workload start to finish and cleans up after itself.
func runWorkload(w workloadSpec, seed uint64, dir string, tr *tracer) (*result, error) {
	work, err := os.MkdirTemp(dir, w.Name+"-")
	if err != nil {
		return nil, err
	}
	cleanup.add(work)
	defer cleanup.remove(work)

	before := runtime.NumGoroutine()
	r := &runner{
		w: w, seed: seed, dir: work, tr: tr,
		rng:   rand.New(rand.NewSource(int64(seed))),
		bgRng: rand.New(rand.NewSource(int64(seed) ^ 0x5bd1e995)),
		res: &result{Workload: w.Name, Seed: seed, Traced: tr != nil,
			E2E: map[string]float64{}, AsTimed: map[string]float64{}, KernelMs: map[string][]float64{},
			Samples: map[string]int{}, Ops: map[string]int{}, PhaseS: map[string]float64{}},
		kernel: newSpeedKernel(w.KernelNumbers),
		name:   w.main().Name,
		step:   viewRows / 2,
	}
	err = r.run()
	r.shutdown()
	r.res.Goroutines = [2]int{before, settleGoroutines(before)}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if r.res.Goroutines[1] > before {
		r.failf("goroutines: %d before the run, %d after closing everything", before, r.res.Goroutines[1])
	}
	r.res.Attempted = r.attempted.Load()
	r.res.Background = r.background.Load()
	r.res.Failed = r.failed.Load()
	r.res.FirstFailure = r.firstFailure
	r.res.LatenessP95 = quantile(r.lateness, 0.95)
	return r.res, nil
}

func (r *runner) run() error {
	if err := r.setup(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	t0 := time.Now()
	if err := r.measure(); err != nil {
		return err
	}
	r.res.MeasureS = time.Since(t0).Seconds()
	if r.tr != nil {
		if err := r.probes(); err != nil {
			return fmt.Errorf("probes: %w", err)
		}
	}
	return nil
}

// settleGoroutines waits briefly for goroutines that are already exiting
// (closed connections' sessions, the accept loop) and returns the count.
func settleGoroutines(want int) int {
	for i := 0; i < 200 && runtime.NumGoroutine() > want; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// ---- set-up ----

// buildFile generates the workload's sheets and imports them into a fresh
// database at path, checkpointed and closed.
func (r *runner) buildFile(path string) (cells int, err error) {
	db, err := dataspread.OpenFileDB(path, dataspread.WithBufferPoolPages(importPoolPages))
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := db.Close(); err == nil {
			err = cerr
		}
	}()
	for i := range r.w.Sheets {
		spec := &r.w.Sheets[i]
		t0 := time.Now()
		sh, n := spec.build(r.seed, i)
		t1 := time.Now()
		op := r.tr.nextOp()
		r.tr.add("bench.generate", op, 0, t0, t1)
		eng, err := core.Open(db, spec.Name, sh, spec.Algo, core.Options{})
		if err != nil {
			return 0, fmt.Errorf("import %s: %w", spec.Name, err)
		}
		t2 := time.Now()
		r.tr.add("core.open_sheet", op, 0, t1, t2)
		if err := eng.Save(); err != nil {
			return 0, fmt.Errorf("save %s: %w", spec.Name, err)
		}
		r.tr.add("core.save", op, 0, t2, time.Now())
		cells += n
	}
	t0 := time.Now()
	if err := db.Checkpoint(); err != nil {
		return 0, err
	}
	r.tr.add("rdbms.checkpoint", r.tr.nextOp(), 0, t0, time.Now())
	return cells, nil
}

// dbFiles lists the data file at path and its WAL segments.
func dbFiles(path string) []string {
	files, _ := filepath.Glob(path + "*")
	return files
}

func fileBytes(path string) int64 {
	var n int64
	for _, f := range dbFiles(path) {
		if st, err := os.Stat(f); err == nil {
			n += st.Size()
		}
	}
	return n
}

func (r *runner) setup() error {
	r.path = filepath.Join(r.dir, "bench.dsdb")
	runtime.GC()
	kernel := r.kernel.readN(nil, 5)
	t0 := time.Now()
	cells, err := r.buildFile(r.path)
	if err != nil {
		return err
	}
	r.res.PhaseS["build"] = time.Since(t0).Seconds()
	r.res.Cells = cells
	kernel = r.kernel.readN(kernel, 5)
	// The paper's storage number, on the checkpointed, closed file.
	r.res.E2E["disk_bytes_per_cell"] = float64(fileBytes(r.path)) / float64(r.res.Cells)
	st, err := os.Stat(r.path)
	if err != nil {
		return err
	}
	r.res.FilePages = int(st.Size() / 8192)
	m := r.w.main()
	tiles := len(cache.BlockCover(sheet.NewRange(1, 1, m.maxRow(), m.maxCol())))
	r.opts = core.Options{
		CacheBlocks:   max(8, int(float64(tiles)*r.w.CacheShare)),
		AsyncRecalc:   true,
		RecalcWorkers: recalcWorkers,
	}
	r.poolPages = max(16, int(float64(r.res.FilePages)*r.w.PoolShare))
	r.res.CacheBlocks, r.res.PoolPages = r.opts.CacheBlocks, r.poolPages

	for i := range r.w.Sheets {
		r.oracles = append(r.oracles, newOracle(r.seed, &r.w.Sheets[i], i))
	}
	r.o = r.oracles[r.w.Main]
	for _, g := range m.pasteAreas(r.w.PasteRows, r.w.PasteCols) {
		r.pasteAreas = append(r.pasteAreas, r.o.addArea(g))
	}
	if r.w.BgWriteHz > 0 {
		for _, g := range m.bgAreas(r.w.BgPasteRows, r.w.PasteCols) {
			r.bgAreas = append(r.bgAreas, r.o.addArea(g))
		}
	}
	if len(r.pasteAreas) == 0 {
		return fmt.Errorf("sheet %s has no room for a %d-row paste area", m.Name, r.w.PasteRows)
	}

	runtime.GC()
	t1 := time.Now()
	if err := r.start(); err != nil {
		return err
	}
	if err := r.round(nil); err != nil {
		return fmt.Errorf("warm-up round: %w", err)
	}
	r.setTiming("setup_s", r.res.PhaseS["build"]+time.Since(t1).Seconds(), r.kernel.readN(kernel, 5))
	return nil
}

// setTiming records a timing the clock read as v while the speed kernel
// read kernel: as timed, and at the reference machine speed.
func (r *runner) setTiming(name string, v float64, kernel []float64) {
	r.res.AsTimed[name] = v
	r.res.E2E[name] = v / slowdown(median(kernel))
	r.res.KernelMs[name] = kernel
}

// openDB opens the run's file with the workload's buffer pool.
func (r *runner) openDB() (err error) {
	r.db, err = dataspread.OpenFileDB(r.path, dataspread.WithBufferPoolPages(r.poolPages))
	return err
}

// listen serves the open database on a loopback port and returns a dialer
// for it.
func (r *runner) listen() (dial func() (*serve.Client, error), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.srv = serve.New(r.db, r.opts)
	r.srv.Listen(ln)
	r.srvDone = make(chan error, 1)
	go func(srv *serve.Server, done chan error) { done <- srv.Serve(ln) }(r.srv, r.srvDone)
	return func() (*serve.Client, error) {
		return serve.DialOptions(ln.Addr().String(), serve.ClientOptions{DialTimeout: requestTimeout, RequestTimeout: requestTimeout})
	}, nil
}

// start opens the database, serves it and connects the two clients.
func (r *runner) start() error {
	if err := r.openDB(); err != nil {
		return err
	}
	dial, err := r.listen()
	if err != nil {
		return err
	}
	if r.rc, err = dial(); err != nil {
		return err
	}
	if r.wc, err = dial(); err != nil {
		return err
	}
	for _, s := range r.w.Sheets {
		if err := r.rc.Open(s.Name); err != nil {
			return err
		}
	}
	// A reloaded async sheet revalidates every formula in the background;
	// let that finish so the rounds start from a converged sheet.
	if err := r.quiesce(); err != nil {
		return err
	}
	vp := r.w.main().Cone.Viewport()
	return r.rc.RegisterViewport(r.name, vp.From.Row, vp.From.Col, vp.To.Row, vp.To.Col)
}

// shutdown closes whatever of clients, server and database is still open.
func (r *runner) shutdown() {
	for _, c := range []*serve.Client{r.rc, r.wc} {
		if c != nil {
			c.Close()
		}
	}
	r.rc, r.wc = nil, nil
	if r.srv != nil {
		if err := r.srv.Close(); err != nil {
			r.failf("server close: %v", err)
		}
		if err := <-r.srvDone; err != nil {
			r.failf("serve: %v", err)
		}
		r.srv = nil
	}
	if r.db != nil {
		if err := r.db.Close(); err != nil {
			r.failf("database close: %v", err)
		}
		r.db = nil
	}
}

// pending polls the main sheet's pending-recalc count over the wire.
func (r *runner) pending() (uint64, error) {
	st, err := r.rc.Stats()
	if err != nil {
		return 0, err
	}
	for _, s := range st.Sheets {
		if s.Name == r.name {
			return s.Pending, nil
		}
	}
	return 0, fmt.Errorf("sheet %s not in server stats", r.name)
}

// quiesce waits until the recalc has drained and its drain-save (and any
// other pending commit) is on disk, so that the next phase starts from
// rest and byte counters read between phases are complete.
func (r *runner) quiesce() error {
	deadline := time.Now().Add(requestTimeout)
	for {
		n, err := r.pending()
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("recalc did not drain within %v (%d cells pending)", requestTimeout, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Save serializes behind the scheduler's own drain-save.
	return r.wc.CloseSheet(r.name)
}

// ---- measurement ----

type roundStats struct {
	view, edit, structural, tickView []float64 // ms
	pasteCellsPerS, heapMB           float64
	// kernel holds the speed kernel's readings around the round's phases.
	kernel          []float64
	recalcCellsPerS []float64
	walBytes        int64
	cellsWritten    int
}

func (r *runner) measure() error {
	var rs []roundStats
	for i := 0; i < rounds; i++ {
		var s roundStats
		r.keep = r.tr != nil && i == rounds-1
		if err := r.round(&s); err != nil {
			return fmt.Errorf("round %d: %w", i+1, err)
		}
		rs = append(rs, s)
	}
	// over records a metric as the median of f over the rounds.
	over := func(into map[string]float64, name string, f func(roundStats) float64) {
		v := make([]float64, len(rs))
		for i, s := range rs {
			v[i] = f(s)
		}
		r.res.Rounds[name], into[name] = v, median(v)
	}
	// A timing is taken round by round at the reference machine speed: each
	// round's statistic is scaled by the slowdown its own kernel readings
	// saw, so a slow minute of the machine moves no round.
	timing := func(name string, perSecond bool, f func(roundStats) float64) {
		over(r.res.AsTimed, name, f)
		over(r.res.E2E, name, func(s roundStats) float64 {
			if perSecond {
				return f(s) * slowdown(median(s.kernel))
			}
			return f(s) / slowdown(median(s.kernel))
		})
	}
	r.res.Rounds = map[string][]float64{}
	timing("view_p50_ms", false, func(s roundStats) float64 { return quantile(s.view, 0.5) })
	timing("view_p95_ms", false, func(s roundStats) float64 { return quantile(s.view, 0.95) })
	timing("paste_cells_per_s", true, func(s roundStats) float64 { return s.pasteCellsPerS })
	timing("tick_view_p50_ms", false, func(s roundStats) float64 { return quantile(s.tickView, 0.5) })
	timing("recalc_cells_per_s", true, func(s roundStats) float64 { return quantile(s.recalcCellsPerS, 0.5) })
	over(r.res.E2E, "wal_bytes_per_cell", func(s roundStats) float64 { return float64(s.walBytes) / float64(s.cellsWritten) })
	over(r.res.E2E, "mem_heap_mb", func(s roundStats) float64 { return s.heapMB })
	for _, s := range rs {
		r.res.KernelMs["rounds"] = append(r.res.KernelMs["rounds"], median(s.kernel))
	}
	sm := r.res.Samples
	sm["view_p50_ms"], sm["view_p95_ms"] = r.w.Views, r.w.Views
	sm["paste_cells_per_s"] = r.w.Pastes
	sm["tick_view_p50_ms"], sm["recalc_cells_per_s"] = r.w.Ticks, r.w.Ticks
	sm["open_view_p50_ms"] = r.w.OpenCycles

	if r.tr != nil {
		r.res.Layer = map[string]float64{}
		st, err := r.rc.Stats()
		if err != nil {
			return err
		}
		r.res.Layer["serve.requests"] = float64(st.Requests)
		// Single-cell and structural edits wait on the WAL's fsyncs for
		// most of their time. That is the shared disk's time, which no
		// kernel reading tracks, so they are layer metrics, as timed.
		over(r.res.Layer, "client.set_p50_ms", func(s roundStats) float64 { return quantile(s.edit, 0.5) })
		over(r.res.Layer, "client.struct_p50_ms", func(s roundStats) float64 { return quantile(s.structural, 0.5) })
	}
	t := time.Now()
	if err := r.compareAll(); err != nil {
		return err
	}
	r.res.PhaseS["compare"] = time.Since(t).Seconds()
	t = time.Now()
	err := r.openBurst()
	r.res.PhaseS["open"] = time.Since(t).Seconds()
	return err
}

// round runs the five phases once; with a nil s it is the warm-up round.
func (r *runner) round(s *roundStats) error {
	record := s != nil
	if s == nil {
		s = &roundStats{}
	}
	t := time.Now()
	lap := func(phase string) {
		if record {
			r.res.PhaseS[phase] += time.Since(t).Seconds()
		}
		t = time.Now()
	}
	var err error
	s.kernel = append(s.kernel, r.kernel.read())
	t = time.Now()
	io0 := r.db.Pool().Stats()
	if s.view, err = r.viewPhase(record); err != nil {
		return fmt.Errorf("view: %w", err)
	}
	lap("view")
	s.kernel = append(s.kernel, r.kernel.read())
	t = time.Now()
	io1 := r.db.Pool().Stats()
	if s.edit, err = r.editPhase(record); err != nil {
		return fmt.Errorf("edit: %w", err)
	}
	lap("edit")
	s.kernel = append(s.kernel, r.kernel.read())
	t = time.Now()
	io2 := r.db.Pool().Stats()
	if record {
		r.viewIO.add(r.w.Views, io0, io1)
		r.editIO.add(r.w.Edits, io1, io2)
	}
	if s.pasteCellsPerS, err = r.pastePhase(record); err != nil {
		return fmt.Errorf("paste: %w", err)
	}
	lap("paste")
	s.kernel = append(s.kernel, r.kernel.read())
	t = time.Now()
	s.walBytes = r.db.Pool().Stats().WALBytes - io1.WALBytes
	s.cellsWritten = r.w.Edits + r.w.Pastes*r.pasteAreas[0].rect.Area()
	if s.structural, err = r.structPhase(record); err != nil {
		return fmt.Errorf("struct: %w", err)
	}
	lap("struct")
	s.kernel = append(s.kernel, r.kernel.read())
	t = time.Now()
	if s.tickView, s.recalcCellsPerS, err = r.tickPhase(record); err != nil {
		return fmt.Errorf("tick: %w", err)
	}
	lap("tick")
	s.kernel = append(s.kernel, r.kernel.read())
	// Memory while everything is open and warm. One reading swings with
	// where the collector last stopped; the median of the rounds does not.
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	s.heapMB = float64(mem.HeapInuse) / (1 << 20)
	return nil
}

// pace runs op from its own goroutine at hz ops per second on a fixed
// schedule until the returned stop is called. Each op is due at start +
// k/hz whatever the previous ones took; how late it started is recorded.
func (r *runner) pace(hz int, op func()) (stop func()) {
	if hz <= 0 {
		return func() {}
	}
	var halt atomic.Bool
	done := make(chan struct{})
	interval := time.Second / time.Duration(hz)
	start := time.Now()
	go func() {
		defer close(done)
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * interval)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			if halt.Load() {
				return
			}
			r.lateness = append(r.lateness, ms(time.Since(due)))
			op()
		}
	}()
	return func() {
		halt.Store(true)
		<-done
	}
}

// nextView advances the viewport walk: half random jumps over the whole
// sheet, half half-page scroll steps. A background reader only jumps.
func (r *runner) nextView(rng *rand.Rand, scroll bool) sheet.Range {
	m := r.w.main()
	if scroll && r.curRow != 0 && rng.Intn(2) == 0 {
		lastRow := max(1, m.maxRow()-viewRows+1)
		if next := r.curRow + r.step; next < 1 || next > lastRow {
			r.step = -r.step
		}
		r.curRow = min(max(r.curRow+r.step, 1), lastRow)
		return sheet.NewRange(r.curRow, r.curCol, r.curRow+viewRows-1, r.curCol+viewCols-1)
	}
	rects := m.viewRects()
	g := rects[rng.Intn(len(rects))]
	row := g.From.Row + rng.Intn(max(1, g.Rows()-viewRows+1))
	col := g.From.Col + rng.Intn(max(1, g.Cols()-viewCols+1))
	if scroll {
		r.curRow, r.curCol = row, col
	}
	return sheet.NewRange(row, col, row+viewRows-1, col+viewCols-1)
}

func (r *runner) checkReplies(replies []reply) {
	for _, rp := range replies {
		if err := r.o.check(rp.g, rp.cells, rp.gen); err != nil {
			r.failf("%v", err)
		}
	}
}

// areaEdits is the batch that writes version over a whole area.
func (r *runner) areaEdits(g sheet.Range, version uint32) []core.CellEdit {
	edits := make([]core.CellEdit, 0, g.Area())
	for row := g.From.Row; row <= g.To.Row; row++ {
		for col := g.From.Col; col <= g.To.Col; col++ {
			edits = append(edits, core.CellEdit{Row: row, Col: col, Input: r.o.input(row, col, version)})
		}
	}
	return edits
}

// bgView is one background read; its reply is checked after the phase.
func (r *runner) bgView(replies *[]reply) func() {
	return func() {
		g := r.nextView(r.bgRng, false)
		r.background.Add(1)
		cells, gen, err := r.rc.GetRange(r.name, g.From.Row, g.From.Col, g.To.Row, g.To.Col)
		if err != nil {
			r.failf("background view %v: %v", g, err)
			return
		}
		*replies = append(*replies, reply{g, cells, gen})
	}
}

func (r *runner) bgPaste() {
	a := r.bgAreas[r.bgSeq%len(r.bgAreas)]
	r.bgSeq++
	v := r.o.nextVersion()
	r.background.Add(1)
	gen, err := r.wc.SetCells(r.name, r.areaEdits(a.rect, v))
	if err != nil {
		r.failf("background paste %v: %v", a.rect, err)
		return
	}
	a.hist = append(a.hist, stamp{gen, v})
}

func (r *runner) viewPhase(record bool) ([]float64, error) {
	replies := make([]reply, 0, r.w.Views)
	lat := make([]float64, 0, r.w.Views)
	runtime.GC()
	stop := r.pace(r.w.BgWriteHz, r.bgPaste)
	for i := 0; i < r.w.Views; i++ {
		g := r.nextView(r.rng, true)
		op := r.tr.nextOp()
		t0 := time.Now()
		cells, gen, err := r.rc.GetRange(r.name, g.From.Row, g.From.Col, g.To.Row, g.To.Col)
		t1 := time.Now()
		r.attempted.Add(1)
		if err != nil {
			r.failf("view %v: %v", g, err)
			continue
		}
		lat = append(lat, ms(t1.Sub(t0)))
		replies = append(replies, reply{g, cells, gen})
		if record {
			id := r.tr.add("client.get_range", op, 0, t0, t1)
			if r.keep {
				r.lastViews = append(r.lastViews, tracedOp{op: op, span: id, g: g})
			}
		}
	}
	stop()
	r.checkReplies(replies)
	if record {
		r.res.Ops["view"] += r.w.Views
	}
	if r.w.BgWriteHz > 0 {
		return lat, r.quiesce()
	}
	return lat, nil
}

// editTarget picks a data cell outside every write area. Where only the
// first rows of the body carry a row sum the edit lands below them, and
// where all rows do it has exactly one dependent: either way every edit of
// a workload costs the same commits, whatever the seed.
func (r *runner) editTarget() sheet.Ref {
	m := r.w.main()
	for {
		g := m.blockRect(r.rng.Intn(m.Bands), r.rng.Intn(m.PerBand))
		ref := sheet.Ref{Row: g.From.Row + r.rng.Intn(g.Rows()), Col: g.From.Col + r.rng.Intn(g.Cols())}
		clear := m.SumRows == m.BlockRows || ref.Row >= m.bodyTop()+m.SumRows
		for _, a := range r.o.areas {
			if a.rect.Contains(ref) {
				clear = false
				break
			}
		}
		if clear {
			return ref
		}
	}
}

func (r *runner) editPhase(record bool) ([]float64, error) {
	var replies []reply
	lat := make([]float64, 0, r.w.Edits)
	runtime.GC()
	stop := r.pace(r.w.BgReadHz, r.bgView(&replies))
	for i := 0; i < r.w.Edits; i++ {
		ref := r.editTarget()
		v := r.o.nextVersion()
		input := r.o.input(ref.Row, ref.Col, v)
		op := r.tr.nextOp()
		t0 := time.Now()
		gen, err := r.wc.Set(r.name, ref.Row, ref.Col, input)
		t1 := time.Now()
		r.attempted.Add(1)
		if err != nil {
			r.failf("edit %v: %v", ref, err)
			continue
		}
		lat = append(lat, ms(t1.Sub(t0)))
		r.o.cells[ref] = append(r.o.cells[ref], stamp{gen, v})
		if record {
			r.tr.add("client.set", op, 0, t0, t1)
		}
	}
	stop()
	r.checkReplies(replies)
	if record {
		r.res.Ops["edit"] += r.w.Edits
	}
	return lat, r.quiesce()
}

func (r *runner) pastePhase(record bool) (float64, error) {
	type batch struct {
		a     *area
		v     uint32
		edits []core.CellEdit
	}
	// Generated before the clock starts: the server is handed requests,
	// not the cost of making them.
	batches := make([]batch, r.w.Pastes)
	for i := range batches {
		a := r.pasteAreas[r.pasteSeq%len(r.pasteAreas)]
		r.pasteSeq++
		v := r.o.nextVersion()
		batches[i] = batch{a, v, r.areaEdits(a.rect, v)}
	}
	var replies []reply
	runtime.GC()
	stop := r.pace(r.w.BgReadHz, r.bgView(&replies))
	acked := 0
	start := time.Now()
	for _, b := range batches {
		op := r.tr.nextOp()
		t0 := time.Now()
		gen, err := r.wc.SetCells(r.name, b.edits)
		t1 := time.Now()
		r.attempted.Add(1)
		if err != nil {
			r.failf("paste %v: %v", b.a.rect, err)
			continue
		}
		acked += len(b.edits)
		b.a.hist = append(b.a.hist, stamp{gen, b.v})
		if record {
			id := r.tr.add("client.set_cells", op, 0, t0, t1)
			if r.keep {
				r.lastPastes = append(r.lastPastes, tracedOp{op: op, span: id, g: b.a.rect, edits: b.edits})
			}
		}
	}
	wall := time.Since(start)
	stop()
	r.checkReplies(replies)
	if record {
		r.res.Ops["paste"] += r.w.Pastes
	}
	return float64(acked) / wall.Seconds(), r.quiesce()
}

func (r *runner) structPhase(record bool) ([]float64, error) {
	lo, hi := r.w.main().structRows()
	var replies []reply
	lat := make([]float64, 0, 2*r.w.StructPairs)
	runtime.GC()
	stop := r.pace(r.w.BgReadHz, r.bgView(&replies))
	for i := 0; i < r.w.StructPairs; i++ {
		after := lo + r.rng.Intn(hi-lo+1)
		for _, insert := range []bool{true, false} {
			op := r.tr.nextOp()
			var gen uint64
			var err error
			t0 := time.Now()
			if insert {
				gen, err = r.wc.InsertRows(r.name, after, 1)
			} else {
				gen, err = r.wc.DeleteRows(r.name, after+1, 1)
			}
			t1 := time.Now()
			r.attempted.Add(1)
			if err != nil {
				// The sheet's shape is now unknown; nothing after this
				// can be checked.
				stop()
				return nil, fmt.Errorf("insert=%v at row %d: %w", insert, after+1, err)
			}
			lat = append(lat, ms(t1.Sub(t0)))
			r.o.shifts = append(r.o.shifts, shiftEvent{gen, after + 1, insert})
			if record {
				name := "client.delete_rows"
				if insert {
					name = "client.insert_rows"
				}
				r.tr.add(name, op, 0, t0, t1)
			}
		}
		if r.keep {
			r.lastStructs = append(r.lastStructs, after)
		}
	}
	stop()
	r.checkReplies(replies)
	if record {
		r.res.Ops["struct"] += 2 * r.w.StructPairs
	}
	return lat, nil
}

// tickPhase sends ticks to the cone's ticker cell one at a time. A tick's
// view time runs from sending the edit until back-to-back reads of the
// registered viewport show the new values with nothing pending; its drain
// time until the server reports no pending cell.
func (r *runner) tickPhase(record bool) (view, cellsPerS []float64, err error) {
	m := r.w.main()
	if m.Cone.Intermediates == 0 {
		return nil, nil, fmt.Errorf("sheet %s has no cone", m.Name)
	}
	vp := m.Cone.Viewport()
	cone := m.Cone.ConeSize()
	runtime.GC()
	for i := 0; i < r.w.Ticks; i++ {
		r.o.ticks++
		input := workload.Tick(r.o.ticks).Input
		op := r.tr.nextOp()
		ack := make(chan error, 1)
		t0 := time.Now()
		go func() {
			_, err := r.wc.Set(r.name, 1, 1, input)
			ack <- err
		}()
		r.attempted.Add(1)
		converged := false
		for !converged {
			cells, pending, gen, err := r.rc.GetRangePending(r.name, vp.From.Row, vp.From.Col, vp.To.Row, vp.To.Col)
			if err != nil {
				<-ack
				return nil, nil, err
			}
			converged = pending == nil && r.o.check(vp, cells, gen) == nil
			if !converged && time.Since(t0) > requestTimeout {
				<-ack
				return nil, nil, fmt.Errorf("viewport did not converge on tick %d within %v", r.o.ticks, requestTimeout)
			}
		}
		t1 := time.Now()
		for {
			n, err := r.pending()
			if err != nil {
				<-ack
				return nil, nil, err
			}
			if n == 0 {
				break
			}
			if time.Since(t0) > requestTimeout {
				<-ack
				return nil, nil, fmt.Errorf("cone did not drain on tick %d within %v", r.o.ticks, requestTimeout)
			}
			time.Sleep(2 * time.Millisecond)
		}
		t2 := time.Now()
		if err := <-ack; err != nil {
			r.failf("tick %d: %v", r.o.ticks, err)
		}
		view = append(view, ms(t1.Sub(t0)))
		cellsPerS = append(cellsPerS, float64(cone)/t2.Sub(t0).Seconds())
		if record {
			id := r.tr.add("client.tick_drain", op, 0, t0, t2)
			r.tr.add("client.tick_view", op, id, t0, t1)
		}
		if err := r.quiesce(); err != nil {
			return nil, nil, err
		}
	}
	if record {
		r.res.Ops["tick"] += r.w.Ticks
	}
	return view, cellsPerS, nil
}

// compareAll reads every sheet back in strips and checks every cell.
func (r *runner) compareAll() error {
	if err := r.quiesce(); err != nil {
		return err
	}
	for i, o := range r.oracles {
		s := &r.w.Sheets[i]
		rows, cols := s.maxRow()+1, s.maxCol()+1
		strip := max(1, 200_000/cols)
		for top := 1; top <= rows; top += strip {
			g := sheet.NewRange(top, 1, min(rows, top+strip-1), cols)
			cells, _, err := r.rc.GetRange(s.Name, g.From.Row, g.From.Col, g.To.Row, g.To.Col)
			r.attempted.Add(1)
			if err != nil {
				r.failf("compare %s %v: %v", s.Name, g, err)
				continue
			}
			if err := o.check(g, cells, latest); err != nil {
				r.failf("compare: %v", err)
			}
		}
	}
	r.res.Ops["compare"] = 1
	return nil
}

// openBurst closes everything and times the path a user waits on when a
// saved workbook is opened: database open, serve, dial, open the sheets,
// first screen of each.
func (r *runner) openBurst() error {
	r.shutdown()
	first := sheet.NewRange(1, 1, viewRows, viewCols)
	var lat, kernel []float64
	for i := 0; i < r.w.OpenCycles; i++ {
		kernel = append(kernel, r.kernel.read())
		runtime.GC()
		op := r.tr.nextOp()
		t0 := time.Now()
		if err := r.openDB(); err != nil {
			return err
		}
		t1 := time.Now()
		dial, err := r.listen()
		if err != nil {
			return err
		}
		if r.rc, err = dial(); err != nil {
			return err
		}
		t2 := time.Now()
		for _, s := range r.w.Sheets {
			if err := r.rc.Open(s.Name); err != nil {
				return err
			}
		}
		t3 := time.Now()
		replies := make([]reply, len(r.w.Sheets))
		for j, s := range r.w.Sheets {
			cells, gen, err := r.rc.GetRange(s.Name, first.From.Row, first.From.Col, first.To.Row, first.To.Col)
			if err != nil {
				r.failf("first view of %s: %v", s.Name, err)
			}
			replies[j] = reply{first, cells, gen}
		}
		t4 := time.Now()
		r.attempted.Add(1)
		lat = append(lat, ms(t4.Sub(t0)))
		id := r.tr.add("client.open_view", op, 0, t0, t4)
		r.tr.add("rdbms.open", op, id, t0, t1)
		r.tr.add("serve.listen_dial", op, id, t1, t2)
		r.tr.add("client.open", op, id, t2, t3)
		r.tr.add("client.first_get_range", op, id, t3, t4)
		for j, rp := range replies {
			if rp.cells == nil {
				continue
			}
			if err := r.oracles[j].check(rp.g, rp.cells, latest); err != nil {
				r.failf("first view: %v", err)
			}
		}
		r.shutdown()
	}
	r.res.Ops["open"] = r.w.OpenCycles
	r.setTiming("open_view_p50_ms", median(lat), append(kernel, r.kernel.read()))
	return nil
}

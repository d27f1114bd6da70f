// Package exp implements the reproduction harness: one entry point per
// table and figure of the paper's evaluation (Section VII plus the
// Section II corpus study and the Appendix C extensions). Each experiment
// prints the same rows/series the paper reports and returns structured
// results so benchmarks and tests can assert the paper's qualitative
// shape (who wins, by roughly what factor, where crossovers fall).
package exp

import (
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"dataspread/internal/analyze"
	"dataspread/internal/formula"
	"dataspread/internal/hybrid"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
	"dataspread/internal/workload"
)

// Config scales the harness. The zero value is usable: Resolve fills
// defaults matching a laptop-scale full run; benchmarks pass smaller
// values.
type Config struct {
	// W receives the experiment's printed output (io.Discard by default).
	W io.Writer
	// SheetsPerCorpus sizes each generated corpus (default 120; the
	// paper's corpora have 636..52k sheets).
	SheetsPerCorpus int
	// Seed drives every generator.
	Seed int64
	// MaxRows bounds the row-count sweeps (default 1e6; paper reaches 1e7).
	MaxRows int
	// Reps is the per-point repetition count for timed operations
	// (default 20).
	Reps int
	// Actions is the user-operation count for the incremental-maintenance
	// timeline (default 10000, matching Figure 26b).
	Actions int
	// DiskDir, when non-empty, puts each experiment database's files (one
	// data file + WAL) on disk under the directory instead of in memory —
	// the dsbench -disk mode; the pager is the same either way.
	// CloseDiskDBs releases the files between experiments.
	DiskDir string
	// AutoCheckpointPages tunes auto-checkpointing (0: default 4096 dirty
	// pages, negative: disable).
	AutoCheckpointPages int
}

// Resolve fills defaults.
func (c Config) Resolve() Config {
	if c.W == nil {
		c.W = io.Discard
	}
	if c.SheetsPerCorpus == 0 {
		c.SheetsPerCorpus = 120
	}
	if c.Seed == 0 {
		c.Seed = 2018
	}
	if c.MaxRows == 0 {
		c.MaxRows = 1_000_000
	}
	if c.Reps == 0 {
		c.Reps = 20
	}
	if c.Actions == 0 {
		c.Actions = 10_000
	}
	return c
}

func (c Config) printf(format string, args ...interface{}) {
	fmt.Fprintf(c.W, format, args...)
}

// diskDBs tracks file-backed databases opened by the harness so drivers can
// release the file handles between experiments (sweeps open one DB per
// point, and a full -disk run would otherwise exhaust descriptors).
var diskDBs struct {
	mu   sync.Mutex
	seq  int
	open []*rdbms.DB
}

// openDB opens an experiment database: in memory by default, or a fresh
// file-backed database under DiskDir in -disk mode.
func (c Config) openDB(pages int) *rdbms.DB {
	opts := rdbms.Options{BufferPoolPages: pages, AutoCheckpointPages: c.AutoCheckpointPages}
	if c.DiskDir == "" {
		return rdbms.Open(opts)
	}
	diskDBs.mu.Lock()
	diskDBs.seq++
	path := filepath.Join(c.DiskDir, fmt.Sprintf("exp%04d.dsdb", diskDBs.seq))
	diskDBs.mu.Unlock()
	db, err := rdbms.OpenFile(path, opts)
	if err != nil {
		panic(fmt.Sprintf("exp: open disk database %s: %v", path, err))
	}
	diskDBs.mu.Lock()
	diskDBs.open = append(diskDBs.open, db)
	diskDBs.mu.Unlock()
	return db
}

// CloseDiskDBs checkpoints and closes every file-backed database opened
// since the last call. No-op in the default in-memory mode.
func CloseDiskDBs() error {
	return closeDiskSince(0)
}

// diskMark snapshots the open-database count so a sweep can release the
// databases of one measurement point with closeDiskSince — sweeps open a
// DB per point per model, and holding them all for a whole experiment
// would exhaust file descriptors.
func diskMark() int {
	diskDBs.mu.Lock()
	defer diskDBs.mu.Unlock()
	return len(diskDBs.open)
}

func closeDiskSince(mark int) error {
	diskDBs.mu.Lock()
	var dbs []*rdbms.DB
	if mark < len(diskDBs.open) {
		dbs = diskDBs.open[mark:]
		diskDBs.open = diskDBs.open[:mark]
	}
	diskDBs.mu.Unlock()
	var firstErr error
	for _, db := range dbs {
		if err := db.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// corpusSet caches generated corpora with their per-sheet stats.
type corpusSet struct {
	names  []string
	sheets map[string][]*sheet.Sheet
	stats  map[string][]analyze.SheetStats
}

func (c Config) buildCorpora() *corpusSet {
	cs := &corpusSet{
		sheets: make(map[string][]*sheet.Sheet),
		stats:  make(map[string][]analyze.SheetStats),
	}
	for _, p := range workload.Profiles() {
		cs.names = append(cs.names, p.Name)
		sheets := workload.Corpus(p, c.SheetsPerCorpus, c.Seed)
		cs.sheets[p.Name] = sheets
		stats := make([]analyze.SheetStats, len(sheets))
		for i, s := range sheets {
			stats[i] = analyze.Analyze(s)
		}
		cs.stats[p.Name] = stats
	}
	return cs
}

// timeIt measures fn averaged over reps runs.
func timeIt(reps int, fn func()) time.Duration {
	if reps < 1 {
		reps = 1
	}
	start := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(reps)
}

// decomposeAlgos are the storage-model contenders of Figure 13.
var decomposeAlgos = []string{"rcv", "rom", "com", "dp", "greedy", "agg"}

// decomposeCost runs one algorithm on one sheet under params.
func decomposeCost(s *sheet.Sheet, algo string, params hybrid.CostParams) float64 {
	d, err := hybrid.Decompose(s, algo, hybrid.Options{Params: params, Models: hybrid.AllModels})
	if err != nil {
		return 0
	}
	return d.Cost
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// analyzeRanges extracts every rectangular range referenced by the sheet's
// formulas (the formula-replay workload of Figures 15b and 17).
func analyzeRanges(s *sheet.Sheet) []sheet.Range {
	var out []sheet.Range
	s.EachSorted(func(_ sheet.Ref, c sheet.Cell) {
		if !c.HasFormula() {
			return
		}
		if e, err := formula.Parse(c.Formula); err == nil {
			out = append(out, formula.Refs(e)...)
		}
	})
	return out
}

func minOf(vals ...float64) float64 {
	best := vals[0]
	for _, v := range vals[1:] {
		if v < best {
			best = v
		}
	}
	return best
}

package exp

import (
	"math/rand"
	"time"

	"dataspread/internal/hybrid"
	"dataspread/internal/model"
	"dataspread/internal/posmap"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
	"dataspread/internal/workload"
)

func newSeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// AblationWeightedRow compares DP with and without the Theorem 5 weighted
// row/column collapse on one corpus.
type AblationWeightedRow struct {
	Dataset           string
	Collapsed, Raw    time.Duration
	CostDelta         float64 // collapsed cost minus raw cost (must be ~0)
	MeanGridReduction float64 // collapsed cells / raw cells
}

// AblationWeighted quantifies the weighted collapse of the optimizer's DP
// grid: it must preserve the optimum (Theorem 5) while shrinking the grid
// substantially.
func AblationWeighted(cfg Config) []AblationWeightedRow {
	cfg = cfg.Resolve()
	corp := cfg.buildCorpora()
	opts := hybrid.Options{Params: hybrid.PostgresCost, Models: hybrid.AllModels, MaxDPCells: 4000}
	cfg.printf("Ablation: weighted collapse (Theorem 5)\n")
	cfg.printf("%-10s %12s %12s %12s %10s\n", "Dataset", "collapsed", "raw", "cost delta", "grid ratio")
	var out []AblationWeightedRow
	for _, name := range corp.names {
		var row AblationWeightedRow
		row.Dataset = name
		var ratioSum float64
		n := 0
		for _, s := range corp.sheets[name] {
			if s.Len() == 0 {
				continue
			}
			gc, ok := hybrid.NewGrid(s, true)
			if !ok {
				continue
			}
			gu, _ := hybrid.NewGrid(s, false)
			if gu.R*gu.C > opts.MaxDPCells || gc.R*gc.C > opts.MaxDPCells {
				continue // keep the raw-grid DP tractable
			}
			n++
			ratioSum += float64(gc.R*gc.C) / float64(gu.R*gu.C)
			start := time.Now()
			dc := hybrid.DPOnGrid(gc, opts)
			row.Collapsed += time.Since(start)
			start = time.Now()
			du := hybrid.DPOnGrid(gu, opts)
			row.Raw += time.Since(start)
			row.CostDelta += dc.Cost - du.Cost
		}
		if n > 0 {
			row.Collapsed /= time.Duration(n)
			row.Raw /= time.Duration(n)
			row.MeanGridReduction = ratioSum / float64(n)
		}
		out = append(out, row)
		cfg.printf("%-10s %12s %12s %12.2f %10.2f\n",
			name, row.Collapsed, row.Raw, row.CostDelta, row.MeanGridReduction)
	}
	return out
}

// AblationBTreeOrderRow is one tree-order measurement for the hierarchical
// positional map.
type AblationBTreeOrderRow struct {
	Order         int
	Insert, Fetch time.Duration
}

// AblationBTreeOrder sweeps the hierarchical map's fan-out (design
// decision 4): too small and the tree is deep; too large and node-level
// memmoves dominate inserts.
func AblationBTreeOrder(cfg Config) []AblationBTreeOrderRow {
	cfg = cfg.Resolve()
	n := cfg.MaxRows / 10
	if n < 10_000 {
		n = 10_000
	}
	cfg.printf("Ablation: hierarchical positional map tree order (n = %d)\n", n)
	cfg.printf("%8s %12s %12s\n", "order", "insert", "fetch")
	var out []AblationBTreeOrderRow
	for _, order := range []int{8, 16, 32, 64, 128, 256} {
		m := posmap.NewHierarchical(order)
		rng := newSeededRand(cfg.Seed)
		start := time.Now()
		for i := 1; i <= n; i++ {
			m.Insert(rng.Intn(m.Len()+1)+1, rdbms.RID{Page: rdbms.PageID(i)})
		}
		insertT := time.Since(start) / time.Duration(n)
		fetchT := timeIt(cfg.Reps*100, func() {
			m.Fetch(rng.Intn(m.Len()) + 1)
		})
		out = append(out, AblationBTreeOrderRow{Order: order, Insert: insertT, Fetch: fetchT})
		cfg.printf("%8d %12s %12s\n", order, insertT, fetchT)
	}
	return out
}

// AblationCostModelRow compares the decomposition chosen under the
// PostgreSQL constants against the ideal-model constants on one corpus:
// how often the chosen regions differ, and the cost penalty of using the
// "wrong" model's decomposition.
type AblationCostModelRow struct {
	Dataset string
	// DivergedFrac is the fraction of sheets where the two cost models
	// choose different decompositions.
	DivergedFrac float64
	// PenaltyFrac is the mean relative extra ideal-cost paid when storing
	// the PostgreSQL-optimized decomposition on the ideal engine.
	PenaltyFrac float64
}

// AblationCostModel quantifies design decision 1: cost constants are data,
// and the right decomposition depends on them.
func AblationCostModel(cfg Config) []AblationCostModelRow {
	cfg = cfg.Resolve()
	corp := cfg.buildCorpora()
	cfg.printf("Ablation: cost-model sensitivity (PG-optimized layout priced on ideal engine)\n")
	cfg.printf("%-10s %10s %10s\n", "Dataset", "diverged", "penalty")
	var out []AblationCostModelRow
	for _, name := range corp.names {
		var diverged, n int
		var penalty float64
		for _, s := range corp.sheets[name] {
			if s.Len() == 0 {
				continue
			}
			n++
			pg, err1 := hybrid.Decompose(s, "agg", hybrid.Options{Params: hybrid.PostgresCost, Models: hybrid.AllModels})
			id, err2 := hybrid.Decompose(s, "agg", hybrid.Options{Params: hybrid.IdealCost, Models: hybrid.AllModels})
			if err1 != nil || err2 != nil {
				continue
			}
			pgOnIdeal := hybrid.CostOf(s, pg.Regions, hybrid.IdealCost)
			if id.Cost > 0 {
				penalty += pgOnIdeal/id.Cost - 1
			}
			if !sameRegions(pg.Regions, id.Regions) {
				diverged++
			}
		}
		row := AblationCostModelRow{Dataset: name}
		if n > 0 {
			row.DivergedFrac = float64(diverged) / float64(n)
			row.PenaltyFrac = penalty / float64(n)
		}
		out = append(out, row)
		cfg.printf("%-10s %9.0f%% %9.1f%%\n", name, row.DivergedFrac*100, row.PenaltyFrac*100)
	}
	return out
}

func sameRegions(a, b []hybrid.Region) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[hybrid.Region]bool, len(a))
	for _, r := range a {
		set[r] = true
	}
	for _, r := range b {
		if !set[r] {
			return false
		}
	}
	return true
}

// VCFScroll measures Example 1 / Section VII-D.a: loading a VCF-scale
// dataset into a ROM region and scrolling to random viewports.
type VCFScrollResult struct {
	Rows, Cols int
	LoadTime   time.Duration
	ScrollTime time.Duration // avg per 50-row viewport fetch
}

// VCFScroll runs the genomics scalability check.
func VCFScroll(cfg Config) VCFScrollResult {
	cfg = cfg.Resolve()
	rows := cfg.MaxRows / 8
	if rows < 1000 {
		rows = 1000
	}
	spec := workload.VCFSpec{Rows: rows, Samples: 11, Seed: cfg.Seed}
	cols := len(workload.VCFColumns(spec))
	db := cfg.openDB(1 << 14)
	rom, err := model.NewROM(model.Config{DB: db, TableName: "vcf"}, cols)
	if err != nil {
		panic(err)
	}
	start := time.Now()
	row := make([]model.CellWrite, cols)
	for i := 1; i <= rows+1; i++ {
		for j, v := range workload.VCFRow(spec, i) {
			row[j] = model.CellWrite{Row: i, Col: j + 1, Cell: sheet.Cell{Value: v}}
		}
		if err := rom.UpdateCells(row); err != nil {
			panic(err)
		}
	}
	res := VCFScrollResult{Rows: rows, Cols: cols, LoadTime: time.Since(start)}
	rng := newSeededRand(cfg.Seed)
	res.ScrollTime = timeIt(cfg.Reps*5, func() {
		r0 := rng.Intn(rows-50) + 1
		model.GetCells(rom, sheet.NewRange(r0, 1, r0+49, cols)) //nolint:errcheck
	})
	cfg.printf("Genomics scale (Example 1): %d x %d VCF, load %s, scroll(50 rows) %s\n",
		res.Rows, res.Cols, res.LoadTime, res.ScrollTime)
	return res
}

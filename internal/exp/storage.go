package exp

import (
	"time"

	"dataspread/internal/hybrid"
	"dataspread/internal/model"
	"dataspread/internal/sheet"
	"dataspread/internal/workload"
)

// StorageRow is one dataset's normalized storage comparison: the
// per-sheet costs of each model scaled so the worst model on that sheet is
// 100, averaged over the corpus (Figure 13's presentation).
type StorageRow struct {
	Dataset string
	// Normalized holds rcv, rom, com, dp, greedy, agg, opt in order.
	Normalized map[string]float64
}

// fig13 runs the storage comparison under the given cost constants.
func fig13(cfg Config, params hybrid.CostParams, title string) []StorageRow {
	cfg = cfg.Resolve()
	corp := cfg.buildCorpora()
	cfg.printf("%s\n%-10s", title, "Dataset")
	algos := append(append([]string{}, decomposeAlgos...), "opt")
	for _, a := range algos {
		cfg.printf(" %8s", a)
	}
	cfg.printf("\n")
	var out []StorageRow
	for _, name := range corp.names {
		sums := make(map[string]float64)
		n := 0
		for _, s := range corp.sheets[name] {
			if s.Len() == 0 {
				continue
			}
			costs := make(map[string]float64, len(algos))
			worst := 0.0
			for _, a := range decomposeAlgos {
				c := decomposeCost(s, a, params)
				costs[a] = c
				if c > worst {
					worst = c
				}
			}
			costs["opt"] = hybrid.OptLowerBound(s, params)
			if worst == 0 {
				continue
			}
			n++
			for _, a := range algos {
				sums[a] += 100 * costs[a] / worst
			}
		}
		row := StorageRow{Dataset: name, Normalized: make(map[string]float64)}
		for _, a := range algos {
			row.Normalized[a] = sums[a] / float64(n)
		}
		out = append(out, row)
		cfg.printf("%-10s", name)
		for _, a := range algos {
			cfg.printf(" %8.1f", row.Normalized[a])
		}
		cfg.printf("\n")
	}
	return out
}

// Fig13a reproduces Figure 13(a): storage comparison under the PostgreSQL
// cost constants.
func Fig13a(cfg Config) []StorageRow {
	return fig13(cfg, hybrid.PostgresCost,
		"Figure 13(a): Storage Comparison for PostgreSQL (normalized, worst=100)")
}

// Fig13b reproduces Figure 13(b): storage comparison on the ideal database
// cost model.
func Fig13b(cfg Config) []StorageRow {
	return fig13(cfg, hybrid.IdealCost,
		"Figure 13(b): Storage Comparison on an Ideal Database (normalized, worst=100)")
}

// Fig15aRow is one dataset's average optimizer running time.
type Fig15aRow struct {
	Dataset            string
	DP, Greedy, Agg    time.Duration
	DPFallbackFraction float64 // sheets where DP fell back to Agg (paper: terminated)
}

// Fig15a reproduces Figure 15(a): hybrid optimization running time.
func Fig15a(cfg Config) []Fig15aRow {
	cfg = cfg.Resolve()
	corp := cfg.buildCorpora()
	cfg.printf("Figure 15(a): Hybrid optimization algorithms: Running time (avg per sheet)\n")
	cfg.printf("%-10s %12s %12s %12s %10s\n", "Dataset", "DP", "Greedy", "Agg", "DP-skipped")
	var out []Fig15aRow
	opts := hybrid.Options{Params: hybrid.PostgresCost, Models: hybrid.AllModels}
	for _, name := range corp.names {
		var row Fig15aRow
		row.Dataset = name
		fallbacks := 0
		n := 0
		for _, s := range corp.sheets[name] {
			if s.Len() == 0 {
				continue
			}
			n++
			start := time.Now()
			d, _ := hybrid.Decompose(s, "dp", opts)
			row.DP += time.Since(start)
			if d != nil && d.Algorithm != "dp" {
				fallbacks++
			}
			start = time.Now()
			hybrid.Decompose(s, "greedy", opts)
			row.Greedy += time.Since(start)
			start = time.Now()
			hybrid.Decompose(s, "agg", opts)
			row.Agg += time.Since(start)
		}
		if n > 0 {
			row.DP /= time.Duration(n)
			row.Greedy /= time.Duration(n)
			row.Agg /= time.Duration(n)
			row.DPFallbackFraction = float64(fallbacks) / float64(n)
		}
		out = append(out, row)
		cfg.printf("%-10s %12s %12s %12s %9.0f%%\n",
			name, row.DP, row.Greedy, row.Agg, row.DPFallbackFraction*100)
	}
	return out
}

// Fig15bRow is one dataset's average formula access time per model.
type Fig15bRow struct {
	Dataset       string
	ROM, RCV, Agg time.Duration
}

// Fig15b reproduces Figure 15(b): average access time for formulae against
// materialized ROM, RCV and Agg-hybrid stores.
func Fig15b(cfg Config) []Fig15bRow {
	cfg = cfg.Resolve()
	corp := cfg.buildCorpora()
	cfg.printf("Figure 15(b): Average access time for formulae\n")
	cfg.printf("%-10s %12s %12s %12s\n", "Dataset", "ROM", "RCV", "Agg")
	// Materializing every sheet is expensive; sample a prefix.
	perCorpus := cfg.SheetsPerCorpus / 4
	if perCorpus < 4 {
		perCorpus = 4
	}
	var out []Fig15bRow
	for _, name := range corp.names {
		var row Fig15bRow
		row.Dataset = name
		sheets := corp.sheets[name]
		if len(sheets) > perCorpus {
			sheets = sheets[:perCorpus]
		}
		var romT, rcvT, aggT time.Duration
		var formulas int
		for _, s := range sheets {
			ranges := formulaRanges(s)
			if len(ranges) == 0 {
				continue
			}
			formulas += len(ranges)
			romT += replayAccess(cfg, s, "rom", ranges)
			rcvT += replayAccess(cfg, s, "rcv", ranges)
			aggT += replayAccess(cfg, s, "agg", ranges)
		}
		if formulas > 0 {
			row.ROM = romT / time.Duration(formulas)
			row.RCV = rcvT / time.Duration(formulas)
			row.Agg = aggT / time.Duration(formulas)
		}
		out = append(out, row)
		cfg.printf("%-10s %12s %12s %12s\n", name, row.ROM, row.RCV, row.Agg)
	}
	return out
}

// formulaRanges extracts the rectangular ranges accessed by the sheet's
// formulas.
func formulaRanges(s *sheet.Sheet) []sheet.Range {
	st := analyzeRanges(s)
	return st
}

// replayAccess materializes the sheet under the algorithm and measures the
// total time to fetch every formula range through the store.
func replayAccess(cfg Config, s *sheet.Sheet, algo string, ranges []sheet.Range) time.Duration {
	d, err := hybrid.Decompose(s, algo, hybrid.Options{Params: hybrid.PostgresCost, Models: hybrid.AllModels})
	if err != nil {
		return 0
	}
	mark := diskMark()
	defer closeDiskSince(mark) //nolint:errcheck // release this sheet's disk DB
	hs, err := model.Materialize(cfg.openDB(0), "f15b", "", s, d)
	if err != nil {
		return 0
	}
	start := time.Now()
	for _, g := range ranges {
		hs.GetCells(g) //nolint:errcheck // timing path
	}
	return time.Since(start)
}

// Fig17Row is one synthetic sheet's storage and access measurement.
type Fig17Row struct {
	Density      float64
	StorageMB    map[string]float64 // measured store bytes per model
	AccessTime   map[string]time.Duration
	AnalyticCost map[string]float64
	FilledCells  int
}

// Fig17 reproduces Figure 17: storage and formula access time on large
// synthetic sheets of decreasing density.
func Fig17(cfg Config) []Fig17Row {
	cfg = cfg.Resolve()
	// Paper: 100M+ cells. The sheet must be large enough that the per-table
	// setup cost s1 (8 KiB) is small against each table's cell mass —
	// otherwise the optimizer correctly refuses to split and the
	// hybrid-vs-primitive access comparison degenerates. MaxRows/40 gives
	// ~2.5M-cell grids at the default configuration.
	rows := cfg.MaxRows / 40
	if rows < 2000 {
		rows = 2000
	}
	cols := 100
	densities := []float64{1.0, 0.9, 0.7, 0.5}
	models := []string{"rom", "rcv", "agg"}
	cfg.printf("Figure 17: Synthetic sheets — storage (MB) and access time per formula set\n")
	cfg.printf("%-8s %10s %10s %10s %12s %12s %12s\n",
		"density", "rom MB", "rcv MB", "agg MB", "rom t", "rcv t", "agg t")
	var out []Fig17Row
	for i, den := range densities {
		s, accesses := workload.Synthetic(workload.SyntheticSpec{
			Rows: rows, Cols: cols, Regions: 20, Formulas: 100,
			Density: den, Seed: cfg.Seed + int64(i),
		})
		row := Fig17Row{
			Density:      den,
			StorageMB:    make(map[string]float64),
			AccessTime:   make(map[string]time.Duration),
			AnalyticCost: make(map[string]float64),
			FilledCells:  s.Len(),
		}
		for _, m := range models {
			d, err := hybrid.Decompose(s, m, hybrid.Options{Params: hybrid.PostgresCost, Models: hybrid.AllModels})
			if err != nil {
				cfg.printf("fig17: %s decompose: %v\n", m, err)
				continue
			}
			row.AnalyticCost[m] = d.Cost
			mark := diskMark()
			hs, err := model.Materialize(cfg.openDB(0), "f17", "", s, d)
			if err != nil {
				cfg.printf("fig17: %s materialize: %v\n", m, err)
				continue
			}
			row.StorageMB[m] = float64(hs.StorageBytes()) / (1 << 20)
			start := time.Now()
			for _, g := range accesses {
				hs.GetCells(g) //nolint:errcheck // timing path
			}
			row.AccessTime[m] = time.Since(start)
			closeDiskSince(mark) //nolint:errcheck // release this model's disk DB
		}
		out = append(out, row)
		cfg.printf("%-8.2f %10.2f %10.2f %10.2f %12s %12s %12s\n", den,
			row.StorageMB["rom"], row.StorageMB["rcv"], row.StorageMB["agg"],
			row.AccessTime["rom"], row.AccessTime["rcv"], row.AccessTime["agg"])
	}
	return out
}

// Fig25Row is one sample sheet's normalized storage per model.
type Fig25Row struct {
	Sheet      string
	Normalized map[string]float64
}

// Fig25 reproduces Figure 25: storage comparison on four hand-picked
// structures — dense small, dense large, vertical layout, sparse
// horizontal layout.
func Fig25(cfg Config) []Fig25Row {
	cfg = cfg.Resolve()
	samples := fig25Sheets(cfg.Seed)
	cfg.printf("Figure 25: Storage comparison for sample spreadsheets (normalized, worst=100)\n")
	cfg.printf("%-8s", "Sheet")
	for _, a := range decomposeAlgos {
		cfg.printf(" %8s", a)
	}
	cfg.printf("\n")
	var out []Fig25Row
	for _, sm := range samples {
		row := Fig25Row{Sheet: sm.Name, Normalized: make(map[string]float64)}
		worst := 0.0
		for _, a := range decomposeAlgos {
			c := decomposeCost(sm, a, hybrid.PostgresCost)
			row.Normalized[a] = c
			if c > worst {
				worst = c
			}
		}
		for a, c := range row.Normalized {
			row.Normalized[a] = 100 * c / worst
		}
		out = append(out, row)
		cfg.printf("%-8s", sm.Name)
		for _, a := range decomposeAlgos {
			cfg.printf(" %8.1f", row.Normalized[a])
		}
		cfg.printf("\n")
	}
	return out
}

// fig25Sheets builds the four structural archetypes of Figure 25.
func fig25Sheets(seed int64) []*sheet.Sheet {
	s1 := workload.Dense(40, 12, 1.0, seed) // dense, row-leaning
	s1.Name = "Sheet1"
	s2 := workload.Dense(80, 20, 0.97, seed+1) // dense, larger
	s2.Name = "Sheet2"
	// Sheet 3: vertical strip plus scattered cells (vertical layout).
	s3 := workload.Dense(120, 4, 1.0, seed+2)
	sc, _ := workload.Synthetic(workload.SyntheticSpec{Rows: 120, Cols: 40, Regions: 3, Density: 0.3, Seed: seed + 2})
	sc.Each(func(r sheet.Ref, c sheet.Cell) {
		if r.Col > 10 {
			s3.Set(r, c)
		}
	})
	s3.Name = "Sheet3"
	// Sheet 4: sparse horizontal spread.
	s4 := workload.Dense(4, 120, 1.0, seed+3)
	sc2, _ := workload.Synthetic(workload.SyntheticSpec{Rows: 60, Cols: 200, Regions: 2, Density: 0.15, Seed: seed + 3})
	sc2.Each(func(r sheet.Ref, c sheet.Cell) {
		if r.Row > 8 {
			s4.Set(r, c)
		}
	})
	s4.Name = "Sheet4"
	return []*sheet.Sheet{s1, s2, s3, s4}
}

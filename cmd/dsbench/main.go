// Command dsbench regenerates every table and figure of the DataSpread
// paper's evaluation. Each experiment prints the same rows/series the
// paper reports; EXPERIMENTS.md records the expected shapes.
//
// Usage:
//
//	dsbench -exp table1            # one experiment
//	dsbench -exp all               # everything (several minutes)
//	dsbench -exp fig18 -maxrows 10000000 -sheets 500   # bigger run
//
// Experiments: table1 fig2 fig3 fig4 fig5 fig6 table2 fig13a fig13b fig14
// fig15a fig15b fig17 fig18 fig22 fig23 fig24 fig25 fig26 ablations vcf
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"dataspread/internal/exp"
)

func main() {
	var (
		which     = flag.String("exp", "all", "experiment id or 'all'")
		sheets    = flag.Int("sheets", 120, "sheets per generated corpus")
		maxRows   = flag.Int("maxrows", 1_000_000, "row-count ceiling for sweeps")
		reps      = flag.Int("reps", 20, "repetitions per timed point")
		seed      = flag.Int64("seed", 2018, "generator seed")
		disk      = flag.Bool("disk", false, "keep the databases' files (data file + WAL) on disk in a temp dir instead of in memory")
		diskDir   = flag.String("diskdir", "", "directory for -disk database files (default: a temp dir, removed on exit)")
		ckptPages = flag.Int("checkpoint-pages", 0, "auto-checkpoint threshold in dirty pages (0: default 4096, negative: disable)")
	)
	flag.Parse()

	cfg := exp.Config{
		W:                   os.Stdout,
		SheetsPerCorpus:     *sheets,
		MaxRows:             *maxRows,
		Reps:                *reps,
		Seed:                *seed,
		AutoCheckpointPages: *ckptPages,
	}
	if *disk {
		dir := *diskDir
		if dir == "" {
			var err error
			dir, err = os.MkdirTemp("", "dsbench-disk-*")
			if err != nil {
				fmt.Fprintln(os.Stderr, "dsbench:", err)
				os.Exit(1)
			}
			defer os.RemoveAll(dir)
		}
		cfg.DiskDir = dir
		fmt.Printf("[disk mode: file-backed databases under %s]\n\n", dir)
	}

	experiments := map[string]func(exp.Config){
		"table1": func(c exp.Config) { exp.Table1(c) },
		"fig2":   func(c exp.Config) { exp.Fig2(c) },
		"fig3":   func(c exp.Config) { exp.Fig3(c) },
		"fig4":   func(c exp.Config) { exp.Fig4(c) },
		"fig5":   func(c exp.Config) { exp.Fig5(c) },
		"fig6":   func(c exp.Config) { exp.Fig6(c) },
		"table2": func(c exp.Config) { exp.Table2(c) },
		"fig13a": func(c exp.Config) { exp.Fig13a(c) },
		"fig13b": func(c exp.Config) { exp.Fig13b(c) },
		"fig14":  func(c exp.Config) { exp.Fig14(c) },
		"fig15a": func(c exp.Config) { exp.Fig15a(c) },
		"fig15b": func(c exp.Config) { exp.Fig15b(c) },
		"fig17":  func(c exp.Config) { exp.Fig17(c) },
		"fig18":  func(c exp.Config) { exp.Fig18(c) },
		"fig22":  func(c exp.Config) { exp.Fig22(c) },
		"fig23":  func(c exp.Config) { exp.Fig23(c) },
		"fig24":  func(c exp.Config) { exp.Fig24(c) },
		"fig25":  func(c exp.Config) { exp.Fig25(c) },
		"fig26": func(c exp.Config) {
			exp.Fig26a(c)
			exp.Fig26b(c)
		},
		"ablations": func(c exp.Config) {
			exp.AblationWeighted(c)
			exp.AblationBTreeOrder(c)
			exp.AblationCostModel(c)
		},
		"vcf": func(c exp.Config) { exp.VCFScroll(c) },
	}

	names := make([]string, 0, len(experiments))
	for n := range experiments {
		names = append(names, n)
	}
	sort.Strings(names)

	run := func(name string) {
		fn, ok := experiments[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "dsbench: unknown experiment %q (have: %s, all)\n",
				name, strings.Join(names, " "))
			os.Exit(2)
		}
		start := time.Now()
		fn(cfg)
		if err := exp.CloseDiskDBs(); err != nil {
			fmt.Fprintf(os.Stderr, "dsbench: closing disk databases: %v\n", err)
		}
		fmt.Printf("[%s done in %s]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if *which == "all" {
		for _, n := range names {
			run(n)
		}
		return
	}
	for _, n := range strings.Split(*which, ",") {
		run(strings.TrimSpace(n))
	}
}

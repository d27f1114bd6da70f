// Benchmarks regenerating every table and figure of the paper's evaluation
// at reduced scale (one testing.B bench per artifact; see cmd/dsbench for
// the full-scale harness and EXPERIMENTS.md for paper-vs-measured shapes).
package dataspread_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dataspread"
	"dataspread/internal/exp"
)

// -disk reruns every experiment benchmark with the databases' files (data
// file + WAL) on disk in a temp dir instead of in memory, so BENCH_*.json
// runs can compare the two trajectories:
//
//	go test -run='^$' -bench=. -disk
var diskMode = flag.Bool("disk", false,
	"run experiment benchmarks with the database files on disk instead of in memory")

var diskDir string

func TestMain(m *testing.M) {
	flag.Parse()
	if *diskMode {
		var err error
		diskDir, err = os.MkdirTemp("", "dsbench-disk-*")
		if err != nil {
			panic(err)
		}
	}
	code := m.Run()
	exp.CloseDiskDBs() //nolint:errcheck // best-effort teardown
	if diskDir != "" {
		os.RemoveAll(diskDir)
	}
	os.Exit(code)
}

// benchCfg keeps per-iteration work bounded so `go test -bench=.` finishes
// in minutes while still exercising the full experiment code paths.
func benchCfg(b *testing.B) exp.Config {
	cfg := exp.Config{SheetsPerCorpus: 16, MaxRows: 20_000, Reps: 2, Seed: 2018, Actions: 2000}
	if *diskMode {
		cfg.DiskDir = diskDir
		b.Cleanup(func() { exp.CloseDiskDBs() }) //nolint:errcheck
	}
	return cfg
}

// BenchmarkDurableSetCheckpoint measures the file-backed write path: cell
// writes through the public engine API, a WAL commit, and a checkpointed
// close. It runs on disk regardless of -disk so CI's bench smoke exercises
// the durable path on every push.
func BenchmarkDurableSetCheckpoint(b *testing.B) {
	dir := b.TempDir()
	for i := 0; i < b.N; i++ {
		path := filepath.Join(dir, fmt.Sprintf("w%d.dsdb", i))
		db, err := dataspread.OpenFileDB(path)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := dataspread.NewEngine(db, "bench")
		if err != nil {
			b.Fatal(err)
		}
		for r := 1; r <= 500; r++ {
			if err := eng.SetValue(r, 1, dataspread.Number(float64(r))); err != nil {
				b.Fatal(err)
			}
		}
		if err := eng.Save(); err != nil {
			b.Fatal(err)
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDurableReopen measures recovery-path reads: open the data file,
// reload the engine manifest, touch a cell, close.
func BenchmarkDurableReopen(b *testing.B) {
	path := filepath.Join(b.TempDir(), "r.dsdb")
	db, err := dataspread.OpenFileDB(path)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := dataspread.NewEngine(db, "bench")
	if err != nil {
		b.Fatal(err)
	}
	for r := 1; r <= 2000; r++ {
		if err := eng.SetValue(r, 1, dataspread.Number(float64(r))); err != nil {
			b.Fatal(err)
		}
	}
	if err := eng.Save(); err != nil {
		b.Fatal(err)
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := dataspread.OpenFileDB(path)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := dataspread.LoadEngine(db, "bench")
		if err != nil {
			b.Fatal(err)
		}
		if v, _ := eng.GetCell(2000, 1).Value.Num(); v != 2000 {
			b.Fatalf("bad reload: %v", eng.GetCell(2000, 1).Value)
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Analysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Table1(benchCfg(b))
	}
}

func BenchmarkFig2Density(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Fig2(benchCfg(b))
	}
}

func BenchmarkFig3Tables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Fig3(benchCfg(b))
	}
}

func BenchmarkFig4CCDensity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Fig4(benchCfg(b))
	}
}

func BenchmarkFig5Formulae(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Fig5(benchCfg(b))
	}
}

func BenchmarkTable2PositionAsIs(b *testing.B) {
	cfg := benchCfg(b)
	cfg.MaxRows = 50_000
	for i := 0; i < b.N; i++ {
		exp.Table2(cfg)
	}
}

func BenchmarkFig13aStorage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Fig13a(benchCfg(b))
	}
}

func BenchmarkFig13bIdealStorage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Fig13b(benchCfg(b))
	}
}

func BenchmarkFig14TableBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Fig14(benchCfg(b))
	}
}

func BenchmarkFig15aOptimizerTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Fig15a(benchCfg(b))
	}
}

func BenchmarkFig15bFormulaAccess(b *testing.B) {
	cfg := benchCfg(b)
	cfg.SheetsPerCorpus = 8
	for i := 0; i < b.N; i++ {
		exp.Fig15b(cfg)
	}
}

func BenchmarkFig17Synthetic(b *testing.B) {
	cfg := benchCfg(b)
	cfg.MaxRows = 100_000
	for i := 0; i < b.N; i++ {
		exp.Fig17(cfg)
	}
}

func BenchmarkFig18PosMap(b *testing.B) {
	cfg := benchCfg(b)
	cfg.MaxRows = 100_000
	for i := 0; i < b.N; i++ {
		exp.Fig18(cfg)
	}
}

func BenchmarkFig22UpdateRange(b *testing.B) {
	cfg := benchCfg(b)
	cfg.MaxRows = 30_000
	for i := 0; i < b.N; i++ {
		exp.Fig22(cfg)
	}
}

func BenchmarkFig23InsertRow(b *testing.B) {
	cfg := benchCfg(b)
	cfg.MaxRows = 30_000
	for i := 0; i < b.N; i++ {
		exp.Fig23(cfg)
	}
}

func BenchmarkFig24Select(b *testing.B) {
	cfg := benchCfg(b)
	cfg.MaxRows = 30_000
	for i := 0; i < b.N; i++ {
		exp.Fig24(cfg)
	}
}

func BenchmarkFig25Samples(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Fig25(benchCfg(b))
	}
}

func BenchmarkFig26Incremental(b *testing.B) {
	cfg := benchCfg(b)
	cfg.MaxRows = 15_000
	for i := 0; i < b.N; i++ {
		exp.Fig26a(cfg)
		exp.Fig26b(cfg)
	}
}

func BenchmarkGenomicsVCFScroll(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		exp.VCFScroll(cfg)
	}
}

func BenchmarkAblationWeighted(b *testing.B) {
	cfg := benchCfg(b)
	cfg.SheetsPerCorpus = 8
	for i := 0; i < b.N; i++ {
		exp.AblationWeighted(cfg)
	}
}

func BenchmarkAblationBTreeOrder(b *testing.B) {
	cfg := benchCfg(b)
	cfg.MaxRows = 50_000
	for i := 0; i < b.N; i++ {
		exp.AblationBTreeOrder(cfg)
	}
}

func BenchmarkAblationCostModel(b *testing.B) {
	cfg := benchCfg(b)
	cfg.SheetsPerCorpus = 8
	for i := 0; i < b.N; i++ {
		exp.AblationCostModel(cfg)
	}
}

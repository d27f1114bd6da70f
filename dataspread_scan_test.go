package dataspread_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dataspread"
)

// The scroll benchmarks: the paper's headline interactive workload is
// fetching rectangular viewports out of the hybrid store. These helpers
// measure the batched, projection-pushdown read path, the warm cell cache
// and parallel readers; bench/'s scroll-large workload measures the same
// path end to end.

const (
	scanRows   = 1500
	scanCols   = 200 // wide sheet: projection pushdown's worst enemy
	scanVPRows = 50
	scanVPCols = 10
)

// buildScanEngine materializes a dense scanRows×scanCols sheet as one ROM
// region, in memory or on the durable pager.
func buildScanEngine(tb testing.TB, dir string, disk bool) (*dataspread.Engine, *dataspread.DB, func()) {
	tb.Helper()
	s := dataspread.NewSheet("scan")
	for r := 1; r <= scanRows; r++ {
		for c := 1; c <= scanCols; c++ {
			s.SetValue(r, c, dataspread.Number(float64(r*1000+c)))
		}
	}
	var db *dataspread.DB
	var err error
	var path string
	if disk {
		path = filepath.Join(dir, "scan.dsdb")
		db, err = dataspread.OpenFileDB(path)
	} else {
		db = dataspread.OpenDB()
	}
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := dataspread.OpenSheet(db, "scan", s, "rom")
	if err != nil {
		tb.Fatal(err)
	}
	if disk {
		if err := eng.Checkpoint(); err != nil {
			tb.Fatal(err)
		}
	}
	cleanup := func() {
		if disk {
			db.Close() //nolint:errcheck // bench teardown
			os.Remove(path)
			os.Remove(path + ".wal")
		}
	}
	return eng, db, cleanup
}

// scanViewports slides a viewport down the sheet, reading through the
// store's batched range path, and returns cells/sec.
func scanViewports(tb testing.TB, eng *dataspread.Engine, iters int) float64 {
	tb.Helper()
	store := eng.Store()
	cells := 0
	start := time.Now()
	for i := 0; i < iters; i++ {
		r0 := (i*37)%(scanRows-scanVPRows) + 1
		c0 := (i*13)%(scanCols-scanVPCols) + 1
		g := dataspread.MustRange("A1:A1")
		g.From.Row, g.From.Col = r0, c0
		g.To.Row, g.To.Col = r0+scanVPRows-1, c0+scanVPCols-1
		out, err := store.GetCells(g)
		if err != nil {
			tb.Fatal(err)
		}
		cells += len(out) * len(out[0])
	}
	return float64(cells) / time.Since(start).Seconds()
}

// scanWarm reads one viewport repeatedly through the engine's cell cache
// after priming it: the dense-block fast path.
func scanWarm(tb testing.TB, eng *dataspread.Engine, iters int) float64 {
	tb.Helper()
	g := dataspread.MustRange("A1:A1")
	g.From.Row, g.From.Col = 101, 17
	g.To.Row, g.To.Col = 100+scanVPRows, 16+scanVPCols
	eng.GetCells(g) // prime
	cells := 0
	start := time.Now()
	for i := 0; i < iters; i++ {
		out := eng.GetCells(g)
		cells += len(out) * len(out[0])
	}
	if err := eng.ReadErr(); err != nil {
		tb.Fatal(err)
	}
	return float64(cells) / time.Since(start).Seconds()
}

// scanParallel runs workers goroutines, each sliding viewports over its own
// row band through the store, and returns aggregate cells/sec.
func scanParallel(tb testing.TB, eng *dataspread.Engine, workers, itersPerWorker int) float64 {
	tb.Helper()
	store := eng.Store()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	band := (scanRows - scanVPRows) / workers
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := w * band
			for i := 0; i < itersPerWorker; i++ {
				r0 := base + (i*29)%band + 1
				c0 := (i*13)%(scanCols-scanVPCols) + 1
				g := dataspread.MustRange("A1:A1")
				g.From.Row, g.From.Col = r0, c0
				g.To.Row, g.To.Col = r0+scanVPRows-1, c0+scanVPCols-1
				if _, err := store.GetCells(g); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	close(errs)
	for err := range errs {
		tb.Fatal(err)
	}
	return float64(workers*itersPerWorker*scanVPRows*scanVPCols) / elapsed
}

// BenchmarkScanViewport runs the batched read path and the warm cell cache on
// the in-memory pager (the bench smoke runs every path once per push).
func BenchmarkScanViewport(b *testing.B) {
	eng, _, cleanup := buildScanEngine(b, b.TempDir(), false)
	defer cleanup()
	b.Run("Batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(scanViewports(b, eng, 40), "cells/sec")
		}
	})
	b.Run("WarmCache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(scanWarm(b, eng, 200), "cells/sec")
		}
	})
}

// BenchmarkScanParallelDisk measures aggregate parallel-reader throughput on
// the durable pager at 1 and 4 goroutines.
func BenchmarkScanParallelDisk(b *testing.B) {
	eng, _, cleanup := buildScanEngine(b, b.TempDir(), true)
	defer cleanup()
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("G%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.ReportMetric(scanParallel(b, eng, workers, 30), "cells/sec")
			}
		})
	}
}

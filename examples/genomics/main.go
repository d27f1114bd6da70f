// Genomics at scale (Example 1 / Section VII-D.a): stream a VCF-scale
// variant dataset into the storage engine and scroll through it with
// interactive latency. The paper's collaborators' file is 1.3M rows x 284
// columns; pass -rows/-samples to approach that scale (default is a quick
// 200k x 21 run).
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"dataspread/internal/model"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
	"dataspread/internal/workload"
)

func main() {
	rows := flag.Int("rows", 200_000, "variant rows")
	samples := flag.Int("samples", 12, "sample genotype columns")
	flag.Parse()

	spec := workload.VCFSpec{Rows: *rows, Samples: *samples, Seed: 1}
	cols := len(workload.VCFColumns(spec))

	// A VCF is one dense table: the hybrid optimizer would pick a single
	// ROM region, so build it directly and stream rows in.
	db := rdbms.Open(rdbms.Options{BufferPoolPages: 1 << 15})
	rom, err := model.NewROM(model.Config{DB: db, TableName: "vcf"}, cols)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Importing %d x %d synthetic VCF...\n", *rows+1, cols)
	start := time.Now()
	row := make([]model.CellWrite, cols)
	for i := 1; i <= *rows+1; i++ {
		for j, v := range workload.VCFRow(spec, i) {
			row[j] = model.CellWrite{Row: i, Col: j + 1, Cell: sheet.Cell{Value: v}}
		}
		if err := rom.UpdateCells(row); err != nil { // one built tuple past the extent
			log.Fatal(err)
		}
		if i%100_000 == 0 {
			fmt.Printf("  %d rows (%.1fs)\n", i, time.Since(start).Seconds())
		}
	}
	fmt.Printf("Import done in %s; storage %.1f MB\n",
		time.Since(start).Round(time.Millisecond),
		float64(rom.StorageBytes())/(1<<20))

	// Scroll: fetch random 50-row viewports by position — the operation
	// Excel could not sustain on this dataset. Sub-second is the paper's
	// interactivity bar; the hierarchical positional map keeps it in the
	// microsecond-to-millisecond range.
	rng := rand.New(rand.NewSource(7))
	const viewports = 200
	start = time.Now()
	var worst time.Duration
	for i := 0; i < viewports; i++ {
		r0 := rng.Intn(*rows-50) + 1
		t0 := time.Now()
		if _, err := model.GetCells(rom, sheet.NewRange(r0, 1, r0+49, cols)); err != nil {
			log.Fatal(err)
		}
		if d := time.Since(t0); d > worst {
			worst = d
		}
	}
	fmt.Printf("Scrolled %d random viewports: avg %s, worst %s\n",
		viewports, (time.Since(start) / viewports).Round(time.Microsecond), worst.Round(time.Microsecond))

	// Jump to "the millionth row" (or the last viewport at smaller scale),
	// as in the paper's screenshot.
	target := *rows - 49
	cells, err := model.GetCells(rom, sheet.NewRange(target, 1, target+4, 5))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nViewport at row %d:\n", target)
	for i, row := range cells {
		fmt.Printf("%8d |", target+i)
		for _, c := range row {
			fmt.Printf(" %-10s", c.Value.Text())
		}
		fmt.Println()
	}

	// Row edits remain O(log N): insert a row in the middle.
	t0 := time.Now()
	if err := rom.Shift(true, *rows/2+1, 1); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nInsert row at position %d: %s (no cascading updates)\n",
		*rows/2, time.Since(t0).Round(time.Microsecond))
}

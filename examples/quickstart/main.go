// Quickstart: the Figure 7 grade book — values, formulas, dependency-driven
// recalculation, and a structural edit, all persisted through the hybrid
// storage engine.
package main

import (
	"fmt"
	"log"

	"dataspread"
)

func main() {
	db := dataspread.OpenDB()
	eng, err := dataspread.NewEngine(db, "grades")
	if err != nil {
		log.Fatal(err)
	}

	// Lay out the paper's Figure 7 sheet.
	headers := []string{"ID", "HW1", "HW2", "MidTerm", "Final", "Total"}
	for j, h := range headers {
		must(eng.SetValue(1, j+1, dataspread.Text(h)))
	}
	students := []struct {
		name   string
		scores [4]float64
	}{
		{"Alice", [4]float64{10, 10, 30, 35}},
		{"Bob", [4]float64{8, 9, 25, 30}},
		{"Carol", [4]float64{9, 10, 28, 33}},
		{"Dave", [4]float64{8, 8, 30, 32}},
	}
	for i, st := range students {
		row := i + 2
		must(eng.SetValue(row, 1, dataspread.Text(st.name)))
		for j, v := range st.scores {
			must(eng.SetValue(row, j+2, dataspread.Number(v)))
		}
		// Total = AVERAGE(HW1:HW2) + MidTerm + Final, as in the paper.
		must(eng.Set(row, 6, fmt.Sprintf("=AVERAGE(B%d:C%d)+D%d+E%d", row, row, row, row)))
	}
	must(eng.Set(7, 6, "=AVERAGE(F2:F5)"))

	fmt.Println("Initial sheet:")
	printRange(eng, "A1:F7")

	// Update one cell: dependents recompute automatically.
	fmt.Println("\nAlice aces the final (E2 = 45):")
	must(eng.SetValue(2, 5, dataspread.Number(45)))
	printRange(eng, "F2:F7")

	// Insert a row: positional maps shift, formulas rewrite — no cascading
	// updates in storage.
	fmt.Println("\nInsert a row after row 2 (class average formula follows):")
	must(eng.InsertRowsAfter(2, 1))
	fmt.Printf("class average moved to F8 = %s (formula %q)\n",
		eng.GetCell(8, 6).Value, eng.GetCell(8, 6).Formula)
}

func printRange(eng *dataspread.Engine, a1 string) {
	g := dataspread.MustRange(a1)
	for i, row := range eng.GetCells(g) {
		fmt.Printf("%3d |", g.From.Row+i)
		for _, c := range row {
			fmt.Printf(" %-8s", c.Value.Text())
		}
		fmt.Println()
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

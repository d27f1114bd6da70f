// Customer management (Example 2 / Section VII-D.b): link spreadsheet
// regions to database tables with two-way synchronization, run SQL with
// joins and aggregation from the grid, and select and project over a linked
// table — all as SQL, without writing a database application.
package main

import (
	"fmt"
	"log"

	"dataspread"
)

func main() {
	db := dataspread.OpenDB()
	eng, err := dataspread.NewEngine(db, "crm")
	if err != nil {
		log.Fatal(err)
	}

	// Type two tables directly on the grid, then link them: linkTable
	// creates the relations and establishes two-way sync.
	typeGrid(eng, 1, 1, [][]string{
		{"suppid", "name", "city"},
		{"1", "Acme", "Champaign"},
		{"2", "Globex", "Urbana"},
		{"3", "Initech", "Champaign"},
	})
	if _, err := eng.LinkTable(dataspread.MustRange("A1:C4"), "supp"); err != nil {
		log.Fatal(err)
	}
	typeGrid(eng, 1, 5, [][]string{
		{"invid", "suppid", "amount", "paid"},
		{"10", "1", "100", "TRUE"},
		{"11", "1", "250", "FALSE"},
		{"12", "2", "75.5", "TRUE"},
		{"13", "3", "500", "FALSE"},
		{"14", "3", "25", "TRUE"},
	})
	if _, err := eng.LinkTable(dataspread.MustRange("E1:H6"), "invoice"); err != nil {
		log.Fatal(err)
	}

	// A cell edit on a linked region is a database update.
	fmt.Println("Marking invoice 11 as paid via a grid edit (H3)...")
	must(eng.Set(3, 8, "TRUE"))

	// The sql() spreadsheet function: join + group + aggregate.
	tv, err := eng.SQL(`SELECT s.name, SUM(i.amount) total, COUNT(*) n
		FROM invoice i JOIN supp s ON i.suppid = s.suppid
		WHERE NOT i.paid GROUP BY s.name ORDER BY total DESC`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nOutstanding balances (sql function):")
	printTable(tv)

	// Place the composite result back on the grid — the index() family.
	if _, err := eng.PlaceTable(tv, dataspread.Ref{Row: 9, Col: 1}); err != nil {
		log.Fatal(err)
	}

	// Select + project over the linked supp range: suppliers by city.
	names, err := eng.SQL("SELECT name FROM supp WHERE city = 'Champaign'")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Champaign suppliers (select+project functions):")
	printTable(names)

	// Parameterized prepared-statement style queries.
	tv, err = eng.SQL("SELECT name FROM supp WHERE suppid = ?", dataspread.Number(2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Supplier #2 (sql with ? parameter):")
	printTable(tv)
}

func typeGrid(eng *dataspread.Engine, row, col int, rows [][]string) {
	for i, r := range rows {
		for j, v := range r {
			must(eng.Set(row+i, col+j, v))
		}
	}
}

func printTable(tv *dataspread.TableValue) {
	for _, c := range tv.Cols {
		fmt.Printf("%-12s", c)
	}
	fmt.Println()
	for _, row := range tv.Rows {
		for _, v := range row {
			fmt.Printf("%-12s", v.Text())
		}
		fmt.Println()
	}
	fmt.Println()
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

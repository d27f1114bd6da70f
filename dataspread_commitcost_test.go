package dataspread_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"dataspread"
	"dataspread/internal/core"
	"dataspread/internal/rdbms"
)

// TestCommitCostIgnoresCatalogSize: what one Set + Save logs does not depend
// on how much catalog sits beside the sheet. A 10x10 sheet is edited in a
// database that also holds k tables of 256 columns; for k = 0 and k = 40 the
// WAL bytes, WAL page appends and manifest bytes of the edit are the same
// numbers (with one writer they repeat exactly). And on an async-recalc
// engine an edit with no dependents costs one WAL fsync in all: the
// scheduler's drain-save after it finds nothing changed and commits nothing.
func TestCommitCostIgnoresCatalogSize(t *testing.T) {
	type cost struct{ walBytes, walAppends, manifestBytes, walSyncs int64 }
	measure := func(k int, async bool) cost {
		db, err := dataspread.OpenFileDB(filepath.Join(t.TempDir(), "cost.dsdb"))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		cols := make([]rdbms.Column, 256)
		for i := range cols {
			cols[i] = rdbms.Column{Name: fmt.Sprintf("c%d", i), Type: rdbms.DTText}
		}
		for i := 0; i < k; i++ {
			if _, err := db.CreateTable(fmt.Sprintf("wide%02d", i), rdbms.NewSchema(cols...)); err != nil {
				t.Fatal(err)
			}
		}
		s := dataspread.NewSheet("s")
		for r := 1; r <= 10; r++ {
			for c := 1; c <= 10; c++ {
				s.SetValue(r, c, dataspread.Number(float64(10*r+c)))
			}
		}
		eng, err := core.Open(db, "s", s, "rom", core.Options{AsyncRecalc: async})
		if err != nil {
			t.Fatal(err)
		}
		// The first edit settles what a fresh store still has to write once.
		if err := eng.Set(5, 5, "11"); err != nil {
			t.Fatal(err)
		}
		if err := eng.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		before := db.Pool().Stats()
		if err := eng.Set(5, 5, "22"); err != nil {
			t.Fatal(err)
		}
		if err := eng.Save(); err != nil {
			t.Fatal(err)
		}
		// Close drains the scheduler and saves once more.
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		after := db.Pool().Stats()
		return cost{
			walBytes:      after.WALBytes - before.WALBytes,
			walAppends:    after.WALAppends - before.WALAppends,
			manifestBytes: after.ManifestBytes - before.ManifestBytes,
			walSyncs:      after.WALSyncs - before.WALSyncs,
		}
	}
	for _, async := range []bool{false, true} {
		small, large := measure(0, async), measure(40, async)
		if small != large {
			t.Errorf("async=%v: one Set + Save costs %+v beside no tables, %+v beside 40 tables of 256 columns", async, small, large)
		}
		if small.walAppends == 0 || small.walSyncs != 1 {
			t.Errorf("async=%v: one Set + Save cost %+v, want some pages and exactly one fsync", async, small)
		}
	}
}

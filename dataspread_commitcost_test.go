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
// WAL bytes, WAL page records and manifest bytes of the edit are the same
// numbers (with one writer they repeat exactly). The numbers themselves are
// the log's byte gate: the first Set + Save after a checkpoint logs the
// cell's page as one image, the second — same page, now in the log — logs
// what changed, under 512 bytes in all. And on an async-recalc engine an edit
// with no dependents costs one WAL fsync in all: the scheduler's drain-save
// after it finds nothing changed and commits nothing.
func TestCommitCostIgnoresCatalogSize(t *testing.T) {
	type cost struct{ walBytes, walAppends, walDeltas, manifestBytes, walSyncs int64 }
	measure := func(k int, async bool) (first, second cost) {
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
		setAndSave := func(input string, then func() error) cost {
			before := db.Pool().Stats()
			if err := eng.Set(5, 5, input); err != nil {
				t.Fatal(err)
			}
			if err := eng.Save(); err != nil {
				t.Fatal(err)
			}
			if err := then(); err != nil {
				t.Fatal(err)
			}
			after := db.Pool().Stats()
			return cost{
				walBytes:      after.WALBytes - before.WALBytes,
				walAppends:    after.WALAppends - before.WALAppends,
				walDeltas:     after.WALDeltas - before.WALDeltas,
				manifestBytes: after.ManifestBytes - before.ManifestBytes,
				walSyncs:      after.WALSyncs - before.WALSyncs,
			}
		}
		first = setAndSave("22", eng.Drain)
		// Close drains the scheduler and saves once more.
		second = setAndSave("33", eng.Close)
		return first, second
	}
	for _, async := range []bool{false, true} {
		first, second := measure(0, async)
		firstLarge, secondLarge := measure(40, async)
		if first != firstLarge || second != secondLarge {
			t.Errorf("async=%v: Set + Save twice costs %+v, %+v beside no tables, %+v, %+v beside 40 tables of 256 columns",
				async, first, second, firstLarge, secondLarge)
		}
		if first.walAppends != 1 || first.walDeltas != 0 || first.walSyncs != 1 {
			t.Errorf("async=%v: first Set + Save after the checkpoint cost %+v, want one page image and one fsync", async, first)
		}
		if second.walAppends != 1 || second.walDeltas != 1 || second.walSyncs != 1 || second.walBytes >= 512 {
			t.Errorf("async=%v: second Set + Save on the page cost %+v, want one delta, one fsync, under 512 bytes", async, second)
		}
	}
}

package model

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"dataspread/internal/hybrid"
	"dataspread/internal/posmap"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// makePropStore opens a file-backed database with one region of the given
// kind (rows 3..14 × cols 2..7) plus a few overflow cells.
func makePropStore(t *testing.T, path, kind, scheme string) (*rdbms.DB, *HybridStore) {
	t.Helper()
	db, err := rdbms.OpenFile(path, rdbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hs, err := NewHybridStore(db, "hs", scheme)
	if err != nil {
		t.Fatal(err)
	}
	rect := sheet.NewRange(3, 2, 14, 7)
	if kind == "tom" {
		schema := rdbms.Schema{}
		for j := 0; j < rect.Cols(); j++ {
			schema.Cols = append(schema.Cols, rdbms.Column{Name: fmt.Sprintf("a%d", j), Type: rdbms.DTText})
		}
		table, err := db.CreateTable("linked", schema)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rect.Rows(); i++ {
			if _, err := table.Insert(make(rdbms.Row, rect.Cols())); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := hs.LinkTable(rect, table, false); err != nil {
			t.Fatal(err)
		}
	} else {
		kinds := map[string]hybrid.Kind{"rom": hybrid.ROM, "com": hybrid.COM, "rcv": hybrid.RCV}
		if _, err := hs.AddRegion(rect, kinds[kind]); err != nil {
			t.Fatal(err)
		}
	}
	for r := rect.From.Row; r <= rect.To.Row; r++ {
		for c := rect.From.Col; c <= rect.To.Col; c++ {
			if err := setCell(hs, r, c, sheet.Cell{Value: sheet.Str(fmt.Sprintf("v%d_%d", r, c))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, rc := range [][2]int{{1, 9}, {18, 1}, {20, 10}} {
		if err := setCell(hs, rc[0], rc[1], sheet.Cell{Value: sheet.Str(fmt.Sprintf("ov%d_%d", rc[0], rc[1]))}); err != nil {
			t.Fatal(err)
		}
	}
	return db, hs
}

// TestIncrementalManifestProperty is the randomized persistence property:
// for every translator kind × positional scheme, the same edit sequence —
// cell writes, batched structural edits, saves at random points — applied
// to one store persisted incrementally (dirty segments + deltas) and one
// persisted with full rewrites must reload to cell-for-cell identical
// sheets. Dirty tracking can never skip a changed segment.
func TestIncrementalManifestProperty(t *testing.T) {
	const steps = 70
	bounds := sheet.NewRange(1, 1, 32, 16)
	for _, scheme := range posmap.Schemes() {
		for _, kind := range []string{"rom", "com", "rcv", "tom"} {
			t.Run(kind+"/"+scheme, func(t *testing.T) {
				dir := t.TempDir()
				pathA := filepath.Join(dir, "inc.dsdb")
				pathB := filepath.Join(dir, "full.dsdb")
				dbA, hsA := makePropStore(t, pathA, kind, scheme)
				dbB, hsB := makePropStore(t, pathB, kind, scheme)
				rng := rand.New(rand.NewSource(int64(len(kind))*1000 + int64(len(scheme))))

				apply := func(step int, fn func(h *HybridStore) error) {
					errA := fn(hsA)
					errB := fn(hsB)
					if (errA == nil) != (errB == nil) {
						t.Fatalf("step %d: divergent outcome: inc=%v full=%v", step, errA, errB)
					}
				}
				for step := 0; step < steps; step++ {
					switch op := rng.Intn(10); {
					case op < 4: // cell write
						r, c := rng.Intn(20)+1, rng.Intn(10)+1
						cell := sheet.Cell{Value: sheet.Str(fmt.Sprintf("s%d", step))}
						if rng.Intn(6) == 0 {
							cell = sheet.Cell{} // blank
						}
						apply(step, func(h *HybridStore) error { return setCell(h, r, c, cell) })
					case op < 6: // batched row insert
						at, n := rng.Intn(20), rng.Intn(3)+1
						apply(step, func(h *HybridStore) error { return h.InsertRowsAfter(at, n) })
					case op < 7: // batched row delete
						at, n := rng.Intn(18)+1, rng.Intn(2)+1
						apply(step, func(h *HybridStore) error { return h.DeleteRows(at, n) })
					case op < 8 && kind != "tom": // column insert (fixed-arity TOM excluded)
						at, n := rng.Intn(10), rng.Intn(2)+1
						apply(step, func(h *HybridStore) error { return h.InsertColumnsAfter(at, n) })
					case op < 9 && kind != "tom": // column delete
						at := rng.Intn(8) + 1
						apply(step, func(h *HybridStore) error { return h.DeleteColumns(at, 1) })
					default: // save at a random point
						if err := hsA.SaveManifest(); err != nil {
							t.Fatal(err)
						}
						if err := dbA.FlushWAL(); err != nil {
							t.Fatal(err)
						}
						if err := hsB.SaveManifestFull(); err != nil {
							t.Fatal(err)
						}
						if err := dbB.FlushWAL(); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := hsA.SaveManifest(); err != nil {
					t.Fatal(err)
				}
				if err := dbA.Close(); err != nil {
					t.Fatal(err)
				}
				if err := hsB.SaveManifestFull(); err != nil {
					t.Fatal(err)
				}
				if err := dbB.Close(); err != nil {
					t.Fatal(err)
				}

				dbA2, err := rdbms.OpenFile(pathA, rdbms.Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer dbA2.Close()
				dbB2, err := rdbms.OpenFile(pathB, rdbms.Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer dbB2.Close()
				loadedA, err := LoadHybridStore(dbA2, "hs")
				if err != nil {
					t.Fatalf("incremental load: %v", err)
				}
				loadedB, err := LoadHybridStore(dbB2, "hs")
				if err != nil {
					t.Fatalf("full load: %v", err)
				}
				gridA, err := loadedA.GetCells(bounds)
				if err != nil {
					t.Fatal(err)
				}
				gridB, err := loadedB.GetCells(bounds)
				if err != nil {
					t.Fatal(err)
				}
				assertSameGrid(t, kind+"/"+scheme, gridA, gridB)
			})
		}
	}
}

// TestIncrementalManifestDeltaBytes: after a full save, a small structural
// edit must persist through the delta path — far fewer manifest bytes than
// a forced full rewrite of the same store.
func TestIncrementalManifestDeltaBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "delta.dsdb")
	db, err := rdbms.OpenFile(path, rdbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	hs, err := NewHybridStore(db, "hs", "hierarchical")
	if err != nil {
		t.Fatal(err)
	}
	rom, err := hs.AddRegion(sheet.NewRange(1, 1, 5000, 4), hybrid.ROM)
	if err != nil {
		t.Fatal(err)
	}
	_ = rom
	if err := hs.SaveManifest(); err != nil {
		t.Fatal(err)
	}
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}

	stats0 := db.Pool().Stats()
	if err := hs.InsertRowsAfter(2500, 10); err != nil {
		t.Fatal(err)
	}
	if err := hs.SaveManifest(); err != nil {
		t.Fatal(err)
	}
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	incBytes := db.Pool().Stats().ManifestBytes - stats0.ManifestBytes

	stats1 := db.Pool().Stats()
	if err := hs.SaveManifestFull(); err != nil {
		t.Fatal(err)
	}
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	fullBytes := db.Pool().Stats().ManifestBytes - stats1.ManifestBytes

	if incBytes <= 0 || fullBytes <= 0 {
		t.Fatalf("counters did not move: inc=%d full=%d", incBytes, fullBytes)
	}
	if fullBytes < 2*incBytes {
		t.Errorf("delta save wrote %d manifest bytes vs %d for full rewrite (want <1/2)", incBytes, fullBytes)
	}
	// The delta key must exist after the incremental save, and vanish after
	// the full rewrite... the full rewrite above already deleted it.
	if _, ok, err := db.MetaValue(hs.segKey(1, "delta")); ok || err != nil {
		t.Errorf("delta key survived a full rewrite (err %v)", err)
	}
}

// TestDeltaRatioTriggersFullRewrite: once the op log outgrows its ratio
// bound the next save must fall back to a full order rewrite and clear the
// delta key — the log can never grow past a fixed fraction of a dump.
func TestDeltaRatioTriggersFullRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ratio.dsdb")
	db, err := rdbms.OpenFile(path, rdbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	hs, err := NewHybridStore(db, "hs", "hierarchical")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hs.AddRegion(sheet.NewRange(1, 1, 100, 3), hybrid.ROM); err != nil {
		t.Fatal(err)
	}
	if err := hs.SaveManifest(); err != nil {
		t.Fatal(err)
	}
	// A small edit goes through the delta.
	if err := hs.InsertRowsAfter(50, 2); err != nil {
		t.Fatal(err)
	}
	if err := hs.SaveManifest(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := db.MetaValue(hs.segKey(1, "delta")); !ok || err != nil {
		t.Fatalf("small edit did not persist a delta (err %v)", err)
	}
	// Outgrow the ratio bound (len/8 + 64 units) one row at a time.
	for i := 0; i < 200; i++ {
		if err := hs.InsertRowsAfter(10, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := hs.SaveManifest(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := db.MetaValue(hs.segKey(1, "delta")); ok || err != nil {
		t.Fatalf("outgrown op log still persisted as a delta (want full rewrite; err %v)", err)
	}
	// And the rewritten store still reloads correctly.
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadHybridStore(db, "hs")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.regions[0].rect.Rows(), 100+2+200; got != want {
		t.Fatalf("reloaded region has %d rows, want %d", got, want)
	}
}

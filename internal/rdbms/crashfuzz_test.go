package rdbms

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCrashFuzzWALTruncation is the crash-injection property test: write a
// sequence of committed batches, crash, truncate the WAL
// at random offsets (simulating a torn write at any point), and assert that
// recovery always converges to an exact committed prefix of the history —
// never a partial batch, never uncommitted data, never a corrupt database.
func TestCrashFuzzWALTruncation(t *testing.T) {
	const (
		batches      = 8
		rowsPerBatch = 120
		trials       = 24
	)
	dir := t.TempDir()
	path := filepath.Join(dir, "fuzz.dsdb")
	db, err := OpenFile(path, Options{
		AutoCheckpointPages: -1, // keep every batch in the WAL
	})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := db.CreateTable("t", NewSchema(
		Column{Name: "batch", Type: DTInt},
		Column{Name: "v", Type: DTInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < batches; b++ {
		for i := 0; i < rowsPerBatch; i++ {
			if _, err := tab.Insert(Row{Int(int64(b)), Int(int64(b*rowsPerBatch + i))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.FlushWAL(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}

	// Snapshot the post-crash state; every trial starts from it.
	walPath := path + ".wal"
	snapData := filepath.Join(dir, "snap.dsdb")
	snapWAL := filepath.Join(dir, "snap.wal")
	copyFile(t, path, snapData)
	copyFile(t, walPath, snapWAL)
	walSt, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	walSize := walSt.Size()
	if walSize == 0 {
		t.Fatal("WAL empty after crash; nothing to fuzz")
	}

	rng := rand.New(rand.NewSource(20180417))
	for trial := 0; trial < trials; trial++ {
		cut := rng.Int63n(walSize + 1) // 0..walSize inclusive
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			copyFile(t, snapData, path)
			copyFile(t, snapWAL, walPath)
			if err := os.Truncate(walPath, cut); err != nil {
				t.Fatal(err)
			}
			db, err := OpenFile(path, Options{})
			if err != nil {
				t.Fatalf("recovery open failed: %v", err)
			}
			defer db.SimulateCrash()
			tab := db.Table("t")
			rows := 0
			if tab != nil {
				rows = tab.RowCount()
			}
			// Property 1: the row count is an exact batch prefix.
			if rows%rowsPerBatch != 0 || rows > batches*rowsPerBatch {
				t.Fatalf("recovered %d rows: not a committed batch prefix", rows)
			}
			// Property 2: the recovered contents are exactly batches
			// 0..k-1, each complete, values intact.
			if tab != nil {
				k := rows / rowsPerBatch
				seen := make(map[int64]bool, rows)
				tab.Scan(func(_ RID, r Row) bool {
					b, v := r[0].Int64(), r[1].Int64()
					if b >= int64(k) {
						t.Fatalf("row from uncommitted batch %d leaked (prefix %d)", b, k)
					}
					if v/rowsPerBatch != b {
						t.Fatalf("row (%d,%d) inconsistent", b, v)
					}
					seen[v] = true
					return true
				})
				if len(seen) != rows {
					t.Fatalf("duplicate rows after redo: %d distinct of %d", len(seen), rows)
				}
			}
			// Property 3: whatever survived is checksum-clean.
			if err := db.VerifyChecksums(); err != nil {
				t.Fatalf("corrupt page after recovery: %v", err)
			}
		})
	}
}

// TestCrashFuzzSegmentedManifests extends the torn-tail property to runs
// whose batches write segmented/delta-style manifest state through the
// out-of-line meta KV: every batch rewrites a small root, appends to (or,
// every fourth batch, rewrites and clears) a base/delta key pair, and
// deletes a per-batch scratch key from two batches earlier. Recovery from
// any WAL truncation must land on the meta state of an exact batch prefix
// — never a half-applied delta, never a base without its matching delta
// generation, never a resurrected deleted key.
func TestCrashFuzzSegmentedManifests(t *testing.T) {
	const (
		batches      = 10
		rowsPerBatch = 40
		trials       = 24
	)
	dir := t.TempDir()
	path := filepath.Join(dir, "segfuzz.dsdb")
	db, err := OpenFile(path, Options{
		AutoCheckpointPages: -1, // keep every batch in the WAL
	})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := db.CreateTable("t", NewSchema(
		Column{Name: "batch", Type: DTInt},
		Column{Name: "v", Type: DTInt},
	))
	if err != nil {
		t.Fatal(err)
	}

	// expect[k] is the exact meta state after batches 0..k-1 committed.
	expect := make([]map[string][]byte, batches+1)
	expect[0] = map[string][]byte{}
	live := map[string][]byte{}
	gen := 0
	var delta []byte
	for b := 0; b < batches; b++ {
		for i := 0; i < rowsPerBatch; i++ {
			if _, err := tab.Insert(Row{Int(int64(b)), Int(int64(b*rowsPerBatch + i))}); err != nil {
				t.Fatal(err)
			}
		}
		if b%4 == 3 {
			// Base rewrite: new generation, delta cleared — both must land
			// (or not land) together.
			gen++
			base := []byte(fmt.Sprintf(`{"gen":%d,"rows":%d}`, gen, (b+1)*rowsPerBatch))
			db.PutMeta("seg:base", base)
			db.DeleteMeta("seg:delta")
			live["seg:base"] = base
			delete(live, "seg:delta")
			delta = nil
		} else {
			delta = append(delta, []byte(fmt.Sprintf(`[%d,%d]`, gen, b))...)
			db.PutMeta("seg:delta", delta)
			live["seg:delta"] = append([]byte(nil), delta...)
		}
		root := []byte(fmt.Sprintf(`{"version":3,"batch":%d,"gen":%d}`, b, gen))
		db.PutMeta("seg:root", root)
		live["seg:root"] = root
		scratch := fmt.Sprintf("scratch:%d", b)
		db.PutMeta(scratch, []byte{byte(b)})
		live[scratch] = []byte{byte(b)}
		if old := fmt.Sprintf("scratch:%d", b-2); b >= 2 {
			db.DeleteMeta(old)
			delete(live, old)
		}
		if err := db.FlushWAL(); err != nil {
			t.Fatal(err)
		}
		snap := make(map[string][]byte, len(live))
		for k, v := range live {
			snap[k] = append([]byte(nil), v...)
		}
		expect[b+1] = snap
	}
	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}

	walPath := path + ".wal"
	snapData := filepath.Join(dir, "snap.dsdb")
	snapWAL := filepath.Join(dir, "snap.wal")
	copyFile(t, path, snapData)
	copyFile(t, walPath, snapWAL)
	walSt, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if walSt.Size() == 0 {
		t.Fatal("WAL empty after crash; nothing to fuzz")
	}

	rng := rand.New(rand.NewSource(20260728))
	for trial := 0; trial < trials; trial++ {
		cut := rng.Int63n(walSt.Size() + 1)
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			copyFile(t, snapData, path)
			copyFile(t, snapWAL, walPath)
			if err := os.Truncate(walPath, cut); err != nil {
				t.Fatal(err)
			}
			db, err := OpenFile(path, Options{})
			if err != nil {
				t.Fatalf("recovery open failed: %v", err)
			}
			defer db.SimulateCrash()
			rows := 0
			if tab := db.Table("t"); tab != nil {
				rows = tab.RowCount()
			}
			if rows%rowsPerBatch != 0 || rows > batches*rowsPerBatch {
				t.Fatalf("recovered %d rows: not a committed batch prefix", rows)
			}
			k := rows / rowsPerBatch
			want := expect[k]
			for key, val := range want {
				got, ok, err := db.MetaValue(key)
				if err != nil || !ok {
					t.Fatalf("prefix %d: meta %q missing after recovery: %v", k, key, err)
				}
				if !bytes.Equal(got, val) {
					t.Fatalf("prefix %d: meta %q = %q, want %q (torn manifest state)", k, key, got, val)
				}
			}
			for _, key := range db.MetaKeys("") {
				if _, ok := want[key]; !ok {
					t.Fatalf("prefix %d: meta %q leaked from an uncommitted batch", k, key)
				}
			}
			if err := db.VerifyChecksums(); err != nil {
				t.Fatalf("corrupt page after recovery: %v", err)
			}
		})
	}
}

// TestCrashFuzzCatalogDDL is the torn-tail property for the split catalog:
// batches interleave CreateTable, AddColumn, CreateIndex and DropTable with
// inserts, so each commit carries root changes together with new, rewritten
// and deleted schema records (some longer than a page). The WAL is cut at
// every batch boundary and at random offsets inside batches; each reopen
// must land on the catalog of exactly the last whole batch — every table
// with its columns, indexes and rows — and never on a table without its
// schema record or a schema record without its table (either fails the
// open).
func TestCrashFuzzCatalogDDL(t *testing.T) {
	const (
		batches      = 12
		rowsPerBatch = 30
		trials       = 24
	)
	type tableState struct {
		cols    []string
		indexed bool
		rows    int
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "ddlfuzz.dsdb")
	db, err := OpenFile(path, Options{AutoCheckpointPages: -1, WALSegmentBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	name := func(b int) string { return fmt.Sprintf("d%02d", b) }

	// expect[k] is the catalog after batches 0..k-1; ends[k] the WAL length.
	live := map[string]*tableState{}
	expect := []map[string]tableState{{}}
	ends := []int64{0}
	for b := 0; b < batches; b++ {
		// A new table; every fourth one has a schema record of several pages.
		ncols := 3 + b%3
		if b%4 == 1 {
			ncols = 1500
		}
		cols := []Column{{Name: "id", Type: DTInt}}
		for len(cols) < ncols {
			cols = append(cols, Column{Name: fmt.Sprintf("c%d", len(cols)), Type: DTText})
		}
		tab, err := db.CreateTable(name(b), NewSchema(cols...))
		must(err)
		st := &tableState{rows: rowsPerBatch}
		for _, c := range cols {
			st.cols = append(st.cols, c.Name)
		}
		live[name(b)] = st
		for i := 0; i < rowsPerBatch; i++ {
			row := make(Row, ncols)
			row[0] = Int(int64(i))
			_, err := tab.Insert(row)
			must(err)
		}
		if b >= 1 {
			must(db.Table(name(b - 1)).AddColumn(Column{Name: "late", Type: DTInt}))
			live[name(b-1)].cols = append(live[name(b-1)].cols, "late")
		}
		if b >= 2 {
			must(db.Table(name(b - 2)).CreateIndex("id"))
			live[name(b-2)].indexed = true
		}
		if b >= 3 {
			must(db.DropTable(name(b - 3)))
			delete(live, name(b-3))
		}
		must(db.FlushWAL())
		snap := make(map[string]tableState, len(live))
		for k, v := range live {
			snap[k] = tableState{cols: append([]string(nil), v.cols...), indexed: v.indexed, rows: v.rows}
		}
		expect = append(expect, snap)
		ends = append(ends, db.disk.walSize)
	}
	must(db.SimulateCrash())

	walPath := path + ".wal"
	snapData := filepath.Join(dir, "snap.dsdb")
	snapWAL := filepath.Join(dir, "snap.wal")
	copyFile(t, path, snapData)
	copyFile(t, walPath, snapWAL)

	cuts := append([]int64(nil), ends...)
	rng := rand.New(rand.NewSource(20260926))
	for i := 0; i < trials; i++ {
		cuts = append(cuts, rng.Int63n(ends[batches]+1))
	}
	for _, cut := range cuts {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			copyFile(t, snapData, path)
			copyFile(t, snapWAL, walPath)
			if err := os.Truncate(walPath, cut); err != nil {
				t.Fatal(err)
			}
			db, err := OpenFile(path, Options{})
			if err != nil {
				t.Fatalf("recovery open failed: %v", err)
			}
			defer db.SimulateCrash()
			// The last whole batch is the last one that ends at or before
			// the cut.
			k := 0
			for k < batches && ends[k+1] <= cut {
				k++
			}
			want := expect[k]
			if got := db.TableNames(); len(got) != len(want) {
				t.Fatalf("prefix %d: tables %v, want %d of them", k, got, len(want))
			}
			for tname, st := range want {
				tab := db.Table(tname)
				if tab == nil {
					t.Fatalf("prefix %d: table %s missing", k, tname)
				}
				var cols []string
				for _, c := range tab.Schema.Cols {
					cols = append(cols, c.Name)
				}
				if fmt.Sprint(cols) != fmt.Sprint(st.cols) {
					t.Fatalf("prefix %d: table %s has %d columns ending %v, want %d ending %v",
						k, tname, len(cols), cols[len(cols)-1], len(st.cols), st.cols[len(st.cols)-1])
				}
				if _, indexed := tab.indexes["id"]; indexed != st.indexed {
					t.Fatalf("prefix %d: table %s indexed = %v, want %v", k, tname, indexed, st.indexed)
				}
				if tab.RowCount() != st.rows {
					t.Fatalf("prefix %d: table %s has %d rows, want %d", k, tname, tab.RowCount(), st.rows)
				}
				if st.indexed {
					n := 0
					_, err := tab.IndexScan("id", 0, rowsPerBatch, func(RID, Row) bool { n++; return true })
					if err != nil || n != st.rows {
						t.Fatalf("prefix %d: index of %s reaches %d rows (%v), want %d", k, tname, n, err, st.rows)
					}
				}
			}
			for key := range db.metaLoc {
				if strings.HasPrefix(key, schemaKeyPrefix) {
					if _, ok := want[key[len(schemaKeyPrefix):]]; !ok {
						t.Fatalf("prefix %d: schema record %q has no table", k, key)
					}
				}
			}
			if err := db.VerifyChecksums(); err != nil {
				t.Fatalf("corrupt page after recovery: %v", err)
			}
		})
	}
}

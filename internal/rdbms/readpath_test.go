package rdbms

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// datumEq compares datums structurally (unlike Datum.Equal, which follows
// SQL semantics where NULL never equals NULL).
func datumEq(a, b Datum) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	return a.Equal(b)
}

// projRow builds a test row with a mix of datum types.
func projRow(i, cols int) Row {
	r := make(Row, cols)
	for c := range r {
		switch c % 5 {
		case 0:
			r[c] = Int(int64(i*1000 + c))
		case 1:
			r[c] = Text(fmt.Sprintf("v%d.%d", i, c))
		case 2:
			r[c] = Float(float64(i) + float64(c)/100)
		case 3:
			r[c] = Bool(i%2 == 0)
		default:
			r[c] = Null
		}
	}
	return r
}

func TestDecodeRowColsAgainstFullDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		cols := rng.Intn(30) + 1
		row := projRow(trial, cols)
		buf := encodeRow(nil, row)
		full, err := decodeRow(buf, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Random ascending projection.
		var proj []int
		for c := 0; c < cols+3; c++ { // +3: indexes past the encoding pad NULL
			if rng.Intn(2) == 0 {
				proj = append(proj, c)
			}
		}
		vals, err := decodeRowColsInto(buf, proj, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != len(proj) {
			t.Fatalf("got %d values for %d projected", len(vals), len(proj))
		}
		for k, c := range proj {
			want := Null
			if c < len(full) {
				want = full[c]
			}
			if !datumEq(vals[k], want) {
				t.Fatalf("trial %d: attr %d = %v, want %v", trial, c, vals[k], want)
			}
		}
	}
}

func TestDecodeRowColsSkipsMaterialization(t *testing.T) {
	const cols = 100
	row := projRow(1, cols)
	buf := encodeRow(nil, row)
	proj := []int{3, 47, 90}
	vals, err := decodeRowColsInto(buf, proj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(vals); got != len(proj) {
		t.Fatalf("decoded %d attrs, want %d", got, len(proj))
	}
	full, err := decodeRow(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(full); got != cols {
		t.Fatalf("full decode counted %d attrs, want %d", got, cols)
	}
	// The twenty text attributes the projection skips are stepped over, never
	// materialized: into a reused row the projected decode allocates nothing,
	// where the full one allocates a string for each.
	if n := testing.AllocsPerRun(100, func() { vals, _ = decodeRowColsInto(buf, proj, vals) }); n != 0 {
		t.Fatalf("the projected decode allocated %v times, want none", n)
	}
	if n := testing.AllocsPerRun(100, func() { full, _ = decodeRow(buf, full) }); n < cols/5 {
		t.Fatalf("the full decode allocated %v times, want one per text attribute", n)
	}
}

// scanTable loads a table with n rows and returns the RIDs in insert order.
func scanTable(t testing.TB, db *DB, name string, n, cols int) (*Table, []RID) {
	t.Helper()
	schema := Schema{}
	for c := 0; c < cols; c++ {
		schema.Cols = append(schema.Cols, Column{Name: fmt.Sprintf("c%d", c), Type: DTText})
	}
	tab, err := db.CreateTable(name, schema)
	if err != nil {
		t.Fatal(err)
	}
	rids := make([]RID, n)
	for i := 0; i < n; i++ {
		r := make(Row, cols)
		for c := range r {
			r[c] = Text(fmt.Sprintf("r%dc%d", i, c))
		}
		rid, err := tab.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	return tab, rids
}

// TestGetManyPinsEachPageOnce is the page-pin half of the batched-read
// acceptance: a GetMany over a contiguous row range must fetch each distinct
// heap page from the buffer pool exactly once, where the per-row Get path
// pays one pool fetch per row.
func TestGetManyPinsEachPageOnce(t *testing.T) {
	db := Open(Options{BufferPoolPages: 1 << 12})
	tab, rids := scanTable(t, db, "t", 2000, 8)
	batch := rids[100:1100]
	distinct := make(map[PageID]bool)
	for _, rid := range batch {
		distinct[rid.Page] = true
	}
	db.Pool().ResetStats()
	got := 0
	err := tab.GetMany(batch, []int{0}, func(i int, vals Row) error {
		got++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != len(batch) {
		t.Fatalf("visited %d rows, want %d", got, len(batch))
	}
	st := db.Pool().Stats()
	fetches := st.PoolHits + st.PoolMisses
	if fetches != int64(len(distinct)) {
		t.Fatalf("pool fetches = %d, want one per distinct page (%d)", fetches, len(distinct))
	}
}

// TestGetManyProjectionAndOrder checks callback indexes map to input
// positions even though rids are visited in page order, and that only
// projected attributes are materialized.
func TestGetManyProjectionAndOrder(t *testing.T) {
	db := Open(Options{})
	tab, rids := scanTable(t, db, "t", 500, 12)
	// Shuffle the input: GetMany reorders by page internally but must
	// report input ordinals.
	shuffled := append([]RID(nil), rids...)
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	index := make(map[RID]int, len(rids))
	for i, rid := range rids {
		index[rid] = i
	}
	proj := []int{2, 9}
	seen, decoded := 0, 0
	err := tab.GetMany(shuffled, proj, func(i int, vals Row) error {
		seen++
		decoded += len(vals)
		orig := index[shuffled[i]]
		if want := fmt.Sprintf("r%dc2", orig); vals[0].Str() != want {
			return fmt.Errorf("i=%d: vals[0] = %q, want %q", i, vals[0].Str(), want)
		}
		if want := fmt.Sprintf("r%dc9", orig); vals[1].Str() != want {
			return fmt.Errorf("i=%d: vals[1] = %q, want %q", i, vals[1].Str(), want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(rids) {
		t.Fatalf("visited %d, want %d", seen, len(rids))
	}
	if got, want := decoded, len(rids)*len(proj); got != want {
		t.Fatalf("decoded %d attrs, want %d (projection pushdown broken)", got, want)
	}
}

// TestGetManyChunkedRows covers the oversized-row fallback: rows larger than
// a page reassemble through the chunk chain inside a batch.
func TestGetManyChunkedRows(t *testing.T) {
	db := Open(Options{})
	tab, err := db.CreateTable("t", NewSchema(
		Column{Name: "a", Type: DTText}, Column{Name: "b", Type: DTText}))
	if err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("x", PageSize*2) // forces chunking
	var rids []RID
	for i := 0; i < 8; i++ {
		r := Row{Text(fmt.Sprintf("small%d", i)), Text("s")}
		if i%3 == 0 {
			r = Row{Text(fmt.Sprintf("head%d", i)), Text(big)}
		}
		rid, err := tab.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	err = tab.GetMany(rids, []int{0, 1}, func(i int, vals Row) error {
		if i%3 == 0 {
			if vals[0].Str() != fmt.Sprintf("head%d", i) || len(vals[1].Str()) != len(big) {
				return fmt.Errorf("chunked row %d mismatch", i)
			}
		} else if vals[0].Str() != fmt.Sprintf("small%d", i) {
			return fmt.Errorf("row %d = %q", i, vals[0].Str())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGetManyStopsAtLastWantedChunk: a projected read of a chained tuple
// fetches its chunks only up to the one that holds the last wanted attribute
// whole — a text datum straddling a chunk boundary included — and returns
// what a full decode does; a projection past the tuple's end reads the whole
// chain and pads NULL. Every case reads through a cold pool, so its misses
// are the chunks it read (each chunk has a page of its own).
func TestGetManyStopsAtLastWantedChunk(t *testing.T) {
	const chunkData = maxInline - 1 - chunkPtrSize
	const n = 3000
	row := make(Row, n)
	for i := range row {
		row[i] = Float(float64(i) + 0.5)
	}
	// The straddler starts 50 bytes before the first chunk boundary.
	s := (chunkData - 50 - uvarintLen(n)) / 9
	row[s] = Text(strings.Repeat("s", 100))
	ends := make([]int, n) // ends[i]: the byte offset just past attribute i
	for i, off := 0, uvarintLen(n); i < n; i++ {
		off += encodedSize(row[i:i+1]) - 1
		ends[i] = off
	}
	if start := ends[s] - 102; start >= chunkData || ends[s] <= chunkData {
		t.Fatalf("attribute %d spans bytes %d-%d, not the boundary at %d", s, start, ends[s], chunkData)
	}
	chunks := (encodedSize(row) + chunkData - 1) / chunkData
	disk := memFilePager(t)
	h := newHeapFile(disk, newBufferPool(disk, 64))
	rid, err := h.insert(row)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		proj  []int
		reads int
	}{
		{"start", []int{0, 1}, 1},
		{"straddler", []int{s}, 2},
		{"before the straddler", []int{s - 1}, 1},
		{"middle", []int{3, n / 2}, (ends[n/2]-1)/chunkData + 1},
		{"end", []int{0, s, n - 1}, chunks},
		{"past the end", []int{2, n + 4}, chunks},
	} {
		h.pool.flushDirty()
		h.pool = newBufferPool(disk, 64)
		err := h.getMany([]RID{rid}, c.proj, func(_ int, vals Row) error {
			for k, a := range c.proj {
				if want := attrAt(row, a); !datumEq(vals[k], want) {
					return fmt.Errorf("attribute %d reads %v, want %v", a, vals[k], want)
				}
			}
			return nil
		})
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if misses := h.pool.Stats().PoolMisses; misses != int64(c.reads) {
			t.Errorf("%s: projection %v read %d of %d chunks, want %d", c.name, c.proj, misses, chunks, c.reads)
		}
	}
}

func TestGetManyMissingTuple(t *testing.T) {
	db := Open(Options{})
	tab, rids := scanTable(t, db, "t", 10, 2)
	if err := tab.Delete(rids[4]); err != nil {
		t.Fatal(err)
	}
	err := tab.GetMany(rids, []int{0, 1}, func(int, Row) error { return nil })
	if err == nil {
		t.Fatal("GetMany over a tombstoned rid should error, not read blank")
	}
}

// concurrentReadWorkload hammers Get/GetMany/Scan from several goroutines.
// Run under -race it proves the pool and pager read paths are safe for
// concurrent readers.
func concurrentReadWorkload(t *testing.T, db *DB, poolPages int) {
	t.Helper()
	tab, rids := scanTable(t, db, "conc", 3000, 6)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for it := 0; it < 20; it++ {
				lo := rng.Intn(len(rids) - 500)
				batch := rids[lo : lo+500]
				err := tab.GetMany(batch, []int{1, 4}, func(i int, vals Row) error {
					orig := lo + i
					if want := fmt.Sprintf("r%dc1", orig); vals[0].Str() != want {
						return fmt.Errorf("worker %d: vals[0]=%q want %q", w, vals[0].Str(), want)
					}
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
				if r, err := tab.Get(rids[rng.Intn(len(rids))]); err != nil || len(r) != 6 {
					errs <- fmt.Errorf("worker %d: point Get = %v, %v", w, r, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	_ = poolPages
}

func TestConcurrentReadersInMemory(t *testing.T) {
	// A small pool forces concurrent evictions and reloads.
	db := Open(Options{BufferPoolPages: 8})
	concurrentReadWorkload(t, db, 8)
}

func TestConcurrentReadersFilePager(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	defer db.Close()
	concurrentReadWorkload(t, db, 1024)
}

// TestConcurrentReadersFilePagerCold reopens the data file so every page
// read goes through the checksummed file path, with a pool too small to
// retain the working set.
func TestConcurrentReadersFilePagerCold(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	tab, rids := scanTable(t, db, "cold", 2000, 4)
	_ = tab
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenFile(path, Options{BufferPoolPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tab2 := db2.Table("cold")
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for it := 0; it < 10; it++ {
				lo := rng.Intn(len(rids) - 300)
				err := tab2.GetMany(rids[lo:lo+300], []int{0}, func(i int, vals Row) error {
					if want := fmt.Sprintf("r%dc0", lo+i); vals[0].Str() != want {
						return fmt.Errorf("worker %d: %q want %q", w, vals[0].Str(), want)
					}
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := db2.Pool().Stats(); st.DiskReads == 0 {
		t.Fatalf("cold concurrent scan did no file reads: %+v", st)
	}
}

// TestDecodeTruncatedBool: a tuple cut off after a DTBool type byte must
// error, not panic (both decoders).
func TestDecodeTruncatedBool(t *testing.T) {
	buf := encodeRow(nil, Row{Bool(true)})
	trunc := buf[:len(buf)-1] // drop the bool payload byte
	if _, err := decodeRow(trunc, nil); err == nil {
		t.Fatal("decodeRow accepted a truncated bool")
	}
	if _, err := decodeRowColsInto(trunc, []int{0}, nil); err == nil {
		t.Fatal("decodeRowColsInto accepted a truncated bool")
	}
}

package rdbms

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestRowCodecRoundTrip(t *testing.T) {
	rows := []Row{
		{},
		{Null},
		{Int(0), Int(-1), Int(math.MaxInt64), Int(math.MinInt64)},
		{Float(3.14), Float(-0.0), Float(math.Inf(1))},
		{Text(""), Text("hello"), Text("with 'quotes' and \x00 bytes")},
		{Bool(true), Bool(false)},
		{Int(42), Null, Text("mixed"), Float(2.5), Bool(true)},
	}
	for _, r := range rows {
		buf := encodeRow(nil, r)
		if len(buf) != encodedSize(r) {
			t.Errorf("encodedSize(%v) = %d, actual %d", r, encodedSize(r), len(buf))
		}
		got, err := decodeRow(buf, nil)
		if err != nil {
			t.Fatalf("decodeRow(%v): %v", r, err)
		}
		if len(got) != len(r) {
			t.Fatalf("arity mismatch: %v vs %v", got, r)
		}
		for i := range r {
			if got[i].typ != r[i].typ || got[i].String() != r[i].String() {
				t.Errorf("col %d: got %v want %v", i, got[i], r[i])
			}
		}
	}
}

func TestRowCodecProperty(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool) bool {
		r := Row{Int(i), Float(fl), Text(s), Bool(b), Null}
		got, err := decodeRow(encodeRow(nil, r), nil)
		if err != nil || len(got) != 5 {
			return false
		}
		okF := got[1].Float64() == fl || (math.IsNaN(fl) && math.IsNaN(got[1].Float64()))
		return got[0].Int64() == i && okF && got[2].Str() == s && got[3].BoolVal() == b && got[4].IsNull()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// decodeRow into a reused row: a destination shorter than the tuple, one
// longer and holding stale datums, and nil all read what a fresh decode
// reads, text included, and a destination with the capacity is the one
// returned.
func TestDecodeRowIntoReusedRow(t *testing.T) {
	row := Row{Int(7), Text("alpha"), Null, Float(2.5), Bool(true), Text(""), Int(-3)}
	buf := encodeRow(nil, row)
	want, err := decodeRow(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	stale := Row{Text("stale"), Text("stale"), Int(1), Int(1), Int(1), Int(1), Int(1), Text("past the end"), Int(9)}
	for _, dst := range []Row{nil, make(Row, 2), stale} {
		got, err := decodeRow(buf, dst)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("into a %d-datum row: %v, want %v", len(dst), got, want)
		}
		if cap(dst) >= len(row) && &got[0] != &dst[0] {
			t.Fatalf("a %d-capacity destination was not reused", cap(dst))
		}
	}
}

// An update that outgrows inline storage into a chunk chain and shrinks back
// leaves the stored encoding byte-identical to a fresh encoding of the row at
// every step, and so does the row beside it that the same encoding buffer
// serves in between.
func TestHeapUpdateReusesEncodingBuffer(t *testing.T) {
	disk := memFilePager(t)
	h := newHeapFile(disk, newBufferPool(disk, 64))
	a, b := Row{Int(1), Text("a")}, Row{Int(2), Float(0.5)}
	ridA, err := h.insert(a)
	if err != nil {
		t.Fatal(err)
	}
	ridB, err := h.insert(b)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string, rid RID, want Row) {
		t.Helper()
		got, err := h.payload(mustFetch(t, h.pool, rid.Page).read(rid.Slot))
		if err != nil || string(got) != string(encodeRow(nil, want)) {
			t.Fatalf("%s: stored %d bytes (%v), want the %d-byte encoding of %v", when, len(got), err, encodedSize(want), want)
		}
	}
	for step, text := range []string{strings.Repeat("g", 3*PageSize), "short", strings.Repeat("h", PageSize), "s"} {
		a = Row{Int(int64(step)), Text(text)}
		if ridA, err = h.update(ridA, a); err != nil {
			t.Fatal(err)
		}
		b = Row{Int(int64(step)), Float(float64(step))}
		if ridB, err = h.update(ridB, b); err != nil {
			t.Fatal(err)
		}
		when := fmt.Sprintf("step %d (%d-byte text)", step, len(text))
		check(when, ridA, a)
		check(when, ridB, b)
	}
}

func TestDecodeRowCorrupt(t *testing.T) {
	bad := [][]byte{
		{},
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, // huge count
		{2, byte(DTInt)},          // truncated varint
		{1, byte(DTFloat), 1, 2},  // truncated float
		{1, byte(DTText), 5, 'a'}, // truncated text
		{1, 99},                   // unknown type
	}
	for _, b := range bad {
		if _, err := decodeRow(b, nil); err == nil {
			t.Errorf("decodeRow(%v) should fail", b)
		}
	}
}

func TestPageInsertReadDelete(t *testing.T) {
	p := &page{}
	p.init()
	s1, ok := p.insert([]byte("hello"))
	if !ok {
		t.Fatal("insert failed")
	}
	s2, ok := p.insert([]byte("world!"))
	if !ok {
		t.Fatal("insert failed")
	}
	if string(p.read(s1)) != "hello" || string(p.read(s2)) != "world!" {
		t.Fatal("read mismatch")
	}
	if p.liveTuples() != 2 {
		t.Fatalf("liveTuples = %d", p.liveTuples())
	}
	if !p.del(s1) {
		t.Fatal("del failed")
	}
	if p.read(s1) != nil {
		t.Fatal("tombstoned slot must read nil")
	}
	if p.del(s1) {
		t.Fatal("double delete must fail")
	}
	if p.liveTuples() != 1 {
		t.Fatalf("liveTuples after delete = %d", p.liveTuples())
	}
	// RIDs stay stable: s2 still reads.
	if string(p.read(s2)) != "world!" {
		t.Fatal("surviving tuple corrupted by delete")
	}
}

func TestPageFillsUp(t *testing.T) {
	p := &page{}
	p.init()
	payload := make([]byte, 100)
	n := 0
	for {
		if _, ok := p.insert(payload); !ok {
			break
		}
		n++
	}
	// 8192 bytes / (100 payload + 46 header + 4 slot) ≈ 54.
	if n < 50 || n > 60 {
		t.Fatalf("page held %d 100-byte tuples, expected ~54", n)
	}
	if p.freeSpace() < 0 {
		t.Fatal("negative free space")
	}
}

func TestPageReplace(t *testing.T) {
	p := &page{}
	p.init()
	s, _ := p.insert([]byte("0123456789"))
	other, _ := p.insert([]byte("neighbour"))
	if !p.replace(s, []byte("abcde")) {
		t.Fatal("shrinking replace must succeed")
	}
	if string(p.read(s)) != "abcde" {
		t.Fatalf("read after replace = %q", p.read(s))
	}
	if !p.replace(s, []byte("this is much longer than before")) {
		t.Fatal("growing replace must succeed while the page has room")
	}
	if string(p.read(s)) != "this is much longer than before" || string(p.read(other)) != "neighbour" {
		t.Fatalf("after growth: %q, %q", p.read(s), p.read(other))
	}
	if p.replace(s, make([]byte, PageSize)) {
		t.Fatal("a tuple larger than the page must not be placed")
	}
	if string(p.read(s)) != "this is much longer than before" {
		t.Fatal("a refused replace must leave the tuple alone")
	}
}

// memFilePager is a pager over a fresh in-memory file system, for tests
// that drive a heap or the buffer pool without a DB.
func memFilePager(tb testing.TB) *FilePager {
	fp, err := newFilePager(newMemFS(), "", Options{}.resolved(), new(sync.RWMutex))
	if err != nil {
		tb.Fatal(err)
	}
	return fp
}

func TestHeapInsertGetDelete(t *testing.T) {
	disk := memFilePager(t)
	h := newHeapFile(disk, newBufferPool(disk, 16))
	var rids []RID
	for i := 0; i < 1000; i++ {
		rid, err := h.insert(Row{Int(int64(i)), Text("row")})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if h.tupleCount() != 1000 {
		t.Fatalf("tupleCount = %d", h.tupleCount())
	}
	for i, rid := range rids {
		r, err := h.get(rid, nil)
		if err != nil || r[0].Int64() != int64(i) {
			t.Fatalf("get(%v) = %v err=%v", rid, r, err)
		}
	}
	if err := h.del(rids[500]); err != nil {
		t.Fatal("del failed")
	}
	if _, err := h.get(rids[500], nil); err == nil {
		t.Fatal("deleted tuple still readable")
	}
	count := 0
	h.scan(func(_ RID, _ Row) bool { count++; return true })
	if count != 999 {
		t.Fatalf("scan found %d rows", count)
	}
}

func TestHeapUpdateMoves(t *testing.T) {
	disk := memFilePager(t)
	h := newHeapFile(disk, newBufferPool(disk, 16))
	rid, err := h.insert(Row{Text("short")})
	if err != nil {
		t.Fatal(err)
	}
	// In-place (same size or smaller).
	nrid, err := h.update(rid, Row{Text("tiny")})
	if err != nil {
		t.Fatal(err)
	}
	if nrid != rid {
		t.Fatal("shrinking update should stay in place")
	}
	// Growing: moves.
	big := make([]byte, 500)
	nrid, err = h.update(rid, Row{Text(string(big))})
	if err != nil {
		t.Fatal(err)
	}
	r, err := h.get(nrid, nil)
	if err != nil || len(r[0].Str()) != 500 {
		t.Fatal("moved tuple unreadable")
	}
	if h.tupleCount() != 1 {
		t.Fatalf("tupleCount after move = %d", h.tupleCount())
	}
}

// TestHeapGrownTupleKeepsSlot: a row that shrinks and regrows on a page with
// room for it keeps its page and its slot — no RID change for the positional
// map to chase, no slot-directory entry leaked per move.
func TestHeapGrownTupleKeepsSlot(t *testing.T) {
	disk := memFilePager(t)
	h := newHeapFile(disk, newBufferPool(disk, 16))
	var rids []RID
	for i := 0; i < 20; i++ {
		rid, err := h.insert(Row{Int(int64(i)), Text("a neighbour of fifty bytes or so, to fill the page")})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	rid := rids[7]
	slots, pages := mustFetch(t, h.pool, rid.Page).slotCount(), len(h.pages)
	for i := 0; i < 10000; i++ {
		text := "s"
		if i%2 == 1 {
			text = strings.Repeat("long", 40)
		}
		got, err := h.update(rid, Row{Int(7), Text(text)})
		if err != nil {
			t.Fatal(err)
		}
		if got != rid {
			t.Fatalf("update %d moved the tuple from %v to %v", i, rid, got)
		}
	}
	if n := mustFetch(t, h.pool, rid.Page).slotCount(); n != slots || len(h.pages) != pages {
		t.Fatalf("slots %d -> %d, pages %d -> %d", slots, n, pages, len(h.pages))
	}
	for i, r := range rids {
		if row, err := h.get(r, nil); err != nil || row[0].Int64() != int64(i) {
			t.Fatalf("row %d at %v reads %v, %v", i, r, row, err)
		}
	}
}

// TestHeapRelocationReadsNoFullPages: a tuple that outgrows a full page of a
// full heap leaves it without fetching the pages in between to learn that
// they are full too — the heap remembers.
func TestHeapRelocationReadsNoFullPages(t *testing.T) {
	disk := memFilePager(t)
	h := newHeapFile(disk, newBufferPool(disk, 64))
	filler := Text(strings.Repeat("x", 900))
	var first RID
	for i := 0; len(h.pages) <= 2000; i++ {
		rid, err := h.insert(Row{Int(int64(i)), filler})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = rid
		}
	}
	before := h.pool.Stats()
	moved, err := h.update(first, Row{Int(0), Text(strings.Repeat("y", 2000))})
	if err != nil {
		t.Fatal(err)
	}
	if moved.Page == first.Page {
		t.Fatalf("the grown tuple still fits page %d: the heap is not full", first.Page)
	}
	if misses := h.pool.Stats().PoolMisses - before.PoolMisses; misses > 2 {
		t.Fatalf("one relocation cost %d pool misses over %d pages, want at most 2", misses, len(h.pages))
	}
	if row, err := h.get(moved, nil); err != nil || len(row[1].Str()) != 2000 {
		t.Fatalf("relocated tuple reads %v, %v", row, err)
	}
	// Entries that read high (a rollback restored the pages under them) are
	// corrected by the insert they mislead; the next search over the same
	// pages skips them again.
	for i := range h.free {
		h.free[i] = PageSize
	}
	big := Row{Int(1), Text(strings.Repeat("z", 5000))}
	for n, limit := range []int64{int64(len(h.pages)) + 1, 2} {
		h.freeHint = 0
		before = h.pool.Stats()
		if _, err := h.insert(big); err != nil {
			t.Fatal(err)
		}
		if misses := h.pool.Stats().PoolMisses - before.PoolMisses; misses > limit {
			t.Fatalf("insert %d after stale entries cost %d pool misses, want at most %d", n, misses, limit)
		}
	}
}

func TestHeapScanOrderAndReuse(t *testing.T) {
	disk := memFilePager(t)
	h := newHeapFile(disk, newBufferPool(disk, 4))
	// Fill several pages, delete everything on the first page, insert again:
	// the freed space must be reused.
	var first []RID
	for i := 0; i < 500; i++ {
		rid, err := h.insert(Row{Int(int64(i)), Text("padding-padding-padding")})
		if err != nil {
			t.Fatal(err)
		}
		if rid.Page == 0 {
			first = append(first, rid)
		}
	}
	pagesBefore := len(h.pages)
	for _, rid := range first {
		h.del(rid)
	}
	for i := 0; i < len(first); i++ {
		if _, err := h.insert(Row{Int(int64(1000 + i)), Text("pad")}); err != nil {
			t.Fatal(err)
		}
	}
	if len(h.pages) != pagesBefore {
		t.Fatalf("freed space not reused: %d pages -> %d", pagesBefore, len(h.pages))
	}
}

func TestHeapOversizedTupleChunks(t *testing.T) {
	disk := memFilePager(t)
	h := newHeapFile(disk, newBufferPool(disk, 64))
	big := strings.Repeat("x", 3*PageSize) // spans ~4 chunks
	small := "small"

	ridSmall, err := h.insert(Row{Int(1), Text(small)})
	if err != nil {
		t.Fatal(err)
	}
	ridBig, err := h.insert(Row{Int(2), Text(big)})
	if err != nil {
		t.Fatal(err)
	}
	if h.tupleCount() != 2 {
		t.Fatalf("tupleCount = %d", h.tupleCount())
	}
	r, err := h.get(ridBig, nil)
	if err != nil || r[1].Str() != big {
		t.Fatal("oversized tuple did not round-trip")
	}
	// Scan sees exactly two rows (continuation chunks skipped).
	var seen []RID
	h.scan(func(rid RID, row Row) bool {
		seen = append(seen, rid)
		return true
	})
	if len(seen) != 2 {
		t.Fatalf("scan saw %d rows", len(seen))
	}
	// Update shrinks it back to inline.
	newRID, err := h.update(ridBig, Row{Int(2), Text("tiny")})
	if err != nil {
		t.Fatal(err)
	}
	if r, err := h.get(newRID, nil); err != nil || r[1].Str() != "tiny" {
		t.Fatal("shrinking update broke the row")
	}
	// Update grows an inline row into a chain.
	newRID2, err := h.update(ridSmall, Row{Int(1), Text(big)})
	if err != nil {
		t.Fatal(err)
	}
	if r, err := h.get(newRID2, nil); err != nil || r[1].Str() != big {
		t.Fatal("growing update broke the row")
	}
	// Delete removes the whole chain; a follow-up scan sees one row.
	if err := h.del(newRID2); err != nil {
		t.Fatal("delete of chunked row failed")
	}
	n := 0
	h.scan(func(RID, Row) bool { n++; return true })
	if n != 1 || h.tupleCount() != 1 {
		t.Fatalf("after delete: scan %d rows, tupleCount %d", n, h.tupleCount())
	}
}

func TestHeapChunkedRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	disk := memFilePager(t)
	h := newHeapFile(disk, newBufferPool(disk, 64))
	model := make(map[RID]string)
	payload := func() string {
		n := rng.Intn(3 * PageSize)
		return strings.Repeat(string(rune('a'+rng.Intn(26))), n)
	}
	for op := 0; op < 800; op++ {
		switch {
		case len(model) == 0 || rng.Float64() < 0.5:
			v := payload()
			rid, err := h.insert(Row{Text(v)})
			if err != nil {
				t.Fatal(err)
			}
			model[rid] = v
		case rng.Float64() < 0.5:
			for rid := range model {
				if err := h.del(rid); err != nil {
					t.Fatalf("del(%v) failed", rid)
				}
				delete(model, rid)
				break
			}
		default:
			for rid := range model {
				v := payload()
				nrid, err := h.update(rid, Row{Text(v)})
				if err != nil {
					t.Fatal(err)
				}
				delete(model, rid)
				model[nrid] = v
				break
			}
		}
	}
	if h.tupleCount() != len(model) {
		t.Fatalf("tupleCount %d != model %d", h.tupleCount(), len(model))
	}
	for rid, want := range model {
		r, err := h.get(rid, nil)
		if err != nil || r[0].Str() != want {
			t.Fatalf("get(%v) mismatch (err=%v)", rid, err)
		}
	}
	seen := 0
	h.scan(func(rid RID, r Row) bool {
		if model[rid] != r[0].Str() {
			t.Fatalf("scan mismatch at %v", rid)
		}
		seen++
		return true
	})
	if seen != len(model) {
		t.Fatalf("scan saw %d, want %d", seen, len(model))
	}
}

// mustFetch returns page id through the pool, failing the test on a read error.
func mustFetch(t *testing.T, pool *BufferPool, id PageID) *page {
	t.Helper()
	p, err := pool.fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBufferPoolLRU(t *testing.T) {
	disk := memFilePager(t)
	pool := newBufferPool(disk, 2)
	a, b, c := disk.alloc(), disk.alloc(), disk.alloc()
	mustFetch(t, pool, a)
	mustFetch(t, pool, b)
	mustFetch(t, pool, a) // a is now MRU
	mustFetch(t, pool, c) // evicts b
	st := pool.Stats()
	if st.PoolMisses != 3 || st.PoolHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	mustFetch(t, pool, b) // miss again
	if pool.Stats().PoolMisses != 4 {
		t.Fatalf("b should have been evicted: %+v", pool.Stats())
	}
	pa := mustFetch(t, pool, a) // a evicted when b came back? lru: [b,c] -> fetch(a) evicts c
	pool.markDirty(a, pa)
	pool.ResetStats()
	if s := pool.Stats(); s.PoolMisses != 0 || s.PoolHits != 0 {
		t.Fatalf("ResetStats failed: %+v", s)
	}
}

func TestHeapRandomizedAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	disk := memFilePager(t)
	h := newHeapFile(disk, newBufferPool(disk, 8))
	model := make(map[RID]int64)
	for op := 0; op < 5000; op++ {
		switch {
		case len(model) == 0 || rng.Float64() < 0.5:
			v := rng.Int63()
			rid, err := h.insert(Row{Int(v)})
			if err != nil {
				t.Fatal(err)
			}
			if _, dup := model[rid]; dup {
				t.Fatalf("RID %v reused while live", rid)
			}
			model[rid] = v
		case rng.Float64() < 0.5:
			for rid := range model {
				if err := h.del(rid); err != nil {
					t.Fatalf("del(%v) failed", rid)
				}
				delete(model, rid)
				break
			}
		default:
			for rid, old := range model {
				v := old + 1
				nrid, err := h.update(rid, Row{Int(v)})
				if err != nil {
					t.Fatal(err)
				}
				delete(model, rid)
				model[nrid] = v
				break
			}
		}
	}
	if h.tupleCount() != len(model) {
		t.Fatalf("tupleCount %d != model %d", h.tupleCount(), len(model))
	}
	for rid, want := range model {
		r, err := h.get(rid, nil)
		if err != nil || r[0].Int64() != want {
			t.Fatalf("get(%v) = %v,%v want %d", rid, r, err, want)
		}
	}
	seen := 0
	h.scan(func(rid RID, r Row) bool {
		if model[rid] != r[0].Int64() {
			t.Fatalf("scan row mismatch at %v", rid)
		}
		seen++
		return true
	})
	if seen != len(model) {
		t.Fatalf("scan saw %d rows, want %d", seen, len(model))
	}
}

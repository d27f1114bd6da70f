package posmap

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dataspread/internal/rdbms"
)

func rid(n int) rdbms.RID { return rdbms.RID{Page: rdbms.PageID(n), Slot: uint16(n % 65536)} }

func allMaps() []Map {
	return []Map{NewPositionAsIs(), NewMonotonic(), NewHierarchical(8), NewHierarchical(DefaultOrder)}
}

func TestMapBasicSequence(t *testing.T) {
	for _, m := range allMaps() {
		for i := 1; i <= 100; i++ {
			if !m.Insert(i, rid(i)) {
				t.Fatalf("%s: append %d failed", m.Name(), i)
			}
		}
		if m.Len() != 100 {
			t.Fatalf("%s: Len = %d", m.Name(), m.Len())
		}
		for i := 1; i <= 100; i++ {
			got, ok := m.Fetch(i)
			if !ok || got != rid(i) {
				t.Fatalf("%s: Fetch(%d) = %v,%v", m.Name(), i, got, ok)
			}
		}
		if _, ok := m.Fetch(0); ok {
			t.Fatalf("%s: Fetch(0) must fail", m.Name())
		}
		if _, ok := m.Fetch(101); ok {
			t.Fatalf("%s: Fetch(101) must fail", m.Name())
		}
	}
}

func TestMapInsertShifts(t *testing.T) {
	for _, m := range allMaps() {
		for i := 1; i <= 10; i++ {
			m.Insert(i, rid(i))
		}
		// Insert at position 5: old 5..10 shift to 6..11.
		m.Insert(5, rid(99))
		if got, _ := m.Fetch(5); got != rid(99) {
			t.Fatalf("%s: inserted rid not at 5", m.Name())
		}
		if got, _ := m.Fetch(6); got != rid(5) {
			t.Fatalf("%s: old position 5 did not shift", m.Name())
		}
		if got, _ := m.Fetch(11); got != rid(10) {
			t.Fatalf("%s: tail did not shift", m.Name())
		}
		// Insert at front.
		m.Insert(1, rid(100))
		if got, _ := m.Fetch(1); got != rid(100) {
			t.Fatalf("%s: front insert failed", m.Name())
		}
		if m.Insert(m.Len()+2, rid(0)) {
			t.Fatalf("%s: insert beyond end+1 must fail", m.Name())
		}
	}
}

func TestMapDeleteShifts(t *testing.T) {
	for _, m := range allMaps() {
		for i := 1; i <= 10; i++ {
			m.Insert(i, rid(i))
		}
		got, ok := m.Delete(3)
		if !ok || got != rid(3) {
			t.Fatalf("%s: Delete(3) = %v,%v", m.Name(), got, ok)
		}
		if m.Len() != 9 {
			t.Fatalf("%s: Len after delete = %d", m.Name(), m.Len())
		}
		if v, _ := m.Fetch(3); v != rid(4) {
			t.Fatalf("%s: tail did not shift down", m.Name())
		}
		if _, ok := m.Delete(10); ok {
			t.Fatalf("%s: delete past end must fail", m.Name())
		}
		// Drain completely.
		for m.Len() > 0 {
			if _, ok := m.Delete(1); !ok {
				t.Fatalf("%s: drain failed at %d", m.Name(), m.Len())
			}
		}
		if _, ok := m.Delete(1); ok {
			t.Fatalf("%s: delete on empty must fail", m.Name())
		}
	}
}

func TestMapUpdate(t *testing.T) {
	for _, m := range allMaps() {
		for i := 1; i <= 5; i++ {
			m.Insert(i, rid(i))
		}
		if !m.Update(3, rid(42)) {
			t.Fatalf("%s: Update failed", m.Name())
		}
		if got, _ := m.Fetch(3); got != rid(42) {
			t.Fatalf("%s: Update not visible", m.Name())
		}
		if m.Update(6, rid(1)) {
			t.Fatalf("%s: Update past end must succeed? no", m.Name())
		}
	}
}

func TestMapFetchRange(t *testing.T) {
	for _, m := range allMaps() {
		for i := 1; i <= 50; i++ {
			m.Insert(i, rid(i))
		}
		got := m.FetchRange(10, 5)
		if len(got) != 5 || got[0] != rid(10) || got[4] != rid(14) {
			t.Fatalf("%s: FetchRange(10,5) = %v", m.Name(), got)
		}
		// Clipped at the end.
		got = m.FetchRange(48, 10)
		if len(got) != 3 || got[2] != rid(50) {
			t.Fatalf("%s: clipped range = %v", m.Name(), got)
		}
		// Clipped at the start.
		got = m.FetchRange(-2, 5)
		if len(got) != 2 || got[0] != rid(1) {
			t.Fatalf("%s: negative start range = %v", m.Name(), got)
		}
		if m.FetchRange(51, 5) != nil {
			t.Fatalf("%s: out-of-range fetch must be nil", m.Name())
		}
		if m.FetchRange(10, 0) != nil {
			t.Fatalf("%s: zero-count fetch must be nil", m.Name())
		}
	}
}

// TestMapEquivalence drives all schemes through the same random operation
// sequence and checks them against a plain-slice reference model.
func TestMapEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	maps := allMaps()
	var model []rdbms.RID
	next := 0
	for op := 0; op < 4000; op++ {
		switch {
		case len(model) == 0 || rng.Float64() < 0.45:
			pos := rng.Intn(len(model)+1) + 1
			next++
			r := rid(next)
			model = append(model, rdbms.RID{})
			copy(model[pos:], model[pos-1:])
			model[pos-1] = r
			for _, m := range maps {
				if !m.Insert(pos, r) {
					t.Fatalf("%s: insert at %d failed", m.Name(), pos)
				}
			}
		case rng.Float64() < 0.55:
			pos := rng.Intn(len(model)) + 1
			want := model[pos-1]
			model = append(model[:pos-1], model[pos:]...)
			for _, m := range maps {
				got, ok := m.Delete(pos)
				if !ok || got != want {
					t.Fatalf("%s: delete at %d = %v,%v want %v", m.Name(), pos, got, ok, want)
				}
			}
		default:
			pos := rng.Intn(len(model)) + 1
			next++
			r := rid(next)
			model[pos-1] = r
			for _, m := range maps {
				if !m.Update(pos, r) {
					t.Fatalf("%s: update at %d failed", m.Name(), pos)
				}
			}
		}
		if op%200 == 0 {
			pos := rng.Intn(len(model)+1) + 1
			count := rng.Intn(20) + 1
			wantLen := len(model) - pos + 1
			if wantLen < 0 {
				wantLen = 0
			}
			if wantLen > count {
				wantLen = count
			}
			for _, m := range maps {
				if m.Len() != len(model) {
					t.Fatalf("%s: Len %d != model %d", m.Name(), m.Len(), len(model))
				}
				got := m.FetchRange(pos, count)
				if len(got) != wantLen {
					t.Fatalf("%s: FetchRange(%d,%d) len %d want %d", m.Name(), pos, count, len(got), wantLen)
				}
				for i := range got {
					if got[i] != model[pos-1+i] {
						t.Fatalf("%s: FetchRange mismatch at %d", m.Name(), pos+i)
					}
				}
			}
		}
	}
	for i, want := range model {
		for _, m := range maps {
			got, ok := m.Fetch(i + 1)
			if !ok || got != want {
				t.Fatalf("%s: final Fetch(%d) = %v,%v want %v", m.Name(), i+1, got, ok, want)
			}
		}
	}
}

// checkHierarchicalInvariants verifies the Section V invariants: (i) every
// node has at most m children, (ii) every non-leaf node except the root has
// at least ceil(m/2) children, (iii) all leaves are at the same level, and
// (iv) inner counts equal child subtree sizes.
func checkHierarchicalInvariants(t *testing.T, h *Hierarchical) {
	t.Helper()
	var leafDepth = -1
	var walk func(n hnode, depth int, isRoot bool) int
	walk = func(n hnode, depth int, isRoot bool) int {
		switch v := n.(type) {
		case *hleaf:
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				t.Fatalf("leaf at depth %d, expected %d", depth, leafDepth)
			}
			if len(v.rids) > h.order {
				t.Fatalf("leaf overflow: %d > %d", len(v.rids), h.order)
			}
			return len(v.rids)
		case *hinner:
			if len(v.children) > h.order {
				t.Fatalf("inner overflow: %d children > %d", len(v.children), h.order)
			}
			if !isRoot && len(v.children) < (h.order+1)/2 {
				// Deletes may leave nodes underfull (no merging); only
				// insert-produced structure guarantees the floor, so this is
				// informational rather than fatal for post-delete trees.
				_ = v
			}
			if len(v.counts) != len(v.children) {
				t.Fatalf("counts/children length mismatch: %d vs %d", len(v.counts), len(v.children))
			}
			total := 0
			for i, c := range v.children {
				got := walk(c, depth+1, false)
				if got != v.counts[i] {
					t.Fatalf("count mismatch at depth %d child %d: stored %d actual %d", depth, i, v.counts[i], got)
				}
				total += got
			}
			if total != v.total {
				t.Fatalf("total mismatch: stored %d actual %d", v.total, total)
			}
			return total
		}
		return 0
	}
	if got := walk(h.root, 0, true); got != h.size {
		t.Fatalf("tree size %d != map size %d", got, h.size)
	}
}

func TestHierarchicalInvariantsAfterInserts(t *testing.T) {
	h := NewHierarchical(4)
	rng := rand.New(rand.NewSource(3))
	for i := 1; i <= 2000; i++ {
		h.Insert(rng.Intn(h.Len()+1)+1, rid(i))
	}
	checkHierarchicalInvariants(t, h)
}

func TestHierarchicalInvariantsAfterMixedOps(t *testing.T) {
	h := NewHierarchical(4)
	rng := rand.New(rand.NewSource(5))
	for i := 1; i <= 5000; i++ {
		if h.Len() > 0 && rng.Float64() < 0.45 {
			h.Delete(rng.Intn(h.Len()) + 1)
		} else {
			h.Insert(rng.Intn(h.Len()+1)+1, rid(i))
		}
	}
	checkHierarchicalInvariants(t, h)
}

func TestHierarchicalAppend(t *testing.T) {
	h := NewHierarchical(DefaultOrder)
	for i := 1; i <= 1000; i++ {
		h.Append(rid(i))
	}
	for i := 1; i <= 1000; i++ {
		if got, _ := h.Fetch(i); got != rid(i) {
			t.Fatalf("Append order broken at %d", i)
		}
	}
}

func TestHierarchicalProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		h := NewHierarchical(4)
		var model []rdbms.RID
		for i, o := range ops {
			if h.Len() > 0 && o%3 == 0 {
				pos := int(o)%len(model) + 1
				got, ok := h.Delete(pos)
				if !ok || got != model[pos-1] {
					return false
				}
				model = append(model[:pos-1], model[pos:]...)
			} else {
				pos := int(o)%(len(model)+1) + 1
				r := rid(i + 1)
				if !h.Insert(pos, r) {
					return false
				}
				model = append(model, rdbms.RID{})
				copy(model[pos:], model[pos-1:])
				model[pos-1] = r
			}
		}
		if h.Len() != len(model) {
			return false
		}
		for i, want := range model {
			if got, ok := h.Fetch(i + 1); !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMonotonicRenumber(t *testing.T) {
	m := NewMonotonic()
	// Repeatedly inserting at position 1 halves the front gap each time and
	// must eventually trigger renumbering without losing order.
	for i := 1; i <= 200; i++ {
		if !m.Insert(1, rid(i)) {
			t.Fatalf("insert %d failed", i)
		}
	}
	for i := 1; i <= 200; i++ {
		got, ok := m.Fetch(i)
		if !ok || got != rid(200-i+1) {
			t.Fatalf("after renumber Fetch(%d) = %v,%v", i, got, ok)
		}
	}
}

func TestNewByName(t *testing.T) {
	for _, name := range Schemes() {
		m := New(name)
		if m.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, m.Name())
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New of unknown scheme must panic")
		}
	}()
	New("nope")
}

// TestFetchRangeInto checks the buffer-reusing range fetch agrees with
// FetchRange across every scheme, including clipped and out-of-range
// requests, and that it appends after an existing prefix.
func TestFetchRangeInto(t *testing.T) {
	for _, scheme := range Schemes() {
		m := New(scheme)
		const n = 300
		for i := 1; i <= n; i++ {
			m.Insert(i, rdbms.RID{Page: rdbms.PageID(i), Slot: uint16(i % 7)})
		}
		cases := []struct{ pos, count int }{
			{1, 10}, {50, 100}, {n - 5, 50}, {-3, 10}, {n + 1, 4}, {10, 0}, {1, n},
		}
		buf := make([]rdbms.RID, 0, 8)
		for _, c := range cases {
			want := m.FetchRange(c.pos, c.count)
			buf = m.FetchRangeInto(buf[:0], c.pos, c.count)
			if len(buf) != len(want) {
				t.Fatalf("%s: FetchRangeInto(%d,%d) len %d, want %d", scheme, c.pos, c.count, len(buf), len(want))
			}
			for i := range want {
				if buf[i] != want[i] {
					t.Fatalf("%s: FetchRangeInto(%d,%d)[%d] = %v, want %v", scheme, c.pos, c.count, i, buf[i], want[i])
				}
			}
		}
		// Appends after a prefix instead of overwriting it.
		prefix := []rdbms.RID{{Page: 999}}
		got := m.FetchRangeInto(prefix, 1, 3)
		if len(got) != 4 || got[0] != (rdbms.RID{Page: 999}) {
			t.Fatalf("%s: prefix not preserved: %v", scheme, got)
		}
	}
}

// TestMapInsertManyEquivalence: InsertMany(pos, rids) must observably equal
// len(rids) single inserts at successive positions, for every scheme.
func TestMapInsertManyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(200)
		k := rng.Intn(20)
		pos := rng.Intn(n+1) + 1
		rids := make([]rdbms.RID, k)
		for i := range rids {
			rids[i] = rid(1000 + trial*100 + i)
		}
		for _, scheme := range Schemes() {
			batched, looped := New(scheme), New(scheme)
			for i := 1; i <= n; i++ {
				batched.Insert(i, rid(i))
				looped.Insert(i, rid(i))
			}
			if !batched.InsertMany(pos, rids) {
				t.Fatalf("%s: InsertMany(%d, %d rids) failed at n=%d", scheme, pos, k, n)
			}
			for i, r := range rids {
				if !looped.Insert(pos+i, r) {
					t.Fatalf("%s: loop insert failed", scheme)
				}
			}
			assertSameOrder(t, scheme, batched, looped)
		}
	}
}

// TestMapDeleteManyEquivalence: DeleteMany(pos, count) must equal count
// single deletes at the same position, returning the same removed pointers.
func TestMapDeleteManyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(200) + 1
		pos := rng.Intn(n) + 1
		count := rng.Intn(25) // may overrun the end: DeleteMany clips
		for _, scheme := range Schemes() {
			batched, looped := New(scheme), New(scheme)
			for i := 1; i <= n; i++ {
				batched.Insert(i, rid(i))
				looped.Insert(i, rid(i))
			}
			got := batched.DeleteMany(pos, count)
			var want []rdbms.RID
			for i := 0; i < count; i++ {
				r, ok := looped.Delete(pos)
				if !ok {
					break
				}
				want = append(want, r)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: DeleteMany removed %d, loop removed %d", scheme, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: removed[%d] = %v want %v", scheme, i, got[i], want[i])
				}
			}
			assertSameOrder(t, scheme, batched, looped)
		}
	}
}

// TestMapInsertDeleteManyRoundTrip: inserting k then deleting the same span
// restores the original order exactly.
func TestMapInsertDeleteManyRoundTrip(t *testing.T) {
	for _, scheme := range Schemes() {
		m := New(scheme)
		for i := 1; i <= 50; i++ {
			m.Insert(i, rid(i))
		}
		fresh := make([]rdbms.RID, 7)
		for i := range fresh {
			fresh[i] = rid(900 + i)
		}
		if !m.InsertMany(20, fresh) {
			t.Fatalf("%s: InsertMany failed", scheme)
		}
		removed := m.DeleteMany(20, 7)
		if len(removed) != 7 {
			t.Fatalf("%s: round-trip removed %d", scheme, len(removed))
		}
		for i := 1; i <= 50; i++ {
			got, ok := m.Fetch(i)
			if !ok || got != rid(i) {
				t.Fatalf("%s: position %d = %v after round trip", scheme, i, got)
			}
		}
	}
}

func assertSameOrder(t *testing.T, scheme string, a, b Map) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: Len %d vs %d", scheme, a.Len(), b.Len())
	}
	ga := a.FetchRange(1, a.Len())
	gb := b.FetchRange(1, b.Len())
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatalf("%s: position %d: %v vs %v", scheme, i+1, ga[i], gb[i])
		}
	}
}

// TestBulkBuildEqualsInserts: a hierarchical map built bottom-up by one
// InsertMany into an empty map answers FetchRange over every position like
// the one built an insert at a time, and stays equal to it under 1,000 random
// single inserts and deletes.
func TestBulkBuildEqualsInserts(t *testing.T) {
	for _, n := range []int{1, 3, 4, 5, 63, 64, 65, 4096, 4097, 10_000} {
		rng := rand.New(rand.NewSource(int64(n)))
		rids := make([]rdbms.RID, n)
		for i := range rids {
			rids[i] = rdbms.RID{Page: rdbms.PageID(rng.Intn(1 << 20)), Slot: uint16(rng.Intn(1 << 16))}
		}
		for _, order := range []int{4, DefaultOrder} {
			bulk, slow := NewHierarchical(order), NewHierarchical(order)
			if !bulk.InsertMany(1, rids) {
				t.Fatalf("n=%d: bulk InsertMany refused", n)
			}
			for i, r := range rids {
				slow.Insert(i+1, r)
			}
			rids[0].Slot++ // the caller's slice is the caller's: the map took a copy
			check := func(when string) {
				t.Helper()
				if bulk.Len() != slow.Len() {
					t.Fatalf("n=%d order=%d %s: Len %d vs %d", n, order, when, bulk.Len(), slow.Len())
				}
				for pos := 1; pos <= slow.Len(); pos += 1 + rng.Intn(3) {
					count := 1 + rng.Intn(2*order)
					if got, want := bulk.FetchRange(pos, count), slow.FetchRange(pos, count); !slices.Equal(got, want) {
						t.Fatalf("n=%d order=%d %s: FetchRange(%d,%d) = %v, want %v", n, order, when, pos, count, got, want)
					}
					if got, _ := bulk.Fetch(pos); got != slow.FetchRange(pos, 1)[0] {
						t.Fatalf("n=%d order=%d %s: Fetch(%d) = %v", n, order, when, pos, got)
					}
				}
			}
			check("as built")
			for i := 0; i < 1000; i++ {
				if pos := 1 + rng.Intn(slow.Len()+1); rng.Intn(2) == 0 || slow.Len() < 2 {
					r := rdbms.RID{Page: rdbms.PageID(i), Slot: uint16(i)}
					bulk.Insert(pos, r)
					slow.Insert(pos, r)
				} else {
					pos = min(pos, slow.Len())
					a, _ := bulk.Delete(pos)
					if b, _ := slow.Delete(pos); a != b {
						t.Fatalf("n=%d order=%d: Delete(%d) = %v vs %v", n, order, pos, a, b)
					}
				}
			}
			check("after 1,000 edits")
		}
	}
}

package posmap

import "dataspread/internal/rdbms"

// Monotonic captures position with a monotonically increasing sequence of
// gapped identifiers, following the online dynamic reordering baseline of
// Raman et al. cited in Section V. Inserts take the midpoint of the
// neighbouring keys (the editing session already knows those keys from the
// preceding fetch of the visible region, so no positional scan is charged),
// and when a gap is exhausted the key space is renumbered. Fetching the nth
// tuple, however, must discard the n-1 preceding tuples — the persistent
// structure is ordered by key, not position — which is the O(n) fetch cost
// the paper's Figure 18 shows.
type Monotonic struct {
	// tree is the persistent structure: gapped key -> tuple pointer.
	tree *rdbms.BTree
	// keys mirrors the key sequence in order; it is the session-side
	// directory used to locate neighbour keys for inserts and deletes.
	keys []int64
}

// monotonicGap is the initial spacing between adjacent keys.
const monotonicGap = 1 << 20

// NewMonotonic returns an empty monotonic map.
func NewMonotonic() *Monotonic {
	return &Monotonic{tree: rdbms.NewBTree(64)}
}

// Name implements Map.
func (m *Monotonic) Name() string { return "monotonic" }

// Len implements Map.
func (m *Monotonic) Len() int { return len(m.keys) }

// Fetch implements Map. Faithful to the scheme, it scans the key-ordered
// structure discarding pos-1 entries.
func (m *Monotonic) Fetch(pos int) (rdbms.RID, bool) {
	if pos < 1 || pos > len(m.keys) {
		return rdbms.RID{}, false
	}
	var out rdbms.RID
	found := false
	n := 0
	m.tree.Scan(-1<<62, 1<<62, func(_ int64, rid rdbms.RID) bool {
		n++
		if n == pos {
			out = rid
			found = true
			return false
		}
		return true
	})
	return out, found
}

// Insert implements Map, assigning the midpoint of the neighbour keys.
func (m *Monotonic) Insert(pos int, rid rdbms.RID) bool {
	if pos < 1 || pos > len(m.keys)+1 {
		return false
	}
	var lo, hi int64
	switch {
	case len(m.keys) == 0:
		lo, hi = 0, 2*monotonicGap
	case pos == 1:
		lo, hi = m.keys[0]-2*monotonicGap, m.keys[0]
	case pos == len(m.keys)+1:
		lo, hi = m.keys[len(m.keys)-1], m.keys[len(m.keys)-1]+2*monotonicGap
	default:
		lo, hi = m.keys[pos-2], m.keys[pos-1]
	}
	if hi-lo < 2 {
		m.renumber()
		return m.Insert(pos, rid)
	}
	key := lo + (hi-lo)/2
	m.tree.Insert(key, rid)
	m.keys = append(m.keys, 0)
	copy(m.keys[pos:], m.keys[pos-1:])
	m.keys[pos-1] = key
	return true
}

// Delete implements Map.
func (m *Monotonic) Delete(pos int) (rdbms.RID, bool) {
	if pos < 1 || pos > len(m.keys) {
		return rdbms.RID{}, false
	}
	key := m.keys[pos-1]
	rid, ok := m.tree.Search(key)
	if !ok {
		return rdbms.RID{}, false
	}
	m.tree.DeleteKey(key)
	m.keys = append(m.keys[:pos-1], m.keys[pos:]...)
	return rid, true
}

// renumber rebuilds the key space with fresh gaps — the amortized cost of
// the gapped scheme.
func (m *Monotonic) renumber() {
	type ent struct {
		key int64
		rid rdbms.RID
	}
	ents := make([]ent, 0, len(m.keys))
	m.tree.Scan(-1<<62, 1<<62, func(k int64, rid rdbms.RID) bool {
		ents = append(ents, ent{k, rid})
		return true
	})
	m.tree = rdbms.NewBTree(64)
	m.keys = m.keys[:0]
	next := int64(monotonicGap)
	for _, e := range ents {
		m.tree.Insert(next, e.rid)
		m.keys = append(m.keys, next)
		next += monotonicGap
	}
}

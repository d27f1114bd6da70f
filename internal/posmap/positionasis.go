package posmap

import "dataspread/internal/rdbms"

// PositionAsIs stores explicit positions in a B+ tree index, the naive
// baseline of Section V ("Position as-is"). Fetching position n is a
// standard index lookup, O(log N). Inserting or deleting at position n,
// however, must renumber every subsequent entry — the cascading update the
// paper's Table II quantifies — costing O(N log N).
type PositionAsIs struct {
	tree *rdbms.BTree
	size int
}

// NewPositionAsIs returns an empty position-as-is map.
func NewPositionAsIs() *PositionAsIs {
	return &PositionAsIs{tree: rdbms.NewBTree(64)}
}

// Name implements Map.
func (p *PositionAsIs) Name() string { return "position-as-is" }

// Len implements Map.
func (p *PositionAsIs) Len() int { return p.size }

// Fetch implements Map.
func (p *PositionAsIs) Fetch(pos int) (rdbms.RID, bool) {
	if pos < 1 || pos > p.size {
		return rdbms.RID{}, false
	}
	return p.tree.Search(int64(pos))
}

// Insert implements Map. Every entry at or above pos is renumbered: the
// cascading update.
func (p *PositionAsIs) Insert(pos int, rid rdbms.RID) bool {
	if pos < 1 || pos > p.size+1 {
		return false
	}
	// Collect the tail, then shift it up by one. Shifting descending would
	// allow in-place reinsertion, but a B+ tree cannot update keys in
	// place, so each shifted entry is a delete+insert pair: O(N log N).
	type ent struct {
		key int64
		rid rdbms.RID
	}
	var tail []ent
	p.tree.Scan(int64(pos), int64(p.size), func(k int64, r rdbms.RID) bool {
		tail = append(tail, ent{k, r})
		return true
	})
	for i := len(tail) - 1; i >= 0; i-- {
		p.tree.Delete(tail[i].key, tail[i].rid)
		p.tree.Insert(tail[i].key+1, tail[i].rid)
	}
	p.tree.Insert(int64(pos), rid)
	p.size++
	return true
}

// Delete implements Map, renumbering the tail downward.
func (p *PositionAsIs) Delete(pos int) (rdbms.RID, bool) {
	if pos < 1 || pos > p.size {
		return rdbms.RID{}, false
	}
	rid, ok := p.tree.Search(int64(pos))
	if !ok {
		return rdbms.RID{}, false
	}
	p.tree.DeleteKey(int64(pos))
	type ent struct {
		key int64
		rid rdbms.RID
	}
	var tail []ent
	p.tree.Scan(int64(pos+1), int64(p.size), func(k int64, r rdbms.RID) bool {
		tail = append(tail, ent{k, r})
		return true
	})
	for _, e := range tail {
		p.tree.Delete(e.key, e.rid)
		p.tree.Insert(e.key-1, e.rid)
	}
	p.size--
	return rid, true
}

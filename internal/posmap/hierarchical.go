package posmap

import "dataspread/internal/rdbms"

// DefaultOrder is the fan-out of the hierarchical positional mapping tree.
const DefaultOrder = 64

// Hierarchical is the paper's hierarchical positional mapping (Section V,
// Figure 11): a B+-tree-shaped order-statistic tree. Inner nodes store, per
// child, the count of tuples in that child's subtree; leaves store tuple
// pointers in sequence order. Accessing the item at position n subtracts
// child counts left-to-right while descending, so fetch, insert and delete
// are all O(log N) and no stored position ever needs cascading updates.
type Hierarchical struct {
	verCounter
	order int
	root  hnode
	size  int
}

type hnode interface {
	count() int
	// fetch returns the rid at 1-based offset pos within this subtree.
	fetch(pos int) rdbms.RID
	// insert places rid at offset pos (1..count+1); returns a new right
	// sibling when the node split.
	insert(pos int, rid rdbms.RID, order int) hnode
	// delete removes offset pos, returning the removed rid.
	delete(pos int) rdbms.RID
	// update replaces the rid at offset pos.
	update(pos int, rid rdbms.RID)
	// walk visits rids from offset pos while fn returns true.
	walk(pos int, fn func(rdbms.RID) bool) bool
}

type hleaf struct {
	rids []rdbms.RID
	next *hleaf
}

type hinner struct {
	counts   []int
	children []hnode
	total    int
}

// NewHierarchical returns an empty hierarchical map with the given tree
// order (maximum children per node). Orders below 4 are raised to 4.
func NewHierarchical(order int) *Hierarchical {
	if order < 4 {
		order = 4
	}
	return &Hierarchical{order: order, root: &hleaf{}}
}

// Name implements Map.
func (h *Hierarchical) Name() string { return "hierarchical" }

// Len implements Map.
func (h *Hierarchical) Len() int { return h.size }

// Fetch implements Map.
func (h *Hierarchical) Fetch(pos int) (rdbms.RID, bool) {
	if pos < 1 || pos > h.size {
		return rdbms.RID{}, false
	}
	return h.root.fetch(pos), true
}

// FetchRange implements Map.
func (h *Hierarchical) FetchRange(pos, count int) []rdbms.RID {
	return h.FetchRangeInto(nil, pos, count)
}

// FetchRangeInto implements Map: one tree descent to the leaf holding pos,
// then a closure-free leaf-chain walk appending into the caller's buffer —
// zero allocations when dst has capacity.
func (h *Hierarchical) FetchRangeInto(dst []rdbms.RID, pos, count int) []rdbms.RID {
	if pos < 1 {
		count += pos - 1
		pos = 1
	}
	if pos > h.size || count <= 0 {
		return dst
	}
	if pos+count-1 > h.size {
		count = h.size - pos + 1
	}
	node, off := h.root, pos
	for {
		inner, ok := node.(*hinner)
		if !ok {
			break
		}
		i, o := inner.child(off)
		node, off = inner.children[i], o
	}
	for leaf := node.(*hleaf); leaf != nil && count > 0; leaf = leaf.next {
		take := len(leaf.rids) - (off - 1)
		if take > count {
			take = count
		}
		if take > 0 {
			dst = append(dst, leaf.rids[off-1:off-1+take]...)
			count -= take
		}
		off = 1
	}
	return dst
}

// Insert implements Map.
func (h *Hierarchical) Insert(pos int, rid rdbms.RID) bool {
	if pos < 1 || pos > h.size+1 {
		return false
	}
	right := h.root.insert(pos, rid, h.order)
	if right != nil {
		h.root = &hinner{
			counts:   []int{h.root.count(), right.count()},
			children: []hnode{h.root, right},
			total:    h.root.count() + right.count(),
		}
	}
	h.size++
	h.bump()
	return true
}

// InsertMany implements Map: each insert lands in the already-located
// region of the tree, so a k-row shift costs O(k log N) with no cascading
// updates — the count only pays tree maintenance, never renumbering. Into an
// empty map (a store reloading its ordering, a bulk import) the tree is built
// bottom-up instead, in O(N).
func (h *Hierarchical) InsertMany(pos int, rids []rdbms.RID) bool {
	if pos < 1 || pos > h.size+1 {
		return false
	}
	if h.size == 0 && len(rids) > 0 {
		h.build(rids)
		return true
	}
	for i, rid := range rids {
		if !h.Insert(pos+i, rid) {
			return false
		}
	}
	return true
}

// build makes rids the whole content of an empty map: full leaves cut from one
// copy of the slice and chained left to right, then level upon level of full
// inner nodes over them until one node is left.
func (h *Hierarchical) build(rids []rdbms.RID) {
	all := append([]rdbms.RID(nil), rids...)
	level := make([]hnode, 0, len(all)/h.order+1)
	var prev *hleaf
	for len(all) > 0 {
		n := min(len(all), h.order)
		leaf := &hleaf{rids: all[:n:n]}
		if prev != nil {
			prev.next = leaf
		}
		prev, all, level = leaf, all[n:], append(level, leaf)
	}
	for len(level) > 1 {
		up := make([]hnode, 0, len(level)/h.order+1)
		for len(level) > 0 {
			n := min(len(level), h.order)
			in := &hinner{children: level[:n:n], counts: make([]int, n)}
			for i, c := range in.children {
				in.counts[i] = c.count()
				in.total += in.counts[i]
			}
			up, level = append(up, in), level[n:]
		}
		level = up
	}
	h.root, h.size = level[0], len(rids)
	h.bump()
}

// DeleteMany implements Map.
func (h *Hierarchical) DeleteMany(pos, count int) []rdbms.RID {
	out := clipMany(&pos, &count, h.size)
	for i := 0; i < count; i++ {
		rid, ok := h.Delete(pos)
		if !ok {
			break
		}
		out = append(out, rid)
	}
	return out
}

// Delete implements Map.
func (h *Hierarchical) Delete(pos int) (rdbms.RID, bool) {
	if pos < 1 || pos > h.size {
		return rdbms.RID{}, false
	}
	rid := h.root.delete(pos)
	h.size--
	// Collapse a root with a single child to keep height tight.
	for {
		inner, ok := h.root.(*hinner)
		if !ok || len(inner.children) != 1 {
			break
		}
		h.root = inner.children[0]
	}
	h.bump()
	return rid, true
}

// Update implements Map.
func (h *Hierarchical) Update(pos int, rid rdbms.RID) bool {
	if pos < 1 || pos > h.size {
		return false
	}
	h.root.update(pos, rid)
	h.bump()
	return true
}

// Append adds rid at the end of the sequence.
func (h *Hierarchical) Append(rid rdbms.RID) { h.Insert(h.size+1, rid) }

func (l *hleaf) count() int { return len(l.rids) }

func (l *hleaf) fetch(pos int) rdbms.RID { return l.rids[pos-1] }

func (l *hleaf) insert(pos int, rid rdbms.RID, order int) hnode {
	i := pos - 1
	l.rids = append(l.rids, rdbms.RID{})
	copy(l.rids[i+1:], l.rids[i:])
	l.rids[i] = rid
	if len(l.rids) <= order {
		return nil
	}
	mid := len(l.rids) / 2
	right := &hleaf{rids: append([]rdbms.RID(nil), l.rids[mid:]...), next: l.next}
	l.rids = l.rids[:mid]
	l.next = right
	return right
}

func (l *hleaf) delete(pos int) rdbms.RID {
	i := pos - 1
	rid := l.rids[i]
	l.rids = append(l.rids[:i], l.rids[i+1:]...)
	return rid
}

func (l *hleaf) update(pos int, rid rdbms.RID) { l.rids[pos-1] = rid }

func (l *hleaf) walk(pos int, fn func(rdbms.RID) bool) bool {
	for node := l; node != nil; node = node.next {
		for i := pos - 1; i < len(node.rids); i++ {
			if !fn(node.rids[i]) {
				return false
			}
		}
		pos = 1
	}
	return true
}

func (n *hinner) count() int { return n.total }

// child locates the child holding offset pos, returning the child index and
// the offset within it.
func (n *hinner) child(pos int) (int, int) {
	for i, c := range n.counts {
		if pos <= c {
			return i, pos
		}
		pos -= c
	}
	// pos == total+1 (insertion at the very end): descend into last child.
	last := len(n.counts) - 1
	return last, n.counts[last] + pos
}

func (n *hinner) fetch(pos int) rdbms.RID {
	i, off := n.child(pos)
	return n.children[i].fetch(off)
}

func (n *hinner) insert(pos int, rid rdbms.RID, order int) hnode {
	i, off := n.child(pos)
	right := n.children[i].insert(off, rid, order)
	n.total++
	n.counts[i] = n.children[i].count()
	if right == nil {
		return nil
	}
	n.counts = append(n.counts, 0)
	copy(n.counts[i+2:], n.counts[i+1:])
	n.counts[i+1] = right.count()
	n.counts[i] = n.children[i].count()
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
	if len(n.children) <= order {
		return nil
	}
	mid := len(n.children) / 2
	r := &hinner{
		counts:   append([]int(nil), n.counts[mid:]...),
		children: append([]hnode(nil), n.children[mid:]...),
	}
	for _, c := range r.counts {
		r.total += c
	}
	n.counts = n.counts[:mid]
	n.children = n.children[:mid]
	n.total -= r.total
	// Fix the leaf chain across the split boundary: already linked since
	// leaves were split bottom-up; nothing to do for inner splits.
	return r
}

func (n *hinner) delete(pos int) rdbms.RID {
	i, off := n.child(pos)
	rid := n.children[i].delete(off)
	n.total--
	n.counts[i] = n.children[i].count()
	if n.counts[i] == 0 && len(n.children) > 1 {
		// Drop the emptied child. Its (empty) leaves must be unlinked from
		// the leaf chain so walks don't hop through stale nodes; when the
		// predecessor is outside this subtree (i == 0) the stale leaf stays
		// linked, which is harmless — empty leaves contribute nothing to a
		// walk.
		if i > 0 {
			rightmostLeaf(n.children[i-1]).next = rightmostLeaf(n.children[i]).next
		}
		n.counts = append(n.counts[:i], n.counts[i+1:]...)
		n.children = append(n.children[:i], n.children[i+1:]...)
	}
	return rid
}

func (n *hinner) update(pos int, rid rdbms.RID) {
	i, off := n.child(pos)
	n.children[i].update(off, rid)
}

func (n *hinner) walk(pos int, fn func(rdbms.RID) bool) bool {
	i, off := n.child(pos)
	// Descend once; leaves chain across the whole tree, so the leaf-level
	// walk continues past this subtree automatically.
	return n.children[i].walk(off, fn)
}

func rightmostLeaf(n hnode) *hleaf {
	for {
		switch v := n.(type) {
		case *hleaf:
			return v
		case *hinner:
			n = v.children[len(v.children)-1]
		}
	}
}

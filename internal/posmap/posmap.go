// Package posmap implements the positional mapping schemes of Section V of
// the DataSpread paper: maintaining an ordering over tuples so that
// fetch-by-position, insert-at-position and delete-at-position are
// efficient, without cascading updates of stored row numbers.
//
// The storage engine keeps every ordering in one scheme, the paper's
// contribution: Hierarchical, an order-statistic (counted) B+ tree storing
// subtree sizes in inner nodes and tuple pointers in leaves, so fetch,
// insert and delete are all O(log N). Tracked wraps one with the op log
// that persistence replays.
//
// The two baselines of the paper's evaluation (Figure 18, Table II) are
// kept for internal/exp, with only the operations that evaluation times —
// Fetch, Insert and Delete behind the Map interface:
//
//   - PositionAsIs — explicit positions kept in a B+ tree. Fetch is
//     O(log N); insert/delete must renumber every subsequent tuple,
//     O(N log N).
//   - Monotonic — online-dynamic-reordering style (Raman et al.): gapped,
//     monotonically increasing keys. Inserts take a midpoint key (cheap);
//     fetch must discard n-1 tuples to reach the nth, O(n).
package posmap

import "dataspread/internal/rdbms"

// Map is what Figure 18 measures of each scheme: a dense 1-based ordering
// of tuple pointers.
type Map interface {
	// Name identifies the scheme ("position-as-is", "monotonic",
	// "hierarchical").
	Name() string
	// Len returns the number of tracked tuples.
	Len() int
	// Fetch returns the tuple pointer at the 1-based position.
	Fetch(pos int) (rdbms.RID, bool)
	// Insert places rid at the position, shifting subsequent tuples up.
	// pos may be Len()+1 to append.
	Insert(pos int, rid rdbms.RID) bool
	// Delete removes the position, shifting subsequent tuples down.
	Delete(pos int) (rdbms.RID, bool)
}

// New constructs a map by scheme name; it panics on an unknown scheme.
// Valid names: "position-as-is", "monotonic", "hierarchical".
func New(scheme string) Map {
	switch scheme {
	case "position-as-is":
		return NewPositionAsIs()
	case "monotonic":
		return NewMonotonic()
	case "hierarchical":
		return NewHierarchical(DefaultOrder)
	}
	panic("posmap: unknown scheme " + scheme)
}

// Schemes lists the available scheme names in the paper's order.
func Schemes() []string { return []string{"position-as-is", "monotonic", "hierarchical"} }

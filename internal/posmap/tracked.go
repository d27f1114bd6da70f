package posmap

import (
	"fmt"

	"dataspread/internal/rdbms"
)

// OpKind tags one logged mutation.
type OpKind uint8

// The three mutation kinds a positional map can log.
const (
	OpInsert OpKind = iota + 1
	OpDelete
	OpUpdate
)

// Op is one logged mutation, replayable against a map holding the state
// that preceded it: OpInsert places RIDs consecutively at Pos, OpDelete
// removes N positions starting at Pos, OpUpdate replaces the pointer at
// Pos with RIDs[0].
type Op struct {
	Kind OpKind
	Pos  int
	N    int
	RIDs []rdbms.RID
}

// deltaRatio and deltaSlack bound the op log: once the logged units exceed
// Len()/deltaRatio + deltaSlack the log is discarded and the next save
// rewrites the full ordering — a delta can never grow past a fixed fraction
// of a full dump (plus slack so tiny maps don't thrash), which bounds both
// the log's memory and the replay cost on load.
const (
	deltaRatio = 8
	deltaSlack = 64
)

// Tracked is the storage engine's positional map: a hierarchical map with
// persistence bookkeeping — a generation counter naming the last fully
// serialized ordering (the "base"), and a bounded log of the mutations
// applied since. A saver with an up-to-date base persists O(ops) delta
// records per commit instead of re-emitting the O(n) ordering; a loader
// rebuilds the map from base + replay. The tree is unexported, so every
// mutation passes through the log.
type Tracked struct {
	h *Hierarchical
	// gen names the persisted base this log is relative to.
	gen uint64
	// ops is the replay log since the base; opUnits counts logged RIDs and
	// deleted positions (the size signal the ratio trigger uses).
	ops     []Op
	opUnits int
	// needFull forces a full rewrite on the next save: fresh maps and logs
	// that outgrew the ratio bound set it.
	needFull bool
	// savedOps counts the log prefix already persisted in the delta record,
	// so an unchanged log skips the delta rewrite entirely.
	savedOps int
}

// NewTracked builds an empty tracked map. A fresh map needs a full
// serialization first, so it starts with an empty log and needFull.
func NewTracked() *Tracked { return &Tracked{h: NewHierarchical(DefaultOrder), needFull: true} }

func (t *Tracked) log(op Op, units int) {
	if t.needFull {
		return
	}
	t.opUnits += units
	if t.opUnits > t.Len()/deltaRatio+deltaSlack {
		t.BeginDelta(t.gen)
		t.needFull = true
		return
	}
	t.ops = append(t.ops, op)
}

// Len returns the number of tracked tuples.
func (t *Tracked) Len() int { return t.h.Len() }

// Fetch returns the tuple pointer at the 1-based position.
func (t *Tracked) Fetch(pos int) (rdbms.RID, bool) { return t.h.Fetch(pos) }

// FetchRange returns the pointers for positions [pos, pos+count), clipped to
// the sequence.
func (t *Tracked) FetchRange(pos, count int) []rdbms.RID { return t.h.FetchRangeInto(nil, pos, count) }

// FetchRangeInto is FetchRange appending to dst (Hierarchical.FetchRangeInto).
func (t *Tracked) FetchRangeInto(dst []rdbms.RID, pos, count int) []rdbms.RID {
	return t.h.FetchRangeInto(dst, pos, count)
}

// Insert places rid at the position (Len()+1 appends), shifting subsequent
// tuples up.
func (t *Tracked) Insert(pos int, rid rdbms.RID) bool {
	if !t.h.Insert(pos, rid) {
		return false
	}
	t.log(Op{Kind: OpInsert, Pos: pos, RIDs: []rdbms.RID{rid}}, 1)
	return true
}

// InsertMany places rids consecutively starting at pos, shifting subsequent
// tuples up by len(rids).
func (t *Tracked) InsertMany(pos int, rids []rdbms.RID) bool {
	if !t.h.InsertMany(pos, rids) {
		return false
	}
	if len(rids) > 0 {
		t.log(Op{Kind: OpInsert, Pos: pos, RIDs: append([]rdbms.RID(nil), rids...)}, len(rids))
	}
	return true
}

// DeleteMany removes positions [pos, pos+count), clipped to the sequence,
// returning the removed pointers in order.
func (t *Tracked) DeleteMany(pos, count int) []rdbms.RID {
	out := t.h.DeleteMany(pos, count)
	if len(out) > 0 {
		t.log(Op{Kind: OpDelete, Pos: max(pos, 1), N: len(out)}, len(out))
	}
	return out
}

// Update replaces the pointer at the position (a tuple moved in the heap).
func (t *Tracked) Update(pos int, rid rdbms.RID) bool {
	if !t.h.Update(pos, rid) {
		return false
	}
	t.log(Op{Kind: OpUpdate, Pos: pos, RIDs: []rdbms.RID{rid}}, 1)
	return true
}

// Gen returns the generation of the persisted base the log is relative to.
func (t *Tracked) Gen() uint64 { return t.gen }

// NeedsFull reports whether the next save must rewrite the full ordering:
// no base yet, or an outgrown log.
func (t *Tracked) NeedsFull() bool { return t.needFull }

// Ops returns the replay log accumulated since the base. The slice is owned
// by the wrapper; callers serialize it without holding on to it.
func (t *Tracked) Ops() []Op { return t.ops }

// DeltaDirty reports whether the log gained ops since MarkDeltaSaved.
func (t *Tracked) DeltaDirty() bool { return len(t.ops) != t.savedOps }

// MarkBase records that the full ordering was just persisted under a new
// generation (returned), resetting the log.
func (t *Tracked) MarkBase() uint64 {
	t.BeginDelta(t.gen + 1)
	return t.gen
}

// MarkDeltaSaved records that the current log was just persisted.
func (t *Tracked) MarkDeltaSaved() { t.savedOps = len(t.ops) }

// BeginDelta is the load-side counterpart of MarkBase: the caller has just
// rebuilt the map to the persisted base of generation gen and is about to
// replay the persisted delta ops through Apply (re-logging them), after
// which MarkDeltaSaved restores the saved-prefix mark.
func (t *Tracked) BeginDelta(gen uint64) {
	t.gen = gen
	t.ops = nil
	t.opUnits = 0
	t.savedOps = 0
	t.needFull = false
}

// Apply replays one logged op through the wrapper, erroring when the op no
// longer fits the map (a corrupt or misordered delta).
func (t *Tracked) Apply(op Op) error {
	switch op.Kind {
	case OpInsert:
		if !t.InsertMany(op.Pos, op.RIDs) {
			return fmt.Errorf("posmap: replay insert of %d at %d (len %d)", len(op.RIDs), op.Pos, t.Len())
		}
	case OpDelete:
		if got := len(t.DeleteMany(op.Pos, op.N)); got != op.N {
			return fmt.Errorf("posmap: replay delete of %d at %d removed %d (len %d)", op.N, op.Pos, got, t.Len())
		}
	case OpUpdate:
		if len(op.RIDs) != 1 || !t.Update(op.Pos, op.RIDs[0]) {
			return fmt.Errorf("posmap: replay update at %d (len %d)", op.Pos, t.Len())
		}
	default:
		return fmt.Errorf("posmap: unknown replay op kind %d", op.Kind)
	}
	return nil
}

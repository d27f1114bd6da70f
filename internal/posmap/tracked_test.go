package posmap

import (
	"math/rand"
	"slices"
	"testing"

	"dataspread/internal/rdbms"
)

// TestTrackedReplayEquivalence: replaying the op log over the base dump
// reproduces the live ordering exactly, across random mutation mixes.
func TestTrackedReplayEquivalence(t *testing.T) {
	t.Run("hierarchical", func(t *testing.T) {
		live := NewTracked()
		rng := rand.New(rand.NewSource(7))
		seed := make([]rdbms.RID, 500)
		for i := range seed {
			seed[i] = rid(i + 1)
		}
		if !live.InsertMany(1, seed) {
			t.Fatal("seed insert failed")
		}
		base := live.FetchRange(1, live.Len())
		gen := live.MarkBase()

		for i := 0; i < 40; i++ {
			switch rng.Intn(3) {
			case 0:
				live.Insert(rng.Intn(live.Len()+1)+1, rid(1000+i))
			case 1:
				if live.Len() > 2 {
					live.DeleteMany(rng.Intn(live.Len()-1)+1, rng.Intn(2)+1)
				}
			case 2:
				live.Update(rng.Intn(live.Len())+1, rid(2000+i))
			}
		}
		if live.NeedsFull() {
			t.Fatal("40 ops on 500 entries should stay within the delta ratio")
		}

		replayed := NewTracked()
		replayed.InsertMany(1, base)
		replayed.BeginDelta(gen)
		for _, op := range live.Ops() {
			if err := replayed.Apply(op); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := replayed.FetchRange(1, replayed.Len()), live.FetchRange(1, live.Len()); !slices.Equal(got, want) {
			t.Fatalf("replayed %v, want %v", got, want)
		}
	})
}

// TestTrackedDirtinessProtocol: fresh maps need a full write, MarkBase
// clears it, and the ratio bound trips it again.
func TestTrackedDirtinessProtocol(t *testing.T) {
	tr := NewTracked()
	if !tr.NeedsFull() {
		t.Fatal("fresh map must need a full write")
	}
	for i := 1; i <= 100; i++ {
		tr.Insert(i, rid(i))
	}
	tr.MarkBase()
	if tr.NeedsFull() || tr.DeltaDirty() {
		t.Fatal("just-based map must be clean")
	}
	tr.Insert(5, rid(999))
	if tr.NeedsFull() || !tr.DeltaDirty() {
		t.Fatal("one op must dirty the delta, not force a full write")
	}
	tr.MarkDeltaSaved()
	if tr.DeltaDirty() {
		t.Fatal("saved delta must be clean")
	}
	// Outgrow the ratio bound (Len()/8 + 64 units, with Len growing as the
	// inserts land).
	for i := 0; i < 150; i++ {
		tr.Insert(1, rid(3000+i))
	}
	if !tr.NeedsFull() {
		t.Fatal("outgrown op log must force a full write")
	}
	if len(tr.Ops()) != 0 {
		t.Fatal("outgrown op log must be discarded")
	}
}

// TestTrackedNoOpDeleteStaysClean: a delete that removes nothing logs
// nothing, so it neither forces a full rewrite nor dirties the delta.
func TestTrackedNoOpDeleteStaysClean(t *testing.T) {
	tr := NewTracked()
	for i := 1; i <= 10; i++ {
		tr.Insert(i, rid(i))
	}
	tr.MarkBase()
	if got := tr.DeleteMany(50, 3); len(got) != 0 {
		t.Fatalf("out-of-range delete removed %d", len(got))
	}
	if tr.NeedsFull() {
		t.Error("no-op delete tripped NeedsFull")
	}
	if tr.DeltaDirty() {
		t.Error("no-op delete dirtied the delta")
	}
}

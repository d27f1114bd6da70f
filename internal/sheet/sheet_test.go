package sheet

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestSheetSetGetClear(t *testing.T) {
	s := New("t")
	s.SetValue(2, 3, Number(7))
	if got := s.GetRC(2, 3).Value; !got.Equal(Number(7)) {
		t.Fatalf("GetRC = %v", got)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	s.Clear(Ref{2, 3})
	if s.Len() != 0 || s.Filled(Ref{2, 3}) {
		t.Fatal("Clear failed")
	}
	// Setting a blank cell removes.
	s.SetValue(1, 1, Number(1))
	s.Set(Ref{1, 1}, Cell{})
	if s.Len() != 0 {
		t.Fatal("setting blank should delete")
	}
}

func TestSheetFormula(t *testing.T) {
	s := New("t")
	s.SetFormula(1, 6, "AVERAGE(B2:C2)+D2+E2")
	c := s.GetRC(1, 6)
	if !c.HasFormula() || c.Formula != "AVERAGE(B2:C2)+D2+E2" {
		t.Fatalf("formula cell = %+v", c)
	}
	if c.IsBlank() {
		t.Fatal("formula cell is not blank")
	}
}

func TestBoundsAndDensity(t *testing.T) {
	s := New("t")
	if _, ok := s.Bounds(); ok {
		t.Fatal("empty sheet has no bounds")
	}
	if s.Density() != 0 {
		t.Fatal("empty density must be 0")
	}
	s.SetValue(2, 2, Number(1))
	s.SetValue(5, 4, Number(1))
	g, ok := s.Bounds()
	if !ok || g != NewRange(2, 2, 5, 4) {
		t.Fatalf("Bounds = %v ok=%v", g, ok)
	}
	// 2 filled out of 4x3=12.
	if d := s.Density(); d < 0.166 || d > 0.167 {
		t.Fatalf("Density = %v", d)
	}
}

func TestCountInRange(t *testing.T) {
	s := New("t")
	for row := 1; row <= 10; row++ {
		for col := 1; col <= 10; col++ {
			if (row+col)%2 == 0 {
				s.SetValue(row, col, Number(1))
			}
		}
	}
	// Both scan strategies must agree.
	small := NewRange(1, 1, 3, 3)
	big := NewRange(1, 1, 10, 10)
	if got := s.CountInRange(small); got != 5 {
		t.Fatalf("CountInRange(small) = %d", got)
	}
	if got := s.CountInRange(big); got != 50 {
		t.Fatalf("CountInRange(big) = %d", got)
	}
}

func TestGetRange(t *testing.T) {
	s := New("t")
	s.SetValue(1, 1, Number(1))
	s.SetValue(2, 2, Number(4))
	m := s.GetRange(NewRange(1, 1, 2, 2))
	if len(m) != 2 || len(m[0]) != 2 {
		t.Fatalf("matrix dims wrong: %v", m)
	}
	if !m[0][0].Value.Equal(Number(1)) || !m[1][1].Value.Equal(Number(4)) {
		t.Fatalf("matrix contents wrong: %v", m)
	}
	if !m[0][1].IsBlank() || !m[1][0].IsBlank() {
		t.Fatal("unfilled cells must be blank")
	}
}

func TestInsertDeleteRow(t *testing.T) {
	s := New("t")
	for row := 1; row <= 3; row++ {
		s.SetValue(row, 1, Number(float64(row)))
	}
	s.InsertRowAfter(1) // rows 2,3 -> 3,4
	if !s.GetRC(1, 1).Value.Equal(Number(1)) {
		t.Fatal("row 1 moved")
	}
	if !s.GetRC(3, 1).Value.Equal(Number(2)) || !s.GetRC(4, 1).Value.Equal(Number(3)) {
		t.Fatal("rows below insertion did not shift")
	}
	if s.Filled(Ref{2, 1}) {
		t.Fatal("inserted row must be empty")
	}
	s.DeleteRow(2) // undo
	for row := 1; row <= 3; row++ {
		if !s.GetRC(row, 1).Value.Equal(Number(float64(row))) {
			t.Fatalf("delete did not restore row %d", row)
		}
	}
	// Deleting a filled row drops its cells.
	s.DeleteRow(2)
	if s.Filled(Ref{3, 1}) {
		t.Fatal("rows below deleted row must shift up")
	}
	if !s.GetRC(2, 1).Value.Equal(Number(3)) {
		t.Fatal("shifted value wrong after delete")
	}
}

func TestInsertDeleteColumn(t *testing.T) {
	s := New("t")
	for col := 1; col <= 3; col++ {
		s.SetValue(1, col, Number(float64(col)))
	}
	s.InsertColumnAfter(2)
	if !s.GetRC(1, 4).Value.Equal(Number(3)) || s.Filled(Ref{1, 3}) {
		t.Fatal("column insert shift wrong")
	}
	s.DeleteColumn(3)
	if !s.GetRC(1, 3).Value.Equal(Number(3)) {
		t.Fatal("column delete shift wrong")
	}
	s.DeleteColumn(1)
	if !s.GetRC(1, 1).Value.Equal(Number(2)) || s.Len() != 2 {
		t.Fatal("delete of filled column wrong")
	}
}

func TestInsertDeleteRowInverse(t *testing.T) {
	f := func(seed int64, afterRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New("p")
		for i := 0; i < 40; i++ {
			s.SetValue(rng.Intn(12)+1, rng.Intn(12)+1, Number(float64(i)))
		}
		after := int(afterRaw%12) + 1
		orig := s.Clone()
		s.InsertRowAfter(after)
		s.DeleteRow(after + 1)
		if s.Len() != orig.Len() {
			return false
		}
		equal := true
		orig.Each(func(r Ref, c Cell) {
			if !s.Get(r).Value.Equal(c.Value) {
				equal = false
			}
		})
		return equal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEachSortedDeterministic(t *testing.T) {
	s := New("t")
	s.SetValue(2, 1, Number(3))
	s.SetValue(1, 2, Number(2))
	s.SetValue(1, 1, Number(1))
	var got []Ref
	s.EachSorted(func(r Ref, _ Cell) { got = append(got, r) })
	want := []Ref{{1, 1}, {1, 2}, {2, 1}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("EachSorted order = %v", got)
		}
	}
}

// TestEachSortedMatchesSortOrder: EachSorted visits every cell, with its
// contents, in the order a comparison sort of the references gives, on dense
// sheets (the counting sort) and sparse ones with far-apart rows.
func TestEachSortedMatchesSortOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		s := New("t")
		rowSpan := []int{1, 10, 500, 1 << 28}[trial%4]
		for range rng.Intn(400) {
			s.SetValue(rng.Intn(rowSpan)+1, rng.Intn(40)+1, Number(float64(rng.Intn(1000))))
		}
		want := make([]Ref, 0, s.Len())
		for r := range s.cells {
			want = append(want, r)
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Row != want[j].Row {
				return want[i].Row < want[j].Row
			}
			return want[i].Col < want[j].Col
		})
		var got []Ref
		s.EachSorted(func(r Ref, c Cell) {
			if c != s.Get(r) {
				t.Fatalf("trial %d: %v visited with %+v, holds %+v", trial, r, c, s.Get(r))
			}
			got = append(got, r)
		})
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (rows 1..%d): EachSorted order %v, sorted %v", trial, rowSpan, got, want)
		}
	}
}

func TestGrid(t *testing.T) {
	s := New("t")
	s.SetValue(3, 2, Number(1))
	s.SetValue(5, 4, Number(1))
	grid, box, ok := s.Grid()
	if !ok || box != NewRange(3, 2, 5, 4) {
		t.Fatalf("Grid box = %v", box)
	}
	if !grid[0][0] || !grid[2][2] || grid[1][1] {
		t.Fatalf("Grid contents = %v", grid)
	}
	if _, _, ok := New("e").Grid(); ok {
		t.Fatal("empty sheet must have no grid")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New("t")
	s.SetValue(1, 1, Number(1))
	c := s.Clone()
	c.SetValue(1, 1, Number(2))
	if !s.GetRC(1, 1).Value.Equal(Number(1)) {
		t.Fatal("Clone is not independent")
	}
}

package rdbms

import (
	"path/filepath"
	"reflect"
	"testing"
)

// TestIOStatsCountersCoverStruct: the field table lists every IOStats field
// once, in declaration order — a field missing from it would silently drop
// off the stats wire.
func TestIOStatsCountersCoverStruct(t *testing.T) {
	var s IOStats
	v := reflect.ValueOf(&s).Elem()
	table := s.Counters()
	if len(table) != v.NumField() {
		t.Fatalf("Counters lists %d fields, IOStats has %d", len(table), v.NumField())
	}
	for i, p := range table {
		if p != v.Field(i).Addr().Interface().(*int64) {
			t.Errorf("Counters()[%d] is not field %s", i, v.Type().Field(i).Name)
		}
	}
}

// TestPagerCountersFillAndReset: every cumulative pager counter reaches its
// IOStats field, and ResetStats zeroes each of them while leaving the gauges
// (live segments, durable generation) alone.
func TestPagerCountersFillAndReset(t *testing.T) {
	db, err := OpenFile(filepath.Join(t.TempDir(), "c.dsdb"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fp := db.disk
	for i, c := range fp.counters(&IOStats{}) {
		c.ctr.Store(int64(i + 1))
	}
	st := db.Pool().Stats()
	for i, c := range fp.counters(&st) {
		if *c.field != int64(i+1) {
			t.Errorf("pager counter %d reported as %d", i+1, *c.field)
		}
	}
	db.Pool().ResetStats()
	st = db.Pool().Stats()
	for i, c := range fp.counters(&st) {
		if c.ctr.Load() != 0 {
			t.Errorf("pager counter %d survived ResetStats", i+1)
		}
	}
	if st.WALSegments != 1 {
		t.Errorf("WALSegments gauge = %d after reset, want 1", st.WALSegments)
	}
}

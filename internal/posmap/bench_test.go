package posmap

import (
	"math/rand"
	"testing"

	"dataspread/internal/rdbms"
)

func benchMap(b *testing.B, scheme string, n int, op func(m Map, rng *rand.Rand)) {
	b.Helper()
	m := New(scheme)
	for i := 1; i <= n; i++ {
		m.Insert(i, rdbms.RID{Page: rdbms.PageID(i)})
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(m, rng)
	}
}

func BenchmarkHierarchicalFetch1M(b *testing.B) {
	benchMap(b, "hierarchical", 1_000_000, func(m Map, rng *rand.Rand) {
		m.Fetch(rng.Intn(m.Len()) + 1)
	})
}

func BenchmarkHierarchicalInsert1M(b *testing.B) {
	benchMap(b, "hierarchical", 1_000_000, func(m Map, rng *rand.Rand) {
		m.Insert(rng.Intn(m.Len()+1)+1, rdbms.RID{})
	})
}

func BenchmarkHierarchicalDelete1M(b *testing.B) {
	benchMap(b, "hierarchical", 1_000_000, func(m Map, rng *rand.Rand) {
		if m.Len() > 0 {
			m.Delete(rng.Intn(m.Len()) + 1)
		}
	})
}

func BenchmarkHierarchicalFetchRange1M(b *testing.B) {
	benchMap(b, "hierarchical", 1_000_000, func(m Map, rng *rand.Rand) {
		m.(*Hierarchical).FetchRangeInto(nil, rng.Intn(m.Len()-100)+1, 100)
	})
}

func BenchmarkPositionAsIsFetch100k(b *testing.B) {
	benchMap(b, "position-as-is", 100_000, func(m Map, rng *rand.Rand) {
		m.Fetch(rng.Intn(m.Len()) + 1)
	})
}

func BenchmarkPositionAsIsInsert10k(b *testing.B) {
	// The cascading baseline: kept small or the benchmark never ends.
	benchMap(b, "position-as-is", 10_000, func(m Map, rng *rand.Rand) {
		m.Insert(rng.Intn(m.Len()+1)+1, rdbms.RID{})
	})
}

func BenchmarkMonotonicFetch100k(b *testing.B) {
	benchMap(b, "monotonic", 100_000, func(m Map, rng *rand.Rand) {
		m.Fetch(rng.Intn(m.Len()) + 1)
	})
}

func BenchmarkMonotonicInsert100k(b *testing.B) {
	benchMap(b, "monotonic", 100_000, func(m Map, rng *rand.Rand) {
		m.Insert(rng.Intn(m.Len()+1)+1, rdbms.RID{})
	})
}

// BenchmarkFetchRangeAllocs quantifies the read-path allocation win of
// FetchRangeInto: a nil buffer allocates a fresh slice per call, while the
// viewport hot loop hands it the same buffer every time — allocs/op drops
// to zero.
func BenchmarkFetchRangeAllocs(b *testing.B) {
	m := NewHierarchical(DefaultOrder)
	for i := 1; i <= 1_000_000; i++ {
		m.Insert(i, rdbms.RID{Page: rdbms.PageID(i)})
	}
	rng := rand.New(rand.NewSource(1))
	b.Run("FetchRange", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.FetchRangeInto(nil, rng.Intn(m.Len()-100)+1, 100)
		}
	})
	b.Run("FetchRangeInto", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]rdbms.RID, 0, 100)
		for i := 0; i < b.N; i++ {
			buf = m.FetchRangeInto(buf[:0], rng.Intn(m.Len()-100)+1, 100)
		}
	})
}

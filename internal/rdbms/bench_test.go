package rdbms

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkBTreeInsert(b *testing.B) {
	bt := NewBTree(64)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.Insert(rng.Int63(), RID{Page: PageID(i)})
	}
}

func BenchmarkBTreeSearch1M(b *testing.B) {
	bt := NewBTree(64)
	for i := int64(0); i < 1_000_000; i++ {
		bt.Insert(i, RID{Page: PageID(i)})
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.Search(rng.Int63n(1_000_000))
	}
}

func BenchmarkBTreeScan100(b *testing.B) {
	bt := NewBTree(64)
	for i := int64(0); i < 1_000_000; i++ {
		bt.Insert(i, RID{Page: PageID(i)})
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Int63n(999_900)
		n := 0
		bt.Scan(lo, lo+99, func(int64, RID) bool { n++; return true })
	}
}

func BenchmarkHeapInsert(b *testing.B) {
	disk := memFilePager(b)
	h := newHeapFile(disk, newBufferPool(disk, 1024))
	row := Row{Int(1), Text("benchmark-row-payload"), Float(3.14)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.insert(row); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeapGet(b *testing.B) {
	disk := memFilePager(b)
	h := newHeapFile(disk, newBufferPool(disk, 1024))
	rids := make([]RID, 10_000)
	for i := range rids {
		rid, _ := h.insert(Row{Int(int64(i)), Text("payload")})
		rids[i] = rid
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.get(rids[rng.Intn(len(rids))], nil)
	}
}

func BenchmarkRowCodec(b *testing.B) {
	row := Row{Int(123456), Text("a moderately sized text payload"), Float(2.718), Bool(true), Null}
	buf := encodeRow(nil, row)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = encodeRow(buf[:0], row)
		if _, err := decodeRow(buf, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func benchQueryDB(b *testing.B, rows int) *DB {
	b.Helper()
	db := Open(Options{})
	db.MustExec("CREATE TABLE bench (id BIGINT, grp BIGINT, val DOUBLE, name TEXT)")
	t := db.Table("bench")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < rows; i++ {
		if _, err := t.Insert(Row{
			Int(int64(i)), Int(int64(i % 100)), Float(rng.Float64() * 1000),
			Text(fmt.Sprintf("name%d", i%1000)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

func BenchmarkSQLPointSelect(b *testing.B) {
	db := benchQueryDB(b, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("SELECT val FROM bench WHERE id = ?", Int(int64(i%10_000))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSQLGroupBy(b *testing.B) {
	db := benchQueryDB(b, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("SELECT grp, SUM(val), COUNT(*) FROM bench GROUP BY grp"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSQLParseOnly(b *testing.B) {
	const q = `SELECT s.name, SUM(i.amount) total FROM invoice i
		JOIN supp s ON i.suppid = s.suppid
		WHERE NOT i.paid GROUP BY s.name HAVING COUNT(*) > 1 ORDER BY total DESC LIMIT 10`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := parseSQL(q); err != nil {
			b.Fatal(err)
		}
	}
}

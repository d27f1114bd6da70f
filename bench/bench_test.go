package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"dataspread/internal/sheet"
)

const smokeScale = 0.02

// TestSmoke runs every workload far below its sample floors, untraced and
// traced on one seed: every named metric must come out, no op may fail, and
// everything that is a count must repeat exactly.
func TestSmoke(t *testing.T) {
	for _, w := range workloads() {
		w := w.scaled(smokeScale)
		t.Run(w.Name, func(t *testing.T) {
			dir := t.TempDir()
			tr := newTracer()
			var runs [2]*result
			for i, tracer := range []*tracer{nil, tr} {
				res, err := runWorkload(w, 7, dir, tracer)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 {
					t.Fatalf("run %d: %d ops failed: %s", i, res.Failed, res.FirstFailure)
				}
				for _, m := range endToEnd {
					if v, ok := res.E2E[m.Name]; !ok || !(v > 0) || math.IsInf(v, 0) {
						t.Errorf("run %d: end-to-end metric %s = %v (present %v)", i, m.Name, v, ok)
					}
				}
				runs[i] = res
			}
			for _, name := range []string{"disk_bytes_per_cell", "wal_bytes_per_cell"} {
				// Beside clock-paced background traffic the recalc scheduler
				// commits its drains in a number of steps that follows the
				// clock, and the WAL bytes with it.
				if name == "wal_bytes_per_cell" && w.BgWriteHz > 0 {
					continue
				}
				if a, b := runs[0].E2E[name], runs[1].E2E[name]; a != b {
					t.Errorf("%s differs between two runs of one seed: %v vs %v", name, a, b)
				}
			}
			if !reflect.DeepEqual(runs[0].Ops, runs[1].Ops) || runs[0].Attempted != runs[1].Attempted {
				t.Errorf("op counts differ between two runs of one seed: %v (%d) vs %v (%d)",
					runs[0].Ops, runs[0].Attempted, runs[1].Ops, runs[1].Attempted)
			}
			for _, m := range perLayer {
				if v, ok := runs[1].Layer[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v (present %v)", m.Name, v, ok)
				}
			}
			if len(tr.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 0 {
				t.Errorf("%d working directories left behind", len(entries))
			}
		})
	}
}

// TestSeedDrivesRequests checks that sheet contents, viewport walk and edit
// targets all follow the seed, and only the seed.
func TestSeedDrivesRequests(t *testing.T) {
	w := workloads()[0].scaled(smokeScale)
	requests := func(seed uint64) (views []sheet.Range, edits []sheet.Ref, inputs []string) {
		r := &runner{w: w, rng: rand.New(rand.NewSource(int64(seed))), step: viewRows / 2}
		r.o = newOracle(seed, w.main(), 0)
		for i := 0; i < 20; i++ {
			views = append(views, r.nextView(r.rng, true))
			ref := r.editTarget()
			edits = append(edits, ref)
			inputs = append(inputs, r.o.input(ref.Row, ref.Col, 1))
		}
		return
	}
	v1, e1, i1 := requests(1)
	v1b, e1b, i1b := requests(1)
	v2, e2, i2 := requests(2)
	if !reflect.DeepEqual(v1, v1b) || !reflect.DeepEqual(e1, e1b) || !reflect.DeepEqual(i1, i1b) {
		t.Error("the same seed generated different requests")
	}
	if reflect.DeepEqual(v1, v2) || reflect.DeepEqual(e1, e2) || reflect.DeepEqual(i1, i2) {
		t.Error("a different seed generated the same requests")
	}
	if dataValue(1, 0, 10, 3, 0) == dataValue(2, 0, 10, 3, 0) {
		t.Error("sheet contents do not depend on the seed")
	}
}

// TestOracleRejects makes sure the checker is not vacuous: a reply built
// from the oracle passes, and one wrong, missing or extra cell fails.
func TestOracleRejects(t *testing.T) {
	spec := workloads()[3].scaled(smokeScale).Sheets[1]
	o := newOracle(3, &spec, 1)
	g := spec.blockRect(1, 0)
	g.To.Row, g.To.Col = g.From.Row+9, g.From.Col+9
	sh, _ := spec.build(3, 1)
	reply := sh.GetRange(g)
	if err := o.check(g, reply, latest); err != nil {
		t.Fatalf("reply from the generator rejected: %v", err)
	}
	var filled, empty *sheet.Cell
	for i := range reply {
		for j := range reply[i] {
			if reply[i][j].Value.IsEmpty() {
				empty = &reply[i][j]
			} else {
				filled = &reply[i][j]
			}
		}
	}
	if filled == nil || empty == nil {
		t.Fatalf("want both a filled and an empty cell in %v", g)
	}
	old := *filled
	*filled = sheet.Cell{Value: sheet.Number(1)}
	if o.check(g, reply, latest) == nil {
		t.Error("wrong value accepted")
	}
	*filled = sheet.Cell{}
	if o.check(g, reply, latest) == nil {
		t.Error("missing value accepted")
	}
	*filled = old
	*empty = sheet.Cell{Value: sheet.Number(1)}
	if o.check(g, reply, latest) == nil {
		t.Error("value in an empty cell accepted")
	}
	// A write acknowledged at generation 5 is invisible to a read stamped 4.
	a := o.addArea(g)
	a.hist = append(a.hist, stamp{gen: 5, version: 1})
	reply = sh.GetRange(g)
	if o.check(g, reply, 5) == nil {
		t.Error("read at the write's generation accepted without the write")
	}
	for i := range reply {
		for j := range reply[i] {
			reply[i][j] = sheet.Cell{} // and pasted areas are dense
		}
	}
	if o.check(g, reply, 4) == nil {
		t.Error("blanked reply accepted")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's own metric and
// workload tables from drifting apart.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the program's:\n%v\n%v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the program's")
	}
	specs := workloads()
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(specs))
	}
	for i, w := range specs {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, doc.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
}

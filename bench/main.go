// Command bench is the repository's one benchmark: four served workloads,
// twelve end-to-end metrics, and a traced run that probes each layer. See
// README.md in this directory for definitions and for how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricDef names a metric the way BENCHMARK.json does. Bound is the share
// of the previous median an end-to-end metric may worsen by before it
// counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"view_p50_ms", "ms", "lower", 0.25},
	{"view_p95_ms", "ms", "lower", 0.25},
	{"paste_cells_per_s", "cells/s", "higher", 0.25},
	{"tick_view_p50_ms", "ms", "lower", 0.25},
	{"recalc_cells_per_s", "cells/s", "higher", 0.25},
	{"open_view_p50_ms", "ms", "lower", 0.25},
	{"disk_bytes_per_cell", "B/cell", "lower", 0.01},
	{"wal_bytes_per_cell", "B/cell", "lower", 0.03},
	{"mem_heap_mb", "MB", "lower", 0.10},
}

// cleaner removes the run's working directories on every way out, a signal
// included.
type cleaner struct {
	mu   sync.Mutex
	dirs map[string]bool
}

var cleanup = &cleaner{dirs: map[string]bool{}}

func (c *cleaner) add(dir string) {
	c.mu.Lock()
	c.dirs[dir] = true
	c.mu.Unlock()
}

func (c *cleaner) remove(dir string) {
	os.RemoveAll(dir)
	c.mu.Lock()
	delete(c.dirs, dir)
	c.mu.Unlock()
}

func (c *cleaner) all() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for d := range c.dirs {
		os.RemoveAll(d)
	}
}

func fatal(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...)
	cleanup.all()
	os.Exit(1)
}

// workDir resolves where database files go: never under the source tree
// unless told so. Shared memory is preferred because on a shared VM the
// virtual disk's fsync time is the neighbour's, not the program's.
func workDir(flagDir string) (dir, kind string) {
	dir = flagDir
	if dir == "" {
		dir = os.TempDir()
		if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
			dir = "/dev/shm"
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal("working directory: %v", err)
	}
	kind = "disk"
	if strings.HasPrefix(dir, "/dev/shm") {
		kind = "tmpfs"
	}
	return dir, kind
}

type environment struct {
	Go          string `json:"go"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	OSArch      string `json:"os_arch"`
	Storage     string `json:"storage"`
	FlushPolicy string `json:"flush_policy"`
	GCPercent   int    `json:"gc_percent"`
	Rounds      int    `json:"rounds"`
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run")
		seed      = flag.Uint64("seed", 1, "seed of sheet contents, viewport walk and edit targets")
		_         = flag.Float64("seconds", 0, "accepted because the driver passes it: the op counts are sized for BENCHMARK.json's run_seconds and do not scale")
		trace     = flag.Int("trace", 0, "1: traced run, reports the per-layer metrics and writes spans (the driver passes the value as a word of its own, which a bool flag does not take)")
		dir       = flag.String("dir", "", "where database files go (default /dev/shm, else the temp dir)")
		spans     = flag.String("spans", "spans.jsonl", "where a traced run writes its spans")
		scale     = flag.Float64("scale", 1, "shrink sheets and op counts (smoke tests)")
		all       = flag.Bool("all", false, "run every workload untraced and traced; with -history, write the entry")
		history   = flag.String("history", "", "with -all: file to write the trajectory entry to")
		selfcheck = flag.Bool("selfcheck", false, "A/A test: every workload on the same seed, alternating runs on two sides, medians compared against the bounds")
	)
	flag.Parse()
	debug.SetGCPercent(100)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup.all()
		os.Exit(130)
	}()

	specs := workloads()
	base, kind := workDir(*dir)
	env := environment{
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		OSArch: runtime.GOOS + "/" + runtime.GOARCH, Storage: kind, FlushPolicy: flushPolicy,
		GCPercent: 100, Rounds: rounds,
	}
	if *scale != 1 {
		for i := range specs {
			specs[i] = specs[i].scaled(*scale)
		}
	}

	switch {
	case *selfcheck:
		os.Exit(runSelfcheck(specs, *seed, base, env))
	case *all:
		os.Exit(runAll(specs, *seed, base, env, *spans, *history))
	}
	for _, w := range specs {
		if w.Name != *workload {
			continue
		}
		var tr *tracer
		if *trace != 0 {
			tr = newTracer()
		}
		res, err := runWorkload(w, *seed, base, tr)
		if err != nil {
			fatal("%v", err)
		}
		if tr != nil {
			if err := tr.write(*spans); err != nil {
				fatal("write spans: %v", err)
			}
			fmt.Printf("spans: %d written to %s\n", len(tr.spans), *spans)
		}
		report(res, env)
		emit(res)
		if res.Failed > 0 {
			cleanup.all()
			os.Exit(1)
		}
		return
	}
	fatal("unknown workload %q (have %s)", *workload, workloadNames(specs))
}

func workloadNames(specs []workloadSpec) string {
	names := make([]string, len(specs))
	for i, w := range specs {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// report prints every metric by name and unit, with what stands behind it.
func report(res *result, env environment) {
	fmt.Printf("workload %s  seed %d  traced %v\n", res.Workload, res.Seed, res.Traced)
	fmt.Printf("  %s  GOMAXPROCS %d  %s  storage %s  gc %d%%\n", env.Go, env.GOMAXPROCS, env.OSArch, env.Storage, env.GCPercent)
	fmt.Printf("  flush policy: %s\n", env.FlushPolicy)
	fmt.Printf("  %d cells in %d file pages; cache %d tiles, pool %d pages; %d rounds, measured %.1f s\n",
		res.Cells, res.FilePages, res.CacheBlocks, res.PoolPages, env.Rounds, res.MeasureS)
	fmt.Printf("  timings at the machine speed where the speed kernel reads %.1f ms; it read %.2f ms over the rounds\n",
		kernelNominalMs, median(res.KernelMs["rounds"]))
	for _, m := range endToEnd {
		v, ok := res.E2E[m.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-22s %14.4f %-8s", m.Name, v, m.Unit)
		if t, ok := res.AsTimed[m.Name]; ok {
			line += fmt.Sprintf(" as timed %14.4f", t)
		}
		if n := res.Samples[m.Name]; n > 0 {
			per := "per round, median of rounds"
			if m.Name == "open_view_p50_ms" {
				per = "in all"
			}
			line += fmt.Sprintf(" (%d samples %s)", n, per)
		}
		fmt.Println(line)
	}
	if res.Traced {
		for _, m := range perLayer {
			if v, ok := res.Layer[m.Name]; ok {
				fmt.Printf("  %-30s %16.4f %s\n", m.Name, v, m.Unit)
			}
		}
	}
	phases := make([]string, 0, len(res.Ops))
	for p := range res.Ops {
		phases = append(phases, p)
	}
	sort.Strings(phases)
	fmt.Print("  foreground ops (phase seconds):")
	for _, p := range phases {
		fmt.Printf(" %s %d (%.2f)", p, res.Ops[p], res.PhaseS[p])
	}
	fmt.Printf(" build (%.2f)", res.PhaseS["build"])
	fmt.Printf("\n  attempted %d + %d background, failed %d; background lateness p95 %.3f ms; goroutines %d before, %d after\n",
		res.Attempted, res.Background, res.Failed, res.LatenessP95, res.Goroutines[0], res.Goroutines[1])
	if res.FirstFailure != "" {
		fmt.Printf("  first failure: %s\n", res.FirstFailure)
	}
	summary, _ := json.Marshal(struct {
		Env    environment `json:"env"`
		Result *result     `json:"result"`
		Claim  *string     `json:"claim"`
	}{env, res, nil})
	fmt.Printf("summary %s\n", summary)
}

// emit prints the line the driver reads: the last line of standard output.
func emit(res *result) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	defs, vals := endToEnd, res.E2E
	if res.Traced {
		defs, vals = perLayer, res.Layer
	}
	correct := res.Failed == 0
	for _, m := range defs {
		v, ok := vals[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "bench: metric %s missing\n", m.Name)
			correct = false
			v = 0
		}
		metrics[m.Name] = value{v, m.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, res.Attempted + res.Background, res.Failed, metrics})
	fmt.Printf("%s\n", line)
}

// selfcheckReps is how many runs each side of the A/A test takes. One pair
// of runs compares two moments of a shared machine more than two copies of
// the code; alternating medians of a few runs compare the code.
const selfcheckReps = 3

// runSelfcheck is the A/A test: the same code, seed and workload on both
// sides, runs alternating between them, and the relative difference of each
// end-to-end metric's side medians against its bound.
func runSelfcheck(specs []workloadSpec, seed uint64, dir string, env environment) int {
	fmt.Printf("A/A self-check: %d alternating runs a side, seed %d, storage %s, %s, GOMAXPROCS %d\n",
		selfcheckReps, seed, env.Storage, env.Go, env.GOMAXPROCS)
	fmt.Printf("| workload | metric | side A | side B | diff | bound | |\n|---|---|---|---|---|---|---|\n")
	breaches := 0
	for _, w := range specs {
		sides := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*selfcheckReps; i++ {
			res, err := runWorkload(w, seed, dir, nil)
			if err != nil {
				fatal("%v", err)
			}
			if res.Failed > 0 {
				fatal("%s: %d ops failed: %s", w.Name, res.Failed, res.FirstFailure)
			}
			for name, v := range res.E2E {
				sides[i%2][name] = append(sides[i%2][name], v)
			}
		}
		for _, m := range endToEnd {
			a, b := median(sides[0][m.Name]), median(sides[1][m.Name])
			diff := math.Abs(a-b) / math.Min(a, b)
			mark := "ok"
			if diff > m.Bound {
				mark = "BREACH"
				breaches++
			}
			fmt.Printf("| %s | %s | %.4f | %.4f | %.2f%% | %.0f%% | %s |\n", w.Name, m.Name, a, b, diff*100, m.Bound*100, mark)
		}
	}
	fmt.Printf("%d of %d metric x workload pairs outside their bound\n", breaches, len(specs)*len(endToEnd))
	if breaches > 0 {
		return 1
	}
	return 0
}

// runAll runs every workload untraced and then traced, prints both, and
// optionally writes the pair as one entry of the in-repo trajectory.
func runAll(specs []workloadSpec, seed uint64, dir string, env environment, spansPath, historyPath string) int {
	type entry struct {
		Untraced         *result `json:"untraced"`
		Traced           *result `json:"traced"`
		TraceOverheadPct float64 `json:"trace_overhead_pct"`
	}
	out := struct {
		Date      string           `json:"date"`
		Env       environment      `json:"env"`
		Seed      uint64           `json:"seed"`
		Workloads map[string]entry `json:"workloads"`
		Claim     *string          `json:"claim"`
	}{time.Now().UTC().Format("2006-01-02"), env, seed, map[string]entry{}, nil}
	failed := int64(0)
	for _, w := range specs {
		plain, err := runWorkload(w, seed, dir, nil)
		if err != nil {
			fatal("%v", err)
		}
		report(plain, env)
		tr := newTracer()
		traced, err := runWorkload(w, seed, dir, tr)
		if err != nil {
			fatal("%v", err)
		}
		path := strings.TrimSuffix(spansPath, ".jsonl") + "-" + w.Name + ".jsonl"
		if err := tr.write(path); err != nil {
			fatal("write spans: %v", err)
		}
		report(traced, env)
		// Tracing overhead: how much slower the traced rounds' client
		// latencies are than the untraced run's, averaged over the timings.
		timings := []string{"view_p50_ms", "view_p95_ms", "tick_view_p50_ms"}
		over := 0.0
		for _, name := range timings {
			over += (traced.E2E[name] - plain.E2E[name]) / plain.E2E[name] * 100
		}
		e := entry{plain, traced, over / float64(len(timings))}
		fmt.Printf("  trace_overhead_pct %.2f (%d spans in %s)\n", e.TraceOverheadPct, len(tr.spans), path)
		out.Workloads[w.Name] = e
		failed += plain.Failed + traced.Failed
	}
	if historyPath != "" {
		blob, _ := json.MarshalIndent(out, "", " ")
		if err := os.WriteFile(historyPath, append(blob, '\n'), 0o644); err != nil {
			fatal("write history: %v", err)
		}
	}
	fmt.Println(`"claim": null`)
	if failed > 0 {
		return 1
	}
	return 0
}

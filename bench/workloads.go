package main

import (
	"math"

	"dataspread/internal/sheet"
	"dataspread/internal/workload"
)

// rounds is how many times a run repeats the phase sequence; every timing
// metric is the median of the per-round statistics.
const rounds = 7

// Viewport is the repo's convention (workload.TickerSpec.Viewport,
// workload.MixedConfig): what one screen shows.
const (
	viewRows = 50
	viewCols = 10
)

// workloadSpec is one workload: its sheets, how much of the main sheet the
// program's caches hold, and the traffic of one round.
type workloadSpec struct {
	Name, Why string
	Sheets    []sheetSpec
	// Main indexes the sheet the phases run on.
	Main int
	// CacheShare and PoolShare size core.Options.CacheBlocks and
	// WithBufferPoolPages as a share of the main sheet's cache tiles and of
	// the checkpointed file's pages; 2 means everything stays resident.
	CacheShare, PoolShare float64
	// Per-round op counts.
	Views, Edits, Pastes, StructPairs, Ticks int
	// PasteRows x PasteCols cells is one paste batch; BgPasteRows x
	// PasteCols one background paste.
	PasteRows, PasteCols, BgPasteRows int
	// BgWriteHz paces background pastes during the view phase, BgReadHz
	// background views during edit, paste and struct (0: none). Open loop.
	BgWriteHz, BgReadHz int
	OpenCycles          int
	// KernelNumbers sizes the speed kernel (calib.go): the same for every
	// workload, smaller only in smoke tests, which read no timing.
	KernelNumbers int
}

// workloads returns the four workloads at full size. A round has at least
// 1000 views, so that a p95 keeps 50 beyond it; edits, pastes, structural
// ops, ticks and open cycles are fewer where one op is slow, to keep a run
// under half a minute while the machine is having a slow quarter of an hour.
func workloads() []workloadSpec {
	dense := func(name string, cone workload.TickerSpec, rows, sums int) sheetSpec {
		return sheetSpec{Name: name, Algo: "rom", Cone: cone, Bands: 1, PerBand: 1,
			BlockRows: rows, BlockCols: 16, Permille: 1000, SumRows: sums}
	}
	// 20,010 cells inside a tall sheet's 16 columns.
	narrowCone := workload.TickerSpec{Intermediates: 1334, LeavesPer: 14}
	base := workloadSpec{
		Views: 1000, Edits: 100, Pastes: 32, StructPairs: 20, Ticks: 3,
		PasteRows: 256, PasteCols: 16, BgPasteRows: 64, OpenCycles: 7, KernelNumbers: 1 << 15,
	}
	w := make([]workloadSpec, 4)
	for i := range w {
		w[i] = base
	}
	w[0].Name = "scroll-large"
	w[0].Why = "100,000x16 dense sheet (1.6M cells) in one row-oriented table, cell cache 5% of its tiles, buffer pool 10% of its pages: storage reads, posmap and cache misses carry a view"
	w[0].Sheets = []sheetSpec{dense("grid", narrowCone, 100000, 10000)}
	w[0].CacheShare, w[0].PoolShare = 0.05, 0.10
	w[0].Views, w[0].Ticks = 1200, 4

	w[1].Name = "edit-contended"
	w[1].Why = "resident 30,000x16 sheet with a row sum on every row; pastes at 20/s beside the views, views at 200/s beside the writes: latches, snapshots, wire codec and WAL commit carry it"
	w[1].Sheets = []sheetSpec{dense("grid", narrowCone, 30000, 30000)}
	w[1].CacheShare, w[1].PoolShare = 2, 2
	w[1].Views, w[1].Edits, w[1].StructPairs = 2500, 200, 3
	w[1].BgWriteHz, w[1].BgReadHz = 20, 200

	w[2].Name = "ticker-recalc"
	w[2].Why = "40,400-cell cone (workload.TickerMarket 400x100) over a resident 2,000x16 sheet, 2 ticks a round, nothing concurrent: depgraph, formula evaluation and the recalc scheduler carry it"
	w[2].Sheets = []sheetSpec{dense("market", workload.TickerSpec{Intermediates: 400, LeavesPer: 100}, 2000, 0)}
	w[2].CacheShare, w[2].PoolShare = 2, 2
	w[2].Ticks = 2

	w[3].Name = "import-open"
	w[3].Why = "4-sheet, 1.2M-cell workbook laid out by the hybrid optimizer (tall table; 12 gapped wide tables and a cone; 5%-dense form; 500-column table): decomposition, bulk load, manifests and open carry it"
	w[3].Sheets = []sheetSpec{
		{Name: "dense", Algo: "agg", Bands: 1, PerBand: 1, BlockRows: 18750, BlockCols: 16, Permille: 1000},
		{Name: "tables", Algo: "agg", Cone: workload.TickerSpec{Intermediates: 50, LeavesPer: 100}, Bands: 4, PerBand: 3,
			BlockRows: 100, BlockCols: 256, RowGutter: 3, ColGutter: 3, Diagonal: true, Permille: 900},
		{Name: "form", Algo: "agg", Bands: 1, PerBand: 1, BlockRows: 6000, BlockCols: 1000, Permille: 50},
		{Name: "wide", Algo: "agg", Bands: 1, PerBand: 1, BlockRows: 600, BlockCols: 500, Permille: 1000},
	}
	w[3].Main = 1
	w[3].CacheShare, w[3].PoolShare = 2, 2
	w[3].PasteRows, w[3].PasteCols = 16, 256
	w[3].Edits, w[3].Pastes = 40, 16
	return w
}

// scaled shrinks sheets and per-round op counts to size (smoke tests run
// far below the sample floors).
func (w workloadSpec) scaled(size float64) workloadSpec {
	sc := func(n int, floor int) int {
		if n == 0 {
			return 0
		}
		return max(floor, int(math.Round(float64(n)*size)))
	}
	sheets := make([]sheetSpec, len(w.Sheets))
	for i, s := range w.Sheets {
		s.Cone.Intermediates = sc(s.Cone.Intermediates, 8)
		s.BlockRows = sc(s.BlockRows, 48)
		s.SumRows = min(sc(s.SumRows, 1), s.BlockRows)
		sheets[i] = s
	}
	w.Sheets = sheets
	w.PasteRows = sc(w.PasteRows, 2)
	w.BgPasteRows = sc(w.BgPasteRows, 1)
	ops := math.Max(size, 0.05)
	opc := func(n int) int { return max(2, int(math.Round(float64(n)*ops))) }
	w.Views, w.Edits, w.Pastes, w.StructPairs = opc(w.Views), opc(w.Edits), opc(w.Pastes), opc(w.StructPairs)
	w.Ticks, w.OpenCycles = 2, 3
	w.KernelNumbers = sc(w.KernelNumbers, 64)
	return w
}

func (w *workloadSpec) main() *sheetSpec { return &w.Sheets[w.Main] }

// slots lays n disjoint h-row, w-column write areas into data blocks,
// top to bottom from band firstBand at offset rowOff into each block. The
// positions depend on the geometry alone, not the seed, so the pages a
// batch dirties — and the WAL bytes it costs — repeat across seeds.
func (s *sheetSpec) slots(n, h, w, firstBand, rowOff int) []sheet.Range {
	var out []sheet.Range
	gap := max(1, h/4)
	for b := firstBand; b < s.Bands; b++ {
		for k := 0; k < s.PerBand; k++ {
			g := s.blockRect(b, k)
			for off := rowOff; off+h <= s.BlockRows && len(out) < n; off += h + gap {
				out = append(out, sheet.NewRange(g.From.Row+off, g.From.Col, g.From.Row+off+h-1, g.From.Col+min(w, s.BlockCols)-1))
			}
		}
	}
	return out
}

const areaCount = 8

// pasteAreas are the rotating targets of the paste phase: the lower half of
// the sheet, clear of the struct phase's rows.
func (s *sheetSpec) pasteAreas(h, w int) []sheet.Range {
	if s.Bands == 1 {
		return s.slots(areaCount, h, w, 0, s.BlockRows/2+max(1, h/4))
	}
	return s.slots(areaCount, h, w, s.Bands/2, max(1, h/4))
}

// bgAreas are the background writer's targets: the top of the first band.
func (s *sheetSpec) bgAreas(h, w int) []sheet.Range {
	return s.slots(areaCount, h, w, 0, max(1, h/4))
}

// structRows bounds the rows the struct phase inserts after. Every formula
// below an inserted row is relocated and rewritten, at about 17 us each, so
// the rows are chosen to keep that number small and the same for every op —
// a p50 of one mode. Where the row sums stop in the first quarter of the
// body, that is the second quarter: the top half of the sheet, nothing to
// relocate. Where every row carries a sum, it is a narrow window near the
// bottom with body/60 formulas below it.
func (s *sheetSpec) structRows() (lo, hi int) {
	body := s.maxRow() - s.bodyTop() + 1
	if s.SumRows <= body/4 {
		return s.bodyTop() + body/4, s.bodyTop() + body/2 - 1
	}
	below := max(8, body/60)
	hi = s.maxRow() - below
	return hi - max(2, below/10), hi
}

// viewRects are the rectangles a viewport jump lands in: the cone block and
// every data block, less the row-sum column, whose cells may be awaiting
// recalculation while a background reader looks. A sheet of one block is
// one rectangle: the walk covers its full height.
func (s *sheetSpec) viewRects() []sheet.Range {
	if s.Bands*s.PerBand == 1 {
		return []sheet.Range{sheet.NewRange(1, 1, s.maxRow(), s.bandWidth())}
	}
	var out []sheet.Range
	if s.Cone.Intermediates > 0 {
		out = append(out, s.coneRect())
	}
	for b := 0; b < s.Bands; b++ {
		for k := 0; k < s.PerBand; k++ {
			out = append(out, s.blockRect(b, k))
		}
	}
	return out
}

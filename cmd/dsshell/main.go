// Command dsshell is a minimal interactive shell over the DataSpread engine:
// set cells and formulas, view regions, link tables, run read-only SQL.
//
//	> set A1 42
//	> set B1 =A1*2
//	> view A1:C3
//	> sql SELECT 1+1
//	> link A1:C4 mytable
//	> optimize agg
//	> quit
//
// The shell is a wire client in both of its modes. At start it serves its
// own database (-db <path>, or in memory) with an in-process serve.Server on
// a loopback port and connects to it; `.connect host:port [sheet]` swaps that
// client for one on a dsserver, and `.disconnect` swaps it back. Every
// command runs as the same requests either way: a `set` commits at once,
// `save` is a flush, `view` reports the snapshot generation it read, and a
// structural edit the generation it committed at. Only sql, link and
// optimize, which have no wire op, reach the in-process server's engine
// directly, and they refuse while connected elsewhere.
//
// With -db the session is durable: the sheet is reloaded from the data file
// on start (after WAL crash recovery), and quitting checkpoints and closes
// the database.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"dataspread/internal/core"
	"dataspread/internal/rdbms"
	"dataspread/internal/serve"
	"dataspread/internal/sheet"
	"dataspread/internal/workload"
)

const sheetName = "shell"

func main() {
	dbPath := flag.String("db", "", "durable database file (default: in-memory, nothing survives exit)")
	checkpointPages := flag.Int("checkpoint-pages", 0, "auto-checkpoint when this many pages are dirty since the last checkpoint (0: default 4096, negative: disable)")
	asyncRecalc := flag.Bool("async-recalc", false, "evaluate formula cones in the background; stale cells are flagged * in view until they converge")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "dsshell:", err)
		os.Exit(1)
	}
	var db *rdbms.DB
	var err error
	opts := rdbms.Options{AutoCheckpointPages: *checkpointPages}
	if *dbPath != "" {
		if db, err = rdbms.OpenFile(*dbPath, opts); err != nil {
			fail(err)
		}
	} else {
		db = rdbms.Open(opts)
	}
	reopened := slices.Contains(core.SheetNames(db), sheetName)
	srv := serve.New(db, core.Options{AsyncRecalc: *asyncRecalc})
	eng, err := srv.Engine(sheetName)
	if err != nil {
		fail(err)
	}
	if reopened {
		rows, cols := eng.Bounds()
		fmt.Printf("reopened %s (%dx%d used)\n", *dbPath, rows, cols)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	srv.Listen(ln)
	serving := make(chan error, 1)
	go func() { serving <- srv.Serve(ln) }()
	sh := &shell{srv: srv}
	if err := sh.dial(srv.Addr(), sheetName); err != nil {
		fail(err)
	}
	defer func() {
		sh.c.Close()
		// Close stops every sheet's background recalc (draining what is
		// pending) and saves it; closing the database then checkpoints.
		if err := errors.Join(srv.Close(), <-serving); err != nil {
			fmt.Fprintln(os.Stderr, "dsshell:", err)
		}
		if err := db.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "dsshell: close:", err)
		}
	}()

	fmt.Println("DataSpread shell. Commands: set <ref> <value|=formula>, view <range>,")
	fmt.Println("sql <select>, link <range> <table>, optimize <dp|greedy|agg>, insrow <n> [count],")
	fmt.Println("delrow <n> [count], inscol <n> [count], delcol <n> [count], load <file.grid>,")
	fmt.Println("save, .stats, .scrub [pages/sec], .vacuum, .recover,")
	fmt.Println(".backup <path>, .restore <backup> <dest> [archive-dir [gen]],")
	fmt.Println(".connect <host:port> [sheet], .disconnect, quit")
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if err := sh.dispatch(line); err != nil {
			if err == errQuit {
				return
			}
			fmt.Println("error:", err)
		}
	}
}

var errQuit = fmt.Errorf("quit")

// shell is the dispatch state: the in-process server over the shell's own
// database, and the session every command goes through — a client of that
// server, or of the one `.connect` named.
type shell struct {
	srv   *serve.Server
	c     *serve.Client
	sheet string
}

// dial makes a client of addr, with sheet name open, the session, closing
// the one before it.
func (sh *shell) dial(addr, name string) error {
	c, err := serve.Dial(addr)
	if err != nil {
		return err
	}
	if err := c.Open(name); err != nil {
		c.Close()
		return err
	}
	if sh.c != nil {
		sh.c.Close()
	}
	sh.c, sh.sheet = c, name
	return nil
}

// engine is the session sheet's engine on the in-process server, for the
// commands the wire does not carry; it refuses while connected elsewhere.
func (sh *shell) engine(cmd string) (*core.Engine, error) {
	if sh.c.Addr() != sh.srv.Addr() {
		return nil, fmt.Errorf("%s runs on the local engine; .disconnect first", cmd)
	}
	return sh.srv.Engine(sh.sheet)
}

func (sh *shell) dispatch(line string) error {
	cmd, rest, _ := strings.Cut(line, " ")
	cmd, rest = strings.ToLower(cmd), strings.TrimSpace(rest)
	switch cmd {
	case "quit", "exit":
		return errQuit
	case ".connect":
		fields := strings.Fields(rest)
		if len(fields) < 1 || len(fields) > 2 {
			return fmt.Errorf("usage: .connect <host:port> [sheet]")
		}
		name := sheetName
		if len(fields) == 2 {
			name = fields[1]
		}
		if err := sh.dial(fields[0], name); err != nil {
			return err
		}
		fmt.Printf("connected to %s, sheet %q (local engine parked; .disconnect to return)\n",
			sh.c.Addr(), name)
		return nil
	case ".disconnect":
		if err := sh.dial(sh.srv.Addr(), sheetName); err != nil {
			return err
		}
		fmt.Println("disconnected (back on the local engine)")
		return nil
	case ".stats", "stats":
		return sh.printStats()
	case ".scrub":
		rate := 0
		if rest != "" {
			var err error
			if rate, err = strconv.Atoi(rest); err != nil || rate < 0 {
				return fmt.Errorf("usage: .scrub [pages/sec]")
			}
		}
		res, err := sh.c.Scrub(rate)
		if err != nil {
			return err
		}
		fmt.Printf("scrub: %d slots clean, %d skipped, %d repaired, %d quarantined\n",
			res.Scanned, res.Skipped, len(res.Repaired), len(res.Bad))
		if len(res.Bad) > 0 {
			fmt.Printf("quarantined pages (degraded, reads of them fail): %v\n", res.Bad)
		}
		return nil
	case ".vacuum":
		res, err := sh.c.Vacuum()
		if err != nil {
			return err
		}
		fmt.Printf("vacuum: %d -> %d pages, %d meta pages moved, %d KiB reclaimed\n",
			res.PagesBefore, res.PagesAfter, res.PagesMoved, res.BytesReclaimed/1024)
		return nil
	case ".backup":
		if rest == "" {
			return fmt.Errorf("usage: .backup <path>")
		}
		f, err := os.OpenFile(rest, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return err
		}
		// Synced before success is reported.
		res, err := sh.c.Backup(f, 0)
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(rest)
			return err
		}
		fmt.Printf("backup: %d pages + %d free slots, %d KiB, pinned generation %d\n",
			res.Pages, res.FreePages, res.Bytes/1024, res.Gen)
		return nil
	case ".restore":
		fields := strings.Fields(rest)
		if len(fields) < 2 || len(fields) > 4 {
			return fmt.Errorf("usage: .restore <backup> <dest> [archive-dir [gen]]")
		}
		var opts rdbms.RestoreOptions
		if len(fields) >= 3 {
			opts.ArchiveDir = fields[2]
		}
		if len(fields) == 4 {
			gen, err := strconv.ParseUint(fields[3], 10, 64)
			if err != nil {
				return fmt.Errorf(".restore: bad generation %q", fields[3])
			}
			opts.TargetGen = gen
		}
		if err := rdbms.Restore(fields[0], fields[1], opts); err != nil {
			return err
		}
		fmt.Printf("restored %s -> %s (fully verified; open it with -db %s)\n",
			fields[0], fields[1], fields[1])
		return nil
	case ".recover":
		// The server drops every engine and reloads a sheet on its next use;
		// reopen the session's, which may never have been committed.
		if err := sh.c.Recover(); err != nil {
			return err
		}
		if err := sh.c.Open(sh.sheet); err != nil {
			return err
		}
		fmt.Println("recovered (server reopened its database; state is the last durable commit)")
		return nil
	case "save":
		if err := sh.c.CloseSheet(sh.sheet); err != nil {
			return err
		}
		fmt.Println("saved (WAL committed)")
		return nil
	case "set":
		refText, val, ok := strings.Cut(rest, " ")
		if !ok {
			return fmt.Errorf("usage: set <ref> <value>")
		}
		ref, err := sheet.ParseRef(refText)
		if err != nil {
			return err
		}
		_, err = sh.c.Set(sh.sheet, ref.Row, ref.Col, strings.TrimSpace(val))
		return err
	case "view":
		g, err := sheet.ParseRange(rest)
		if err != nil {
			return err
		}
		// The viewed range IS the session's viewport: tell the server so an
		// async recalc evaluates these cells ahead of the rest.
		if err := sh.c.RegisterViewport(sh.sheet, g.From.Row, g.From.Col, g.To.Row, g.To.Col); err != nil {
			return err
		}
		cells, pending, gen, err := sh.c.GetRangePending(sh.sheet, g.From.Row, g.From.Col, g.To.Row, g.To.Col)
		if err != nil {
			return err
		}
		printCells(g, cells, pending)
		fmt.Printf("(snapshot generation %d%s)\n", gen, pendingNote(pending))
		return nil
	case "sql":
		eng, err := sh.engine(cmd)
		if err != nil {
			return err
		}
		tv, err := eng.SQL(rest)
		if err != nil {
			return err
		}
		fmt.Println(strings.Join(tv.Cols, "\t"))
		for _, row := range tv.Rows {
			parts := make([]string, len(row))
			for i, v := range row {
				parts[i] = v.Text()
			}
			fmt.Println(strings.Join(parts, "\t"))
		}
		return nil
	case "link":
		eng, err := sh.engine(cmd)
		if err != nil {
			return err
		}
		rangeText, table, ok := strings.Cut(rest, " ")
		if !ok {
			return fmt.Errorf("usage: link <range> <table>")
		}
		g, err := sheet.ParseRange(rangeText)
		if err != nil {
			return err
		}
		_, err = eng.LinkTable(g, strings.TrimSpace(table))
		return err
	case "optimize":
		eng, err := sh.engine(cmd)
		if err != nil {
			return err
		}
		if rest == "" {
			rest = "agg"
		}
		res, err := eng.Optimize(rest, 1)
		if err != nil {
			return err
		}
		fmt.Printf("decomposition: %d regions, cost %.0f, migrated %d cells\n",
			len(res.Decomposition.Regions), res.StorageCost, res.MigratedCells)
		return nil
	case "load":
		f, err := os.Open(rest)
		if err != nil {
			return err
		}
		defer f.Close()
		s, err := workload.ReadGrid(f, rest)
		if err != nil {
			return err
		}
		// One set-cells batch: the server applies it as a single bulk write
		// (one WAL commit) while other clients keep reading the pre-load
		// snapshot.
		var edits []core.CellEdit
		s.EachSorted(func(r sheet.Ref, c sheet.Cell) {
			input := c.Value.Text()
			if c.HasFormula() {
				input = "=" + c.Formula
			}
			edits = append(edits, core.CellEdit{Row: r.Row, Col: r.Col, Input: input})
		})
		gen, err := sh.c.SetCells(sh.sheet, edits)
		if err != nil {
			return err
		}
		fmt.Printf("loaded %d cells (committed at generation %d)\n", len(edits), gen)
		return nil
	case "insrow", "delrow", "inscol", "delcol":
		fields := strings.Fields(rest)
		if len(fields) < 1 || len(fields) > 2 {
			return fmt.Errorf("usage: %s <n> [count]", cmd)
		}
		n, err := strconv.Atoi(fields[0])
		if err != nil {
			return fmt.Errorf("usage: %s <n> [count]", cmd)
		}
		count := 1
		if len(fields) == 2 {
			if count, err = strconv.Atoi(fields[1]); err != nil {
				return fmt.Errorf("%s: bad count %q", cmd, fields[1])
			}
		}
		if count < 1 {
			return fmt.Errorf("%s: count must be >= 1", cmd)
		}
		shift := map[string]func(string, int, int) (uint64, error){
			"insrow": sh.c.InsertRows, "delrow": sh.c.DeleteRows,
			"inscol": sh.c.InsertCols, "delcol": sh.c.DeleteCols,
		}[cmd]
		start := time.Now()
		gen, err := shift(sh.sheet, n, count)
		if err != nil {
			return err
		}
		fmt.Printf("%d %s(s) in %v (committed at generation %d)\n",
			count, cmd[3:], time.Since(start).Round(time.Microsecond), gen)
		return nil
	}
	return fmt.Errorf("unknown command %q", cmd)
}

func hitRate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return 100 * float64(hits) / float64(hits+misses)
}

// printStats reports the session server's counters: connections, in-flight
// requests, the commit generation, the storage counters, the poisoned flag
// and injected faults when degraded, and each open sheet's snapshot
// generation, pending recalc and cell cache.
func (sh *shell) printStats() error {
	st, err := sh.c.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("server %s: %d conns, %d in-flight requests, %d served, commit generation %d\n",
		sh.c.Addr(), st.Conns, st.InFlight, st.Requests, st.CommitGen)
	printIOStats(st.IO)
	if st.Poisoned {
		fmt.Println("POISONED (read-only): mutations are rejected until recovery (.recover heals in place)")
	}
	if st.InjectedFaults > 0 {
		fc := st.InjectedByKind
		fmt.Printf("injected faults: %d (io errors %d, enospc %d, short writes %d, bit flips %d)\n",
			fc.Total(), fc.IOErrs, fc.NoSpace, fc.ShortWrites, fc.BitFlips)
	}
	// Which scheduled failure a degraded store actually hit, rule by rule.
	for _, fr := range st.Faults {
		file := fr.Rule.File
		if file == "" {
			file = "any"
		}
		count := fmt.Sprintf("count %d", fr.Rule.Count)
		if fr.Rule.Count < 0 {
			count = "forever"
		}
		fmt.Printf("  rule %s/%s %s (after %d, %s): %d matched, %d injected\n",
			file, fr.Rule.Op, fr.Rule.Kind, fr.Rule.After, count, fr.Matched, fr.Injected)
	}
	for _, s := range st.Sheets {
		marker := ""
		if s.Name == sh.sheet {
			marker = " (this session)"
		}
		fmt.Printf("  sheet %q: snapshot generation %d, %d cells pending recalc%s\n",
			s.Name, s.Gen, s.Pending, marker)
		fmt.Printf("    cell cache: %d hits, %d misses (%.1f%% hit rate), %d evictions\n",
			s.Cache.Hits, s.Cache.Misses, hitRate(s.Cache.Hits, s.Cache.Misses), s.Cache.Evictions)
	}
	return nil
}

// printIOStats reports the storage counters: buffer pool hit/miss, then — on
// a file-backed database, the only kind with a live WAL segment — the
// durable pager's real I/O.
func printIOStats(ps rdbms.IOStats) {
	fmt.Printf("buffer pool: %d hits, %d misses (%.1f%% hit rate), %d pages read\n",
		ps.PoolHits, ps.PoolMisses, hitRate(ps.PoolHits, ps.PoolMisses), ps.PagesRead)
	if ps.WALSegments == 0 {
		return
	}
	fmt.Printf("disk: %d page reads, %d page writes, %d WAL syncs (%d KiB), %d checkpoints, %d free pages\n",
		ps.DiskReads, ps.DiskWrites, ps.WALSyncs, ps.WALBytes/1024, ps.Checkpoints, ps.FreePages)
	fmt.Printf("checkpoints: %d pages written incrementally (%d dirty now, %d cached in overlay)\n",
		ps.CheckpointPages, ps.DirtyPages, ps.ShadowPages)
	fmt.Printf("manifest: %d bytes staged, %d segment writes\n",
		ps.ManifestBytes, ps.ManifestSegments)
	fmt.Printf("wal: %d page images and %d page deltas logged, %d segments live (%d KiB on disk), %d rotations, %d compacted\n",
		ps.WALAppends-ps.WALDeltas, ps.WALDeltas, ps.WALSegments, ps.WALDiskBytes/1024, ps.WALRotations, ps.WALCompacted)
	if ps.ScrubRuns > 0 || ps.Vacuums > 0 || ps.Recoveries > 0 || ps.QuarantinedPages > 0 {
		fmt.Printf("maintenance: %d scrub passes (%d slots, %d repaired, %d bad), %d vacuums (%d pages moved, %d KiB reclaimed), %d recoveries\n",
			ps.ScrubRuns, ps.ScrubPages, ps.ScrubRepaired, ps.ScrubBad,
			ps.Vacuums, ps.VacuumPagesMoved, ps.VacuumBytesFreed/1024, ps.Recoveries)
	}
	if ps.Backups > 0 || ps.WALArchived > 0 {
		fmt.Printf("backups: %d taken (%d pages, %d KiB), %d WAL segments archived (%d KiB), durable generation %d\n",
			ps.Backups, ps.BackupPages, ps.BackupBytes/1024,
			ps.WALArchived, ps.ArchiveBytes/1024, ps.DurableGen)
	}
	if ps.QuarantinedPages > 0 {
		fmt.Printf("DEGRADED: %d pages quarantined (unreadable; .scrub retries repair)\n", ps.QuarantinedPages)
	}
}

// pendingNote counts the cells a view read stale under an in-flight
// background recalc.
func pendingNote(pending [][]bool) string {
	n := 0
	for _, row := range pending {
		for _, p := range row {
			if p {
				n++
			}
		}
	}
	if n > 0 {
		return fmt.Sprintf(", %d cells pending; * = stale value", n)
	}
	return ""
}

// printCells renders a range; pending (nil = none) marks cells whose value
// is stale under an in-flight background recalc with a trailing *.
func printCells(g sheet.Range, cells [][]sheet.Cell, pending [][]bool) {
	// Header.
	fmt.Printf("%6s", "")
	for c := g.From.Col; c <= g.To.Col; c++ {
		fmt.Printf(" %-12s", sheet.ColumnName(c))
	}
	fmt.Println()
	for i, row := range cells {
		fmt.Printf("%6d", g.From.Row+i)
		for j, cell := range row {
			text := cell.Value.Text()
			if len(text) > 11 {
				text = text[:10] + "…"
			}
			if pending != nil && pending[i][j] {
				text += "*"
			}
			fmt.Printf(" %-12s", text)
		}
		fmt.Println()
	}
}

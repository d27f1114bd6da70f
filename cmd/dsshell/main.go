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
// With -db <path> the session is durable: the sheet is reloaded from the
// data file on start (after WAL crash recovery), `save` commits the current
// state to the write-ahead log, and quitting checkpoints and closes the
// database.
//
// With `.connect host:port` the shell switches to a dsserver: set, view,
// the structural commands, load, save and .stats route over the wire
// (views report the snapshot generation they were served at), and
// `.disconnect` returns to the local engine.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
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

	engOpts := core.Options{AsyncRecalc: *asyncRecalc}
	var db *rdbms.DB
	var eng *core.Engine
	var err error
	opts := rdbms.Options{AutoCheckpointPages: *checkpointPages}
	if *dbPath != "" {
		db, err = rdbms.OpenFile(*dbPath, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsshell:", err)
			os.Exit(1)
		}
		if hasSheet(db, sheetName) {
			eng, err = core.Load(db, sheetName, engOpts)
			if err == nil {
				rows, cols := eng.Bounds()
				fmt.Printf("reopened %s (%dx%d used)\n", *dbPath, rows, cols)
			}
		} else {
			eng, err = core.New(db, sheetName, engOpts)
		}
	} else {
		db = rdbms.Open(opts)
		eng, err = core.New(db, sheetName, engOpts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsshell:", err)
		os.Exit(1)
	}
	durable := *dbPath != ""
	sh := &shell{eng: eng, db: db, engOpts: engOpts}
	defer func() {
		// Stop the background recalc first (drains pending formulas so the
		// checkpoint below captures converged values).
		if err := sh.eng.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "dsshell: recalc:", err)
		}
		if !durable {
			return
		}
		if err := sh.eng.Checkpoint(); err != nil {
			fmt.Fprintln(os.Stderr, "dsshell: checkpoint:", err)
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
	defer sh.disconnect()
	var lastIOErr string
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if err := dispatch(sh, line); err != nil {
			if err == errQuit {
				return
			}
			fmt.Println("error:", err)
		}
		// Page-level I/O failures (e.g. checksum mismatches on a corrupt
		// data file) render the affected cells blank; surface them so
		// blank != lost silently. ReadErr catches failures the engine's
		// read path recorded, Pool().Err anything below it.
		if err := sh.eng.ReadErr(); err != nil {
			fmt.Println("warning: read error:", err)
		}
		if err := db.Pool().Err(); err != nil && err.Error() != lastIOErr {
			lastIOErr = err.Error()
			fmt.Println("warning: storage error:", err)
		}
	}
}

func hasSheet(db *rdbms.DB, name string) bool {
	for _, n := range core.SheetNames(db) {
		if n == name {
			return true
		}
	}
	return false
}

var errQuit = fmt.Errorf("quit")

// shell is the dispatch state: the local engine, plus the remote session
// when `.connect` is active (remote routes set/view/structural/load/save
// and .stats over the wire; everything else needs the local engine).
type shell struct {
	eng         *core.Engine
	db          *rdbms.DB
	engOpts     core.Options
	remote      *serve.Client
	remoteSheet string
}

// where tags a maintenance report with who ran the pass.
func (sh *shell) where() string {
	if sh.remote != nil {
		return " (server)"
	}
	return ""
}

func (sh *shell) disconnect() {
	if sh.remote != nil {
		sh.remote.Close()
		sh.remote = nil
	}
}

func dispatch(sh *shell, line string) error {
	eng := sh.eng
	cmd, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch strings.ToLower(cmd) {
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
		c, err := serve.Dial(fields[0])
		if err != nil {
			return err
		}
		if err := c.Open(name); err != nil {
			c.Close()
			return err
		}
		sh.disconnect()
		sh.remote, sh.remoteSheet = c, name
		fmt.Printf("connected to %s, sheet %q (local engine parked; .disconnect to return)\n",
			c.Addr(), name)
		return nil
	case ".disconnect":
		if sh.remote == nil {
			return fmt.Errorf("not connected")
		}
		sh.disconnect()
		fmt.Println("disconnected (back on the local engine)")
		return nil
	case ".stats", "stats":
		if sh.remote != nil {
			return printRemoteStats(sh)
		}
		printStats(eng)
		return nil
	case ".scrub":
		rate := 0
		if rest != "" {
			var err error
			if rate, err = strconv.Atoi(rest); err != nil || rate < 0 {
				return fmt.Errorf("usage: .scrub [pages/sec]")
			}
		}
		var res rdbms.ScrubResult
		var err error
		if sh.remote != nil {
			res, err = sh.remote.Scrub(rate)
		} else {
			res, err = sh.db.Scrub(rdbms.PassOptions{PagesPerSecond: rate})
		}
		if err != nil {
			return err
		}
		fmt.Printf("scrub%s: %d slots clean, %d skipped, %d repaired, %d quarantined\n",
			sh.where(), res.Scanned, res.Skipped, len(res.Repaired), len(res.Bad))
		if len(res.Bad) > 0 {
			fmt.Printf("quarantined pages (degraded, reads of them fail): %v\n", res.Bad)
		}
		return nil
	case ".vacuum":
		var res rdbms.VacuumResult
		var err error
		if sh.remote != nil {
			res, err = sh.remote.Vacuum()
		} else if err = eng.Save(); err == nil {
			// Saved first so the durable manifest matches the session state
			// and the pass can relocate against a current free list.
			res, err = sh.db.Vacuum()
		}
		if err != nil {
			return err
		}
		fmt.Printf("vacuum%s: %d -> %d pages, %d meta pages moved, %d KiB reclaimed\n",
			sh.where(), res.PagesBefore, res.PagesAfter, res.PagesMoved, res.BytesReclaimed/1024)
		return nil
	case ".backup":
		if rest == "" {
			return fmt.Errorf("usage: .backup <path>")
		}
		f, err := os.OpenFile(rest, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return err
		}
		var res rdbms.BackupResult
		if sh.remote != nil {
			res, err = sh.remote.Backup(f, 0)
		} else if err = eng.Save(); err == nil {
			// Saved first so the backup pins the session's current state,
			// not the last explicit save.
			res, err = sh.db.Backup(f, rdbms.PassOptions{})
		}
		if cerr := syncClose(f); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(rest)
			return err
		}
		fmt.Printf("backup%s: %d pages + %d free slots, %d KiB, pinned generation %d\n",
			sh.where(), res.Pages, res.FreePages, res.Bytes/1024, res.Gen)
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
		if sh.remote != nil {
			if err := sh.remote.Recover(); err != nil {
				return err
			}
			fmt.Println("recovered (server reopened its database; state is the last durable commit)")
			return nil
		}
		// The engine is rebuilt from the recovered catalog: uncommitted
		// session edits are gone, exactly as a crash would lose them. Stop
		// the old engine's recalc scheduler first so it does not outlive it.
		_ = sh.eng.Close()
		fresh, err := core.Recover(sh.db, sheetName, sh.engOpts)
		if err != nil {
			return err
		}
		sh.eng = fresh
		rows, cols := fresh.Bounds()
		fmt.Printf("recovered: poison cleared, sheet reloaded from last durable commit (%dx%d used)\n", rows, cols)
		return nil
	case "save":
		if sh.remote != nil {
			if err := sh.remote.CloseSheet(sh.remoteSheet); err != nil {
				return err
			}
			fmt.Println("saved (server-side WAL commit)")
			return nil
		}
		if err := eng.Save(); err != nil {
			return err
		}
		if eng.DB().Path() == "" {
			fmt.Println("saved (in-memory database: state will not survive exit; use -db <path>)")
		} else {
			fmt.Println("saved (WAL committed)")
		}
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
		if sh.remote != nil {
			_, err := sh.remote.Set(sh.remoteSheet, ref.Row, ref.Col, strings.TrimSpace(val))
			return err
		}
		return eng.Set(ref.Row, ref.Col, strings.TrimSpace(val))
	case "view":
		g, err := sheet.ParseRange(rest)
		if err != nil {
			return err
		}
		if sh.remote != nil {
			// The viewed range IS the session's viewport: tell the server so
			// an async recalc evaluates these cells ahead of the rest.
			if err := sh.remote.RegisterViewport(sh.remoteSheet,
				g.From.Row, g.From.Col, g.To.Row, g.To.Col); err != nil {
				return err
			}
			cells, pending, gen, err := sh.remote.GetRangePending(sh.remoteSheet,
				g.From.Row, g.From.Col, g.To.Row, g.To.Col)
			if err != nil {
				return err
			}
			printCells(g, cells, pending)
			fmt.Printf("(snapshot generation %d%s)\n", gen, pendingNote(pending))
			return nil
		}
		printGrid(eng, g)
		return nil
	case "sql":
		if sh.remote != nil {
			return fmt.Errorf("sql runs on the local engine; .disconnect first")
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
		if sh.remote != nil {
			return fmt.Errorf("link runs on the local engine; .disconnect first")
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
		if sh.remote != nil {
			return fmt.Errorf("optimize runs on the local engine; .disconnect first")
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
		if sh.remote != nil {
			// One set-cells batch: the server applies it as a single bulk
			// write (one WAL commit) while other clients keep reading the
			// pre-load snapshot.
			var edits []core.CellEdit
			s.EachSorted(func(r sheet.Ref, c sheet.Cell) {
				input := c.Value.Text()
				if c.HasFormula() {
					input = "=" + c.Formula
				}
				edits = append(edits, core.CellEdit{Row: r.Row, Col: r.Col, Input: input})
			})
			gen, err := sh.remote.SetCells(sh.remoteSheet, edits)
			if err != nil {
				return err
			}
			fmt.Printf("loaded %d cells (committed at generation %d)\n", len(edits), gen)
			return nil
		}
		var loadErr error
		s.EachSorted(func(r sheet.Ref, c sheet.Cell) {
			if loadErr != nil {
				return
			}
			if c.HasFormula() {
				loadErr = eng.SetFormula(r.Row, r.Col, c.Formula)
			} else {
				loadErr = eng.SetValue(r.Row, r.Col, c.Value)
			}
		})
		if loadErr != nil {
			return loadErr
		}
		fmt.Printf("loaded %d cells\n", s.Len())
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
		start := time.Now()
		if sh.remote != nil {
			var gen uint64
			switch cmd {
			case "insrow":
				gen, err = sh.remote.InsertRows(sh.remoteSheet, n, count)
			case "delrow":
				gen, err = sh.remote.DeleteRows(sh.remoteSheet, n, count)
			case "inscol":
				gen, err = sh.remote.InsertCols(sh.remoteSheet, n, count)
			default:
				gen, err = sh.remote.DeleteCols(sh.remoteSheet, n, count)
			}
			if err != nil {
				return err
			}
			fmt.Printf("%d %s(s) in %v (committed at generation %d)\n",
				count, map[string]string{"insrow": "row", "delrow": "row", "inscol": "col", "delcol": "col"}[cmd],
				time.Since(start).Round(time.Microsecond), gen)
			return nil
		}
		switch cmd {
		case "insrow":
			err = eng.InsertRowsAfter(n, count)
		case "delrow":
			err = eng.DeleteRows(n, count)
		case "inscol":
			err = eng.InsertColumnsAfter(n, count)
		default:
			err = eng.DeleteColumns(n, count)
		}
		if err != nil {
			return err
		}
		st := eng.LastEditStats()
		fmt.Printf("%d %s(s) in %v: %d formulas recomputed, %d rewritten, %d relocated, %d dropped\n",
			count, map[string]string{"insrow": "row", "delrow": "row", "inscol": "col", "delcol": "col"}[cmd],
			time.Since(start).Round(time.Microsecond), st.Recomputed, st.Rewritten, st.Relocated, st.Dropped)
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

// printStats reports the read-path counters: cell-cache hit rate, buffer
// pool hit/miss, and the durable pager's real I/O when file-backed.
func printStats(eng *core.Engine) {
	cs := eng.CacheStats()
	fmt.Printf("cell cache: %d hits, %d misses (%.1f%% hit rate), %d evictions\n",
		cs.Hits, cs.Misses, hitRate(cs.Hits, cs.Misses), cs.Evictions)
	if eng.AsyncRecalc() {
		fmt.Printf("recalc: async, %d cells pending background evaluation\n", eng.PendingCount())
	}
	printIOStats(eng.DB().Pool().Stats())
	if err := eng.DB().Poisoned(); err != nil {
		fmt.Printf("POISONED (read-only): %v (.recover to heal in place)\n", err)
	}
	if fs := eng.DB().Faults(); fs != nil {
		printInjected(fs.Injected())
		printFaultRules(fs.RuleStats())
	}
}

// printIOStats reports the storage counters, the same way for a local
// engine and a connected server: buffer pool hit/miss, then — on a
// file-backed database, the only kind with a live WAL segment — the durable
// pager's real I/O.
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

func printInjected(fc rdbms.FaultCounts) {
	fmt.Printf("injected faults: %d (io errors %d, enospc %d, short writes %d, bit flips %d)\n",
		fc.Total(), fc.IOErrs, fc.NoSpace, fc.ShortWrites, fc.BitFlips)
}

// printFaultRules renders the per-rule injected-fault breakdown so an
// operator can see which scheduled failure a degraded store actually hit.
func printFaultRules(rules []rdbms.FaultRuleStat) {
	for _, fr := range rules {
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
}

// printRemoteStats reports the connected server's session counters: live
// connections, in-flight requests, and each open sheet's snapshot
// generation.
func printRemoteStats(sh *shell) error {
	st, err := sh.remote.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("server %s: %d conns, %d in-flight requests, %d served, commit generation %d\n",
		sh.remote.Addr(), st.Conns, st.InFlight, st.Requests, st.CommitGen)
	printIOStats(st.IO)
	if st.Poisoned {
		fmt.Println("POISONED (read-only): mutations are rejected until recovery (.recover heals in place)")
	}
	if st.InjectedFaults > 0 {
		printInjected(st.InjectedByKind)
	}
	printFaultRules(st.Faults)
	for _, s := range st.Sheets {
		marker := ""
		if s.Name == sh.remoteSheet {
			marker = " (this session)"
		}
		fmt.Printf("  sheet %q: snapshot generation %d, %d cells pending recalc%s\n",
			s.Name, s.Gen, s.Pending, marker)
	}
	return nil
}

// syncClose flushes a freshly written backup to stable storage before
// reporting success.
func syncClose(f *os.File) error {
	err := f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printGrid renders one ReadRange: cells and staleness marks from one point
// in time, also beside a background recalc.
func printGrid(eng *core.Engine, g sheet.Range) {
	cells, pending, _, err := eng.ReadRange(g)
	printCells(g, cells, pending)
	if err != nil {
		fmt.Println("warning: read error:", err)
	}
	if n := countPending(pending); n > 0 {
		fmt.Printf("(%d cells pending background recalc; * = stale value)\n", n)
	}
}

func countPending(pending [][]bool) int {
	n := 0
	for _, row := range pending {
		for _, p := range row {
			if p {
				n++
			}
		}
	}
	return n
}

func pendingNote(pending [][]bool) string {
	if n := countPending(pending); n > 0 {
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

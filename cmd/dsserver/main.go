// Command dsserver serves a DataSpread database over TCP: many clients
// share one database, each sheet one engine, with generation-stamped
// snapshot reads so viewports keep scrolling while bulk loads commit.
//
//	dsserver -db data.ds -addr :7529
//
// Connect with dsshell:
//
//	dsshell
//	> .connect localhost:7529
//
// Without -db the database is in-memory and nothing survives exit
// (useful for demos and tests). Concurrent writers share WAL fsyncs with no
// flag or timer: a save that stages while another commit is in flight is
// logged by the next one. SIGINT/SIGTERM shut down gracefully: stop
// accepting, drain sessions, flush every sheet, close the database.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"dataspread/internal/core"
	"dataspread/internal/rdbms"
	"dataspread/internal/serve"
)

func main() {
	addr := flag.String("addr", ":7529", "TCP listen address")
	dbPath := flag.String("db", "", "durable database file (default: in-memory, nothing survives exit)")
	poolPages := flag.Int("pool-pages", 0, "buffer pool size in pages (0: default 1024)")
	cacheBlocks := flag.Int("cache-blocks", 2048, "cell cache size in 64x16 blocks, per sheet (~9 KiB a dense numeric block, ~2 KiB a formula column)")
	asyncRecalc := flag.Bool("async-recalc", true, "evaluate formula cones in the background, viewport-first; edits return immediately with dependents flagged pending")
	checkpointPages := flag.Int("checkpoint-pages", 0, "auto-checkpoint when this many pages are dirty since the last checkpoint (0: default, negative: disable)")
	walSegBytes := flag.Int64("wal-segment-bytes", 0, "rotate the WAL into a new segment at this size (0: default 4MiB, negative: disable rotation)")
	walMaxSegs := flag.Int("wal-max-segments", 0, "checkpoint-compact the WAL when more than this many segments are live (0: default 4, negative: disable)")
	scrubEvery := flag.Duration("scrub-every", 0, "run an online checksum scrub at this interval (0: disabled)")
	scrubRate := flag.Int("scrub-rate", 1024, "scrub read budget in pages/sec (0: unthrottled)")
	vacuumEvery := flag.Duration("vacuum-every", 0, "defragment the data file at this interval (0: disabled)")
	backupEvery := flag.Duration("backup-every", 0, "take an online backup at this interval (0: disabled; needs -backup-dir)")
	backupDir := flag.String("backup-dir", "", "directory scheduled backups land in, named backup-<generation>.dsb")
	backupRate := flag.Int("backup-rate", 4096, "backup read budget in pages/sec (0: unthrottled)")
	archiveDir := flag.String("archive-dir", "", "preserve committed WAL segments here before compaction deletes them (enables point-in-time restore)")
	flag.Parse()

	opts := rdbms.Options{
		BufferPoolPages:     *poolPages,
		AutoCheckpointPages: *checkpointPages,
		WALSegmentBytes:     *walSegBytes,
		WALMaxSegments:      *walMaxSegs,
		ArchiveDir:          *archiveDir,
	}
	var db *rdbms.DB
	var err error
	if *dbPath != "" {
		db, err = rdbms.OpenFile(*dbPath, opts)
	} else {
		db = rdbms.Open(opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsserver:", err)
		os.Exit(1)
	}

	srv := serve.New(db, core.Options{CacheBlocks: *cacheBlocks, AsyncRecalc: *asyncRecalc})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		done <- srv.ListenAndServe(*addr)
	}()
	fmt.Printf("dsserver: serving %s on %s\n", backing(*dbPath), *addr)

	// Background maintenance — periodic scrub, vacuum and backup — is the
	// engine's own scheduler (db.StartMaintenance); these flags are thin
	// wrappers over it. Every pass is best-effort: a failed one is logged
	// and retried at the next tick, never fatal. Vacuum and backup save
	// open sheets first so the durable manifest reflects what clients see.
	err = db.StartMaintenance(rdbms.MaintenanceOptions{
		ScrubEvery:  *scrubEvery,
		ScrubRate:   *scrubRate,
		VacuumEvery: *vacuumEvery,
		BackupEvery: *backupEvery,
		BackupDir:   *backupDir,
		BackupRate:  *backupRate,
		Prepare:     srv.SaveSheets,
		OnResult: func(op string, err error) {
			if err != nil {
				fmt.Fprintf(os.Stderr, "dsserver: %s: %v\n", op, err)
			}
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsserver:", err)
		db.Close()
		os.Exit(1)
	}
	stopMaint := db.StopMaintenance

	exitCode := 0
	select {
	case s := <-sig:
		fmt.Printf("dsserver: %v, shutting down\n", s)
		stopMaint()
		if err := srv.Close(); err != nil {
			// srv.Close joins one error per failed sheet save; log each
			// on its own line so operators see exactly which sheets may
			// have lost their last edits.
			for _, line := range strings.Split(err.Error(), "\n") {
				fmt.Fprintln(os.Stderr, "dsserver: save failed:", line)
			}
			exitCode = 1
		}
		<-done
	case err := <-done:
		stopMaint()
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsserver:", err)
			db.Close()
			os.Exit(1)
		}
	}
	if err := db.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "dsserver: close:", err)
		exitCode = 1
	}
	os.Exit(exitCode)
}

func backing(path string) string {
	if path == "" {
		return "in-memory database"
	}
	return path
}

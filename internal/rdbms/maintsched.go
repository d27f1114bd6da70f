package rdbms

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// This file is the engine-side maintenance scheduler: scrub, vacuum and
// backup cadence lives in a background goroutine inside the engine itself,
// so every embedder (dsserver, tests, the soak harness) gets the same
// degrade→repair→resume loop without re-implementing tickers. dsserver's
// -scrub-every/-vacuum-every/-backup-every flags are thin wrappers over
// StartMaintenance.

// MaintenanceOptions schedules background maintenance. Zero intervals
// disable the corresponding operation.
type MaintenanceOptions struct {
	// ScrubEvery runs an online checksum scrub (DB.Scrub) at this cadence.
	ScrubEvery time.Duration
	// ScrubRate bounds the scrub's read rate in pages per second
	// (PassOptions.PagesPerSecond); 0 means unthrottled.
	ScrubRate int
	// VacuumEvery runs free-space defragmentation (DB.Vacuum) at this
	// cadence. Vacuum invalidates open Table handles; embedders that hold
	// them must save and reopen in Prepare / OnResult.
	VacuumEvery time.Duration
	// BackupEvery takes an online backup (DB.Backup) into BackupDir at this
	// cadence. Backups are named backup-<generation>.dsb by the durable
	// generation they pin; a tick that would duplicate the newest backup's
	// generation is skipped.
	BackupEvery time.Duration
	// BackupDir is where scheduled backups land. Required when BackupEvery
	// is set.
	BackupDir string
	// BackupRate bounds the backup's read rate in pages per second; 0 means
	// unthrottled.
	BackupRate int
	// Prepare, when non-nil, runs before each scheduled vacuum and backup;
	// a non-nil error skips that tick. Both passes work from the durable
	// manifest: embedders use it to save in-memory state (open sheets) so
	// the pass captures it.
	Prepare func() error
	// OnResult, when non-nil, is called after every completed operation
	// ("scrub", "vacuum", "backup") with its error (nil on success;
	// shutdown interruptions are reported as success).
	OnResult func(op string, err error)
}

// maintenance is one running scheduler: a goroutine per enabled operation
// sharing a stop channel.
type maintenance struct {
	stop chan struct{}
	wg   sync.WaitGroup
}

// StartMaintenance launches background maintenance with the given cadence.
// It replaces any scheduler already running (stopping it first) and is
// stopped by StopMaintenance or Close. Rate-limited passes in flight are
// interrupted promptly on stop via their Stop channel, so a slow scrub or
// backup never stalls shutdown.
func (db *DB) StartMaintenance(opts MaintenanceOptions) error {
	if opts.BackupEvery > 0 && opts.BackupDir == "" {
		return errors.New("rdbms: maintenance: BackupEvery requires BackupDir")
	}
	db.StopMaintenance()
	m := &maintenance{stop: make(chan struct{})}
	// run starts one operation's ticker; prepare (nil for scrub, which
	// needs no saved state) runs first on every tick.
	run := func(every time.Duration, op string, prepare, f func() error) {
		if every <= 0 {
			return
		}
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for {
				select {
				case <-m.stop:
					return
				case <-time.After(every):
				}
				var err error
				if prepare != nil {
					err = prepare()
				}
				if err == nil {
					err = f()
				}
				if errors.Is(err, ErrStopped) {
					err = nil
				}
				if opts.OnResult != nil {
					opts.OnResult(op, err)
				}
			}
		}()
	}
	run(opts.ScrubEvery, "scrub", nil, func() error {
		_, err := db.Scrub(PassOptions{PagesPerSecond: opts.ScrubRate, Stop: m.stop})
		return err
	})
	run(opts.VacuumEvery, "vacuum", opts.Prepare, func() error {
		_, err := db.Vacuum()
		return err
	})
	run(opts.BackupEvery, "backup", opts.Prepare, func() error {
		return db.backupToDir(opts.BackupDir, opts.BackupRate, m.stop)
	})
	db.maintMu.Lock()
	db.maint = m
	db.maintMu.Unlock()
	return nil
}

// StopMaintenance stops the background maintenance scheduler and waits for
// in-flight operations to finish (rate-limited passes are interrupted).
// No-op when none is running; Close calls it first.
func (db *DB) StopMaintenance() {
	db.maintMu.Lock()
	m := db.maint
	db.maint = nil
	db.maintMu.Unlock()
	if m == nil {
		return
	}
	close(m.stop)
	m.wg.Wait()
}

// backupToDir is one scheduled backup tick: stream into a temp name, fsync,
// then rename to backup-<generation>.dsb so a crash mid-backup never leaves
// a plausible-looking partial artifact under a final name. A tick whose
// resulting generation already has a backup discards the duplicate.
func (db *DB) backupToDir(dir string, rate int, stop <-chan struct{}) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(dir, ".inprogress.dsb")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	res, err := db.Backup(f, PassOptions{PagesPerSecond: rate, Stop: stop})
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	final := filepath.Join(dir, fmt.Sprintf("backup-%016d.dsb", res.Gen))
	if _, serr := os.Stat(final); serr == nil {
		os.Remove(tmp) // this generation is already backed up
		return nil
	}
	return os.Rename(tmp, final)
}

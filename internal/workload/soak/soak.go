// Soak and crash-fuzz harness: a deterministic mixed-edit workload over a
// file-backed database opened on a hostile (fault-injected) disk, with
// kill-points at WAL rotation and checkpoint boundaries. After every kill
// or poisoning the database reopens and is byte-compared against a shadow
// model, proving three properties end to end:
//
//   - bounded log: WAL disk usage never exceeds the rotation budget
//     (segments * segment size, plus one in-flight commit);
//   - no torn state: every reopen sees exactly the committed prefix — a
//     batch whose commit failed is either fully present (the fsync error
//     hit after the OS had the data: an ambiguous ack) or fully absent,
//     never half-applied;
//   - reads survive poisoning: after a durability failure the engine keeps
//     answering reads from the committed generation while every mutation
//     is rejected with ErrReadOnly;
//   - maintenance is crash-safe: online scrubs (sometimes killed mid-scan),
//     vacuums (sometimes poisoned by an armed data-file fault), and
//     in-place recovery of a poisoned store all preserve the committed
//     prefix exactly;
//   - disaster recovery holds: online backups taken mid-workload restore to
//     exactly the shadow model, a backup killed mid-stream never restores,
//     and archived WAL segments replay a base backup to both its own
//     generation and the latest one (point-in-time recovery).
package soak

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"

	"dataspread/internal/core"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// Config parameterizes Run. Zero values take the defaults noted on
// each field; Path is required.
type Config struct {
	// Path is the database file; the harness owns it (and its WAL
	// segments) for the duration of the run.
	Path string
	// Seed drives every random decision: edit positions, fault
	// placement, kill-points. Same seed, same run.
	Seed int64
	// Rounds is the number of open→edit→(kill|close) cycles (default 8).
	Rounds int
	// BatchesPerRound is how many SetCells batches each round commits
	// (default 12).
	BatchesPerRound int
	// BatchSize is the number of cell edits per batch (default 24).
	BatchSize int
	// Rows and Cols bound the edited rectangle (default 48x12).
	Rows, Cols int
	// SegmentBytes and MaxSegments configure WAL rotation (defaults
	// 128 KiB and 3) — small enough that a run crosses many segment
	// boundaries.
	SegmentBytes int64
	MaxSegments  int
	// FaultEvery injects a WAL-write or WAL-fsync fault every N'th round
	// (default 3; negative disables fault rounds).
	FaultEvery int
	// ArchiveDir is where checkpoint compaction preserves sealed WAL
	// segments, enabling the point-in-time restore rounds (default
	// Path+".archive"). Every open in the run archives, so the archive
	// stays gap-free across crashes.
	ArchiveDir string
}

// Result reports what a a Run exercised and observed.
type Result struct {
	Rounds       int
	Batches      int // committed (acked) batches
	CellsWritten int

	Kills            int // hard kills (SimulateCrash) instead of clean closes
	BoundaryKills    int // kills placed right after a rotation or checkpoint
	PoisonedRounds   int // rounds ended in read-only degradation
	AmbiguousBatches int // failed-commit batches found durable on reopen
	TornBatches      int // failed-commit batches discarded by recovery

	ReadsWhilePoisoned int // successful reads served after poisoning
	RecoveryFaults     int // faults that fired during crash recovery itself

	Recoveries   int // poisoned rounds healed in place via DB.Recover
	ScrubPasses  int // completed online scrub passes (all slots clean)
	ScrubKills   int // crashes triggered mid-scrub at the progress kill-point
	VacuumPasses int // completed vacuum passes
	VacuumFaults int // vacuums poisoned by an armed data-file fault

	BackupPasses    int   // online backups completed mid-workload
	BackupKills     int   // backups aborted at the mid-stream kill-point
	RestoreVerifies int   // restored copies verified against the shadow model
	PITRVerifies    int   // archive replays verified at base and latest gens
	WALArchived     int64 // WAL segments preserved into the archive

	MaxWALBytes    int64 // peak WAL footprint observed (all live segments)
	WALBudget      int64 // the bound MaxWALBytes was checked against
	WALRotations   int64
	WALCompacted   int64
	InjectedFaults int64

	FinalCells int // non-empty cells in the final verified state
}

type soakKey struct{ r, c int }

// Run runs the crash-fuzz soak workload and verifies its invariants,
// returning an error on the first violation (torn state, WAL over budget,
// reads failing while poisoned, checksum mismatch).
func Run(cfg Config) (Result, error) {
	if cfg.Path == "" {
		return Result{}, errors.New("soak: Config.Path required")
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 8
	}
	if cfg.BatchesPerRound <= 0 {
		cfg.BatchesPerRound = 12
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 24
	}
	if cfg.Rows <= 0 {
		cfg.Rows = 48
	}
	if cfg.Cols <= 0 {
		cfg.Cols = 12
	}
	if cfg.SegmentBytes == 0 {
		cfg.SegmentBytes = 128 << 10
	}
	if cfg.MaxSegments == 0 {
		cfg.MaxSegments = 3
	}
	if cfg.FaultEvery == 0 {
		cfg.FaultEvery = 3
	}
	if cfg.ArchiveDir == "" {
		cfg.ArchiveDir = cfg.Path + ".archive"
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	var res Result
	model := make(map[soakKey]int64) // committed shadow state
	var pending map[soakKey]int64    // the one batch whose ack was ambiguous
	counter := int64(0)              // unique value per edit, never reused
	var maxBatchWAL int64            // largest WAL growth from one commit

	for round := 0; round < cfg.Rounds; round++ {
		res.Rounds++
		var fs *rdbms.FaultSchedule
		if cfg.FaultEvery > 0 && round > 0 && round%cfg.FaultEvery == 0 {
			fs = soakFaults(rng, cfg.BatchesPerRound)
		} else {
			// Even healthy rounds carry an (empty) schedule so the vacuum
			// kill-point below can arm a data-file fault mid-round.
			fs = rdbms.NewFaultSchedule(rng.Int63())
		}
		db, err := rdbms.OpenFile(cfg.Path, rdbms.Options{
			WALSegmentBytes: cfg.SegmentBytes,
			WALMaxSegments:  cfg.MaxSegments,
			ArchiveDir:      cfg.ArchiveDir,
			Faults:          fs,
		})
		if err != nil && fs != nil && errors.Is(err, rdbms.ErrInjected) {
			// The scheduled fault hit during crash recovery itself (a
			// recovery-time read, fsync, or the WAL reset). That is a
			// crash-during-recovery: recovery is idempotent, so a clean
			// retry must converge — and the rest of the round runs on a
			// healthy disk.
			res.RecoveryFaults++
			res.InjectedFaults += fs.Injected().Total()
			fs = nil
			db, err = rdbms.OpenFile(cfg.Path, rdbms.Options{
				WALSegmentBytes: cfg.SegmentBytes,
				WALMaxSegments:  cfg.MaxSegments,
				ArchiveDir:      cfg.ArchiveDir,
			})
		}
		if err != nil {
			return res, fmt.Errorf("soak: round %d: reopen: %w", round, err)
		}
		if err := db.VerifyChecksums(); err != nil {
			db.SimulateCrash()
			return res, fmt.Errorf("soak: round %d: %w", round, err)
		}
		eng, err := soakEngine(db)
		if err != nil {
			db.SimulateCrash()
			return res, fmt.Errorf("soak: round %d: open sheet: %w", round, err)
		}

		// Resolve last round's ambiguous batch against the recovered
		// state, then require an exact match with the shadow model.
		if pending != nil {
			applied, err := resolvePending(eng, cfg, model, pending)
			if err != nil {
				db.SimulateCrash()
				return res, fmt.Errorf("soak: round %d: %w", round, err)
			}
			if applied {
				res.AmbiguousBatches++
				for k, v := range pending {
					model[k] = v
				}
			} else {
				res.TornBatches++
			}
			pending = nil
		}
		if err := verifyModel(eng, cfg, model); err != nil {
			db.SimulateCrash()
			return res, fmt.Errorf("soak: round %d: after reopen: %w", round, err)
		}

		poisoned := false
		killed := false
		stats := func() rdbms.IOStats { return db.Pool().Stats() }
		before := stats()
		lastWAL := before.WALDiskBytes
		for b := 0; b < cfg.BatchesPerRound && !poisoned && !killed; b++ {
			edits := make([]core.CellEdit, cfg.BatchSize)
			batch := make(map[soakKey]int64, cfg.BatchSize)
			for i := range edits {
				counter++
				k := soakKey{rng.Intn(cfg.Rows) + 1, rng.Intn(cfg.Cols) + 1}
				edits[i] = core.CellEdit{Row: k.r, Col: k.c, Input: strconv.FormatInt(counter, 10)}
				batch[k] = counter
			}
			if err := eng.SetCells(edits); err != nil {
				if !errors.Is(err, rdbms.ErrPoisoned) && !errors.Is(err, rdbms.ErrReadOnly) {
					db.SimulateCrash()
					return res, fmt.Errorf("soak: round %d batch %d: %w", round, b, err)
				}
				// The commit failed mid-durability: the batch may or may
				// not have reached disk (all-or-nothing either way).
				poisoned = true
				pending = batch
				break
			}
			res.Batches++
			res.CellsWritten += len(edits)
			for k, v := range batch {
				model[k] = v
			}
			st := stats()
			if st.WALDiskBytes > res.MaxWALBytes {
				res.MaxWALBytes = st.WALDiskBytes
			}
			if grew := st.WALDiskBytes - lastWAL; grew > maxBatchWAL {
				maxBatchWAL = grew
			}
			lastWAL = st.WALDiskBytes
			// Kill-point: right after a commit that rotated or
			// checkpointed, sometimes pull the plug — recovery must then
			// cross a segment boundary that has barely been written.
			atBoundary := st.WALRotations != before.WALRotations || st.Checkpoints != before.Checkpoints
			before = st
			if atBoundary && rng.Intn(3) == 0 {
				killed = true
				res.BoundaryKills++
			}
		}

		if poisoned {
			res.PoisonedRounds++
			if err := db.Poisoned(); err == nil {
				db.SimulateCrash()
				return res, fmt.Errorf("soak: round %d: commit failed but pager not poisoned", round)
			}
			// Read-only degradation: the engine must keep serving reads
			// and keep rejecting writes.
			cells := eng.GetCells(sheet.NewRange(1, 1, cfg.Rows, cfg.Cols))
			if err := eng.ReadErr(); err != nil {
				db.SimulateCrash()
				return res, fmt.Errorf("soak: round %d: read while poisoned: %w", round, err)
			}
			if len(cells) != cfg.Rows {
				db.SimulateCrash()
				return res, fmt.Errorf("soak: round %d: short read while poisoned", round)
			}
			res.ReadsWhilePoisoned++
			if err := eng.Set(1, 1, "1"); !errors.Is(err, rdbms.ErrReadOnly) {
				db.SimulateCrash()
				return res, fmt.Errorf("soak: round %d: write while poisoned returned %v, want ErrReadOnly", round, err)
			}

			// Recovery round: the soak's disk faults are transient (each
			// rule fires once), so sometimes heal in place with DB.Recover
			// instead of crashing — the ambiguous batch resolves against
			// the recovered state, the shadow model must match exactly,
			// and writes must resume on the same process.
			if rng.Intn(2) == 0 {
				if err := db.Recover(); err != nil {
					db.SimulateCrash()
					return res, fmt.Errorf("soak: round %d: in-place recover: %w", round, err)
				}
				res.Recoveries++
				poisoned = false
				// Recovery rebuilt the catalog: the old engine handle is
				// stale and must be reloaded from the recovered state.
				eng, err = soakEngine(db)
				if err != nil {
					db.SimulateCrash()
					return res, fmt.Errorf("soak: round %d: reload after recover: %w", round, err)
				}
				if pending != nil {
					applied, err := resolvePending(eng, cfg, model, pending)
					if err != nil {
						db.SimulateCrash()
						return res, fmt.Errorf("soak: round %d: after recover: %w", round, err)
					}
					if applied {
						res.AmbiguousBatches++
						for k, v := range pending {
							model[k] = v
						}
					} else {
						res.TornBatches++
					}
					pending = nil
				}
				if err := verifyModel(eng, cfg, model); err != nil {
					db.SimulateCrash()
					return res, fmt.Errorf("soak: round %d: after recover: %w", round, err)
				}
				// Writes resume: one more acked batch on the healed store.
				edits := make([]core.CellEdit, cfg.BatchSize)
				batch := make(map[soakKey]int64, cfg.BatchSize)
				for i := range edits {
					counter++
					k := soakKey{rng.Intn(cfg.Rows) + 1, rng.Intn(cfg.Cols) + 1}
					edits[i] = core.CellEdit{Row: k.r, Col: k.c, Input: strconv.FormatInt(counter, 10)}
					batch[k] = counter
				}
				if err := eng.SetCells(edits); err != nil {
					db.SimulateCrash()
					return res, fmt.Errorf("soak: round %d: write after recover: %w", round, err)
				}
				res.Batches++
				res.CellsWritten += len(edits)
				for k, v := range batch {
					model[k] = v
				}
			}
		}

		// Online maintenance: on rounds that end unpoisoned — including ones
		// already marked for a boundary kill — sometimes run a scrub
		// (occasionally killed mid-scan via the progress kill-point), a
		// vacuum (occasionally poisoned by an armed data-file fault, the
		// mid-compaction kill-point), an online backup (occasionally killed
		// mid-stream, and otherwise restored and verified against the shadow
		// model), or a point-in-time restore through the WAL archive. Either
		// way the next reopen must still match the shadow model.
		if !poisoned {
			switch rng.Intn(6) {
			case 0, 1:
				killAfter := 0
				if rng.Intn(3) == 0 {
					killAfter = rng.Intn(4) + 1
				}
				batches := 0
				sres, err := db.Scrub(rdbms.PassOptions{
					BatchPages: 8,
					Progress: func(done, total int) error {
						batches++
						if killAfter > 0 && batches >= killAfter {
							return errScrubKill
						}
						return nil
					},
				})
				switch {
				case errors.Is(err, errScrubKill):
					// Kill-point inside the scrub: crash with the scan half
					// done; the reopen below must verify regardless.
					killed = true
					res.ScrubKills++
				case err != nil:
					db.SimulateCrash()
					return res, fmt.Errorf("soak: round %d: scrub: %w", round, err)
				default:
					res.ScrubPasses++
					if len(sres.Bad) != 0 || len(sres.Repaired) != 0 {
						db.SimulateCrash()
						return res, fmt.Errorf("soak: round %d: scrub found %d bad / %d repaired slots on a healthy disk",
							round, len(sres.Bad), len(sres.Repaired))
					}
				}
			case 2:
				armed := fs != nil && rng.Intn(3) == 0
				if armed {
					// The data file turns hostile for the compaction's first
					// write: the vacuum must poison cleanly, never corrupt.
					fs.Arm(rdbms.FaultRule{
						File:  rdbms.FaultFileData,
						Op:    rdbms.FaultWrite,
						Kind:  rdbms.FaultIOErr,
						After: 1,
					})
				}
				if _, err := db.Vacuum(); err != nil {
					if db.Poisoned() == nil {
						db.SimulateCrash()
						return res, fmt.Errorf("soak: round %d: vacuum failed without poisoning: %w", round, err)
					}
					poisoned = true
					if armed {
						res.VacuumFaults++
					}
					if err := eng.Set(1, 1, "1"); !errors.Is(err, rdbms.ErrReadOnly) {
						db.SimulateCrash()
						return res, fmt.Errorf("soak: round %d: write after vacuum poison returned %v, want ErrReadOnly", round, err)
					}
				} else {
					res.VacuumPasses++
					if armed {
						// The armed rule found nothing to write and is still
						// live; a clean Close would trip it mid-checkpoint.
						// End the round with a crash instead.
						killed = true
					}
					if err := verifyModel(eng, cfg, model); err != nil {
						db.SimulateCrash()
						return res, fmt.Errorf("soak: round %d: after vacuum: %w", round, err)
					}
				}
			case 3:
				// Online backup, sometimes killed mid-stream. A kill leaves a
				// partial artifact that must never restore; a completed backup
				// must restore to exactly the shadow model.
				bak := cfg.Path + ".dsb"
				dest := cfg.Path + ".restored"
				removeRestoreScratch(bak, dest)
				killAfter := 0
				if rng.Intn(3) == 0 {
					killAfter = rng.Intn(3) + 1
				}
				f, err := os.Create(bak)
				if err != nil {
					db.SimulateCrash()
					return res, fmt.Errorf("soak: round %d: backup create: %w", round, err)
				}
				steps := 0
				_, err = db.Backup(f, rdbms.PassOptions{
					BatchPages: 4,
					Progress: func(done, total int) error {
						steps++
						if killAfter > 0 && steps >= killAfter {
							return errBackupKill
						}
						return nil
					},
				})
				f.Close()
				switch {
				case errors.Is(err, errBackupKill):
					// Crash mid-backup: the torn artifact must be rejected
					// atomically, the target path untouched.
					killed = true
					res.BackupKills++
					if rerr := rdbms.Restore(bak, dest, rdbms.RestoreOptions{}); rerr == nil {
						db.SimulateCrash()
						return res, fmt.Errorf("soak: round %d: partial backup restored cleanly", round)
					}
					if _, serr := os.Stat(dest); serr == nil {
						db.SimulateCrash()
						return res, fmt.Errorf("soak: round %d: failed restore left the target path", round)
					}
				case err != nil:
					// The backup's pinning checkpoint can trip a scheduled
					// WAL fault; that poisons cleanly, like any failed commit.
					if db.Poisoned() == nil {
						db.SimulateCrash()
						return res, fmt.Errorf("soak: round %d: backup: %w", round, err)
					}
					poisoned = true
				default:
					res.BackupPasses++
					if err := rdbms.Restore(bak, dest, rdbms.RestoreOptions{}); err != nil {
						db.SimulateCrash()
						return res, fmt.Errorf("soak: round %d: restore: %w", round, err)
					}
					if err := verifyRestored(dest, cfg, model); err != nil {
						db.SimulateCrash()
						return res, fmt.Errorf("soak: round %d: restored copy: %w", round, err)
					}
					res.RestoreVerifies++
				}
				removeRestoreScratch(bak, dest)
			case 4:
				// Point-in-time restore: base backup now, a few more committed
				// batches, checkpoint (seals and archives the WAL), then replay
				// the archive onto the base — to the base's own generation
				// (must see the snapshot) and to the latest (must see the
				// current model).
				bak := cfg.Path + ".dsb"
				dest := cfg.Path + ".restored"
				removeRestoreScratch(bak, dest)
				f, err := os.Create(bak)
				if err != nil {
					db.SimulateCrash()
					return res, fmt.Errorf("soak: round %d: backup create: %w", round, err)
				}
				bres, err := db.Backup(f, rdbms.PassOptions{})
				f.Close()
				if err != nil {
					if db.Poisoned() == nil {
						db.SimulateCrash()
						return res, fmt.Errorf("soak: round %d: pitr base backup: %w", round, err)
					}
					poisoned = true
					removeRestoreScratch(bak, dest)
					break
				}
				snap := make(map[soakKey]int64, len(model))
				for k, v := range model {
					snap[k] = v
				}
				wrote := true
				for b := 0; b < 2 && wrote; b++ {
					edits := make([]core.CellEdit, cfg.BatchSize)
					batch := make(map[soakKey]int64, cfg.BatchSize)
					for i := range edits {
						counter++
						k := soakKey{rng.Intn(cfg.Rows) + 1, rng.Intn(cfg.Cols) + 1}
						edits[i] = core.CellEdit{Row: k.r, Col: k.c, Input: strconv.FormatInt(counter, 10)}
						batch[k] = counter
					}
					if err := eng.SetCells(edits); err != nil {
						if !errors.Is(err, rdbms.ErrPoisoned) && !errors.Is(err, rdbms.ErrReadOnly) {
							db.SimulateCrash()
							return res, fmt.Errorf("soak: round %d: pitr batch: %w", round, err)
						}
						// A late scheduled fault fired: the round ends poisoned
						// with this batch ambiguous, and the PITR check is
						// abandoned.
						poisoned, pending, wrote = true, batch, false
						break
					}
					res.Batches++
					res.CellsWritten += len(edits)
					for k, v := range batch {
						model[k] = v
					}
				}
				if wrote {
					if err := db.Checkpoint(); err != nil {
						if db.Poisoned() == nil {
							db.SimulateCrash()
							return res, fmt.Errorf("soak: round %d: pitr checkpoint: %w", round, err)
						}
						poisoned = true
					}
				}
				if wrote && !poisoned {
					// Replay to the base backup's own generation: the extra
					// batches must be absent.
					err := rdbms.Restore(bak, dest, rdbms.RestoreOptions{
						ArchiveDir: cfg.ArchiveDir, TargetGen: bres.Gen,
					})
					if err != nil {
						db.SimulateCrash()
						return res, fmt.Errorf("soak: round %d: pitr restore to base gen %d: %w", round, bres.Gen, err)
					}
					if err := verifyRestored(dest, cfg, snap); err != nil {
						db.SimulateCrash()
						return res, fmt.Errorf("soak: round %d: pitr at base gen: %w", round, err)
					}
					os.Remove(dest)
					os.Remove(dest + ".wal")
					// Replay as far as the archive reaches: the extra batches
					// must be present.
					err = rdbms.Restore(bak, dest, rdbms.RestoreOptions{ArchiveDir: cfg.ArchiveDir})
					if err != nil {
						db.SimulateCrash()
						return res, fmt.Errorf("soak: round %d: pitr restore to latest: %w", round, err)
					}
					if err := verifyRestored(dest, cfg, model); err != nil {
						db.SimulateCrash()
						return res, fmt.Errorf("soak: round %d: pitr at latest gen: %w", round, err)
					}
					res.PITRVerifies++
				}
				removeRestoreScratch(bak, dest)
			}
		}

		// The pager's I/O counters are per-open: fold this round's into
		// the running totals before dropping the handle.
		st := stats()
		res.WALRotations += st.WALRotations
		res.WALCompacted += st.WALCompacted
		res.WALArchived += st.WALArchived
		res.InjectedFaults += injected(db)
		if poisoned || killed || rng.Intn(3) > 0 {
			// Hard kill: drop every handle without flushing, as a crash
			// (or a poisoned process giving up) would.
			res.Kills++
			if err := db.SimulateCrash(); err != nil {
				return res, fmt.Errorf("soak: round %d: simulate crash: %w", round, err)
			}
		} else {
			if err := db.Close(); err != nil {
				return res, fmt.Errorf("soak: round %d: close: %w", round, err)
			}
		}
	}

	// The rotation budget: MaxSegments sealed segments plus the active one,
	// each of which may overshoot by at most one commit (rotation and
	// compaction run between commits, never inside one).
	res.WALBudget = int64(cfg.MaxSegments+1) * (cfg.SegmentBytes + maxBatchWAL)
	if res.MaxWALBytes > res.WALBudget {
		return res, fmt.Errorf("soak:: WAL peaked at %d bytes, budget %d (segments %d x %d + %d/commit)",
			res.MaxWALBytes, res.WALBudget, cfg.MaxSegments+1, cfg.SegmentBytes, maxBatchWAL)
	}

	// Final clean verification pass.
	db, err := rdbms.OpenFile(cfg.Path, rdbms.Options{
		WALSegmentBytes: cfg.SegmentBytes,
		WALMaxSegments:  cfg.MaxSegments,
		ArchiveDir:      cfg.ArchiveDir,
	})
	if err != nil {
		return res, fmt.Errorf("soak: final reopen: %w", err)
	}
	defer db.Close()
	if err := db.VerifyChecksums(); err != nil {
		return res, fmt.Errorf("soak: final: %w", err)
	}
	eng, err := soakEngine(db)
	if err != nil {
		return res, fmt.Errorf("soak: final: %w", err)
	}
	if pending != nil {
		applied, err := resolvePending(eng, cfg, model, pending)
		if err != nil {
			return res, fmt.Errorf("soak: final: %w", err)
		}
		if applied {
			res.AmbiguousBatches++
			for k, v := range pending {
				model[k] = v
			}
		} else {
			res.TornBatches++
		}
	}
	if err := verifyModel(eng, cfg, model); err != nil {
		return res, fmt.Errorf("soak: final: %w", err)
	}
	res.FinalCells = len(model)
	return res, nil
}

// errScrubKill is the sentinel a scrub progress callback returns at a
// kill-point: the pass aborts mid-scan and the harness pulls the plug.
var errScrubKill = errors.New("soak: scrub kill-point")

// errBackupKill is the same for backups: the stream aborts mid-file,
// leaving a torn artifact that must never restore.
var errBackupKill = errors.New("soak: backup kill-point")

// removeRestoreScratch clears the backup/restore scratch paths (including
// the temp path an aborted restore must already have cleaned up).
func removeRestoreScratch(bak, dest string) {
	os.Remove(bak)
	os.Remove(dest)
	os.Remove(dest + ".wal")
	os.Remove(dest + ".restore-tmp")
	os.Remove(dest + ".restore-tmp.wal")
}

// verifyRestored opens the restored copy at path and requires it to match
// the shadow model exactly, dropping the handle without mutating the file.
func verifyRestored(path string, cfg Config, model map[soakKey]int64) error {
	db, err := rdbms.OpenFile(path, rdbms.Options{})
	if err != nil {
		return fmt.Errorf("open restored copy: %w", err)
	}
	defer db.SimulateCrash()
	if err := db.VerifyChecksums(); err != nil {
		return err
	}
	eng, err := soakEngine(db)
	if err != nil {
		return err
	}
	return verifyModel(eng, cfg, model)
}

// soakFaults builds one round's hostile-disk schedule: a single WAL-side
// fault (fsync error, ENOSPC, or a short torn write) placed somewhere in
// the round. Read faults are deliberately absent — poisoned databases must
// keep serving clean reads.
func soakFaults(rng *rand.Rand, batches int) *rdbms.FaultSchedule {
	// Place the fault in the first few batches: rounds often end early at
	// a kill-point, and a fault scheduled past the kill never fires.
	window := batches
	if window > 6 {
		window = 6
	}
	var rule rdbms.FaultRule
	switch rng.Intn(3) {
	case 0:
		rule = rdbms.FaultRule{
			File:  rdbms.FaultFileWAL,
			Op:    rdbms.FaultSync,
			Kind:  rdbms.FaultIOErr,
			After: rng.Intn(window) + 1, // one WAL fsync per commit
		}
	case 1:
		rule = rdbms.FaultRule{
			File:  rdbms.FaultFileWAL,
			Op:    rdbms.FaultWrite,
			Kind:  rdbms.FaultENOSPC,
			After: rng.Intn(window*2) + 1, // at least one WAL write per commit
		}
	default:
		rule = rdbms.FaultRule{
			File:  rdbms.FaultFileWAL,
			Op:    rdbms.FaultWrite,
			Kind:  rdbms.FaultShortWrite,
			After: rng.Intn(window*2) + 1,
		}
	}
	return rdbms.NewFaultSchedule(rng.Int63(), rule)
}

func soakEngine(db *rdbms.DB) (*core.Engine, error) {
	const name = "soak"
	for _, n := range core.SheetNames(db) {
		if n == name {
			return core.Load(db, name, core.Options{})
		}
	}
	return core.New(db, name, core.Options{})
}

func injected(db *rdbms.DB) int64 {
	if fs := db.Faults(); fs != nil {
		return fs.Injected().Total()
	}
	return 0
}

// readSoakCell returns the recovered value at k (0 when empty) plus
// whether the cell is non-empty.
func readSoakCell(cells [][]sheet.Cell, k soakKey) (int64, bool) {
	c := cells[k.r-1][k.c-1]
	if c.Value.IsEmpty() {
		return 0, false
	}
	n, _ := c.Value.Num()
	return int64(n), true
}

// resolvePending decides whether the batch with the ambiguous ack made it
// to disk. A WAL commit is atomic under recovery, so every cell of the
// batch must agree — all new values, or all prior; disagreement is torn
// state and fails the run.
func resolvePending(eng *core.Engine, cfg Config, model, pending map[soakKey]int64) (bool, error) {
	cells := eng.GetCells(sheet.NewRange(1, 1, cfg.Rows, cfg.Cols))
	if err := eng.ReadErr(); err != nil {
		return false, fmt.Errorf("resolving ambiguous batch: %w", err)
	}
	applied, decided := false, false
	for k, v := range pending {
		got, set := readSoakCell(cells, k)
		prior, inModel := model[k]
		var this bool
		switch {
		case set && got == v:
			this = true
		case (inModel && set && got == prior) || (!inModel && !set):
			this = false
		default:
			return false, fmt.Errorf("torn state: cell (%d,%d) = %d (set=%v), want %d (batch) or prior", k.r, k.c, got, set, v)
		}
		if !decided {
			applied, decided = this, true
		} else if this != applied {
			return false, fmt.Errorf("torn batch: cell (%d,%d) disagrees with batch outcome applied=%v", k.r, k.c, applied)
		}
	}
	return applied, nil
}

// verifyModel requires the engine's visible state to match the shadow
// model exactly over the whole edited rectangle.
func verifyModel(eng *core.Engine, cfg Config, model map[soakKey]int64) error {
	cells := eng.GetCells(sheet.NewRange(1, 1, cfg.Rows, cfg.Cols))
	if err := eng.ReadErr(); err != nil {
		return fmt.Errorf("verify read: %w", err)
	}
	for r := 1; r <= cfg.Rows; r++ {
		for c := 1; c <= cfg.Cols; c++ {
			got, set := readSoakCell(cells, soakKey{r, c})
			want, inModel := model[soakKey{r, c}]
			if !inModel {
				if set {
					return fmt.Errorf("cell (%d,%d) = %d, want empty", r, c, got)
				}
				continue
			}
			if !set || got != want {
				return fmt.Errorf("cell (%d,%d) = %d (set=%v), want %d", r, c, got, set, want)
			}
		}
	}
	return nil
}

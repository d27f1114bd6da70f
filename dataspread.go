// Package dataspread is a from-scratch Go implementation of the DataSpread
// storage engine for presentational data management (Bendre et al., ICDE
// 2018): a spreadsheet engine whose cells live in a relational row store,
// decomposed across row-oriented (ROM), column-oriented (COM),
// row-column-value (RCV) and database-linked (TOM) tables by a cost-based
// hybrid optimizer, with order-statistic positional indexes that make
// fetch, insert and delete by position O(log N) without cascading updates.
//
// The primary entry points:
//
//	db := dataspread.OpenDB()
//	eng, err := dataspread.NewEngine(db, "mysheet")
//	eng.Set(1, 1, "42")
//	eng.Set(1, 2, "=A1*2")
//	cells := eng.GetCells(dataspread.MustRange("A1:B1"))
//
// See the examples directory for complete programs, internal/exp for the
// paper's experiment harness, and README.md for the system inventory.
package dataspread

import (
	"dataspread/internal/core"
	"dataspread/internal/hybrid"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// Re-exported core types. The facade keeps downstream imports to a single
// package for common use; advanced callers may import the internal
// packages directly (they are stable within this module).
type (
	// Engine is an open spreadsheet bound to a database.
	Engine = core.Engine
	// EngineOptions configures engine construction.
	EngineOptions = core.Options
	// CellEdit is one entry of an Engine.SetCells batch.
	CellEdit = core.CellEdit
	// DB is the backing relational store.
	DB = rdbms.DB
	// RID is a tuple identifier within the store.
	RID = rdbms.RID
	// Row is a database tuple (distinct from a spreadsheet row).
	Row = rdbms.Row
	// Sheet is the in-memory conceptual data model.
	Sheet = sheet.Sheet
	// Cell is a value with an optional formula.
	Cell = sheet.Cell
	// Value is a typed spreadsheet value.
	Value = sheet.Value
	// Ref addresses one cell.
	Ref = sheet.Ref
	// Range is a rectangular region.
	Range = sheet.Range
	// TableValue is a composite relational result: Engine.SQL's columns
	// and rows, placed on the grid by Engine.PlaceTable.
	TableValue = core.TableValue
	// CostParams carries the hybrid optimizer's cost constants.
	CostParams = hybrid.CostParams
	// Decomposition is a chosen physical layout.
	Decomposition = hybrid.Decomposition
	// FaultSchedule is a seeded fault-injection plan for WithFaults.
	FaultSchedule = rdbms.FaultSchedule
	// FaultRule schedules one injected fault within a FaultSchedule.
	FaultRule = rdbms.FaultRule
	// BackupOptions tunes one paced backup or scrub (DB.Backup, DB.Scrub).
	BackupOptions = rdbms.PassOptions
	// BackupResult reports one completed backup.
	BackupResult = rdbms.BackupResult
	// RestoreOptions tunes a point-in-time restore (Restore).
	RestoreOptions = rdbms.RestoreOptions
	// MaintenanceOptions schedules background scrub/vacuum/backup inside
	// the engine (DB.StartMaintenance).
	MaintenanceOptions = rdbms.MaintenanceOptions
)

// Failure-semantics sentinels, errors.Is-testable through every layer (the
// engine, the serving stack, and the wire protocol):
//
//   - ErrReadOnly: the mutation was rejected because the database is in
//     read-only degradation (it was poisoned by an I/O failure). Reads keep
//     working.
//   - ErrPoisoned: a durability-critical I/O failure (failed WAL append or
//     fsync, failed checkpoint write) put the pager into its sticky failed
//     state; reopen the database to recover.
//   - ErrChecksum: a page failed its CRC on read (torn write, bit rot);
//     surfaces through Engine.ReadErr.
var (
	ErrReadOnly = rdbms.ErrReadOnly
	ErrPoisoned = rdbms.ErrPoisoned
	ErrChecksum = rdbms.ErrChecksum
)

// Disaster-recovery sentinels, errors.Is-testable:
//
//   - ErrStopped: a maintenance pass (Scrub, Backup) was interrupted by its
//     Stop channel; a clean shutdown, not a failure.
//   - ErrBackupFormat: the file handed to Restore is not a backup (bad
//     magic or unsupported format version).
//   - ErrBackupCorrupt: a backup or archived segment is torn, truncated or
//     bit-flipped; the restore target is left untouched.
//   - ErrArchiveGap: the WAL archive cannot reach the requested generation
//     (missing segment, or a target before the base backup).
var (
	ErrStopped       = rdbms.ErrStopped
	ErrBackupFormat  = rdbms.ErrBackupFormat
	ErrBackupCorrupt = rdbms.ErrBackupCorrupt
	ErrArchiveGap    = rdbms.ErrArchiveGap
)

// Restore rebuilds a database at destPath from the backup at backupPath,
// optionally replaying archived WAL segments up to RestoreOptions.TargetGen
// (point-in-time recovery). Fully verified before the target path appears;
// see rdbms.Restore.
func Restore(backupPath, destPath string, opts RestoreOptions) error {
	return rdbms.Restore(backupPath, destPath, opts)
}

// Fault-rule vocabulary for NewFaultSchedule, re-exported from rdbms: the
// operation a rule matches, the failure it injects, and the file roles it
// can target.
const (
	FaultRead     = rdbms.FaultRead
	FaultWrite    = rdbms.FaultWrite
	FaultSync     = rdbms.FaultSync
	FaultTruncate = rdbms.FaultTruncate

	FaultIOErr      = rdbms.FaultIOErr
	FaultENOSPC     = rdbms.FaultENOSPC
	FaultShortWrite = rdbms.FaultShortWrite
	FaultBitFlip    = rdbms.FaultBitFlip

	FaultFileData = rdbms.FaultFileData
	FaultFileWAL  = rdbms.FaultFileWAL
)

// NewFaultSchedule builds a deterministic fault-injection plan for
// WithFaults; see rdbms.NewFaultSchedule.
func NewFaultSchedule(seed int64, rules ...FaultRule) *FaultSchedule {
	return rdbms.NewFaultSchedule(seed, rules...)
}

// OpenDB creates an empty in-memory database: the pager OpenFileDB uses,
// over files that live in memory, so nothing survives the process.
func OpenDB() *DB { return rdbms.Open(rdbms.Options{}) }

// FileDBOption tunes a durable database opened with OpenFileDB.
type FileDBOption func(*rdbms.Options)

// WithBufferPoolPages caps the buffer pool (default 1024 pages, 8 MiB).
func WithBufferPoolPages(n int) FileDBOption {
	return func(o *rdbms.Options) { o.BufferPoolPages = n }
}

// WithAutoCheckpoint checkpoints the data file automatically whenever a WAL
// commit leaves at least pages dirty since the last checkpoint (default
// 4096 pages; pass a negative value to disable auto-checkpointing).
func WithAutoCheckpoint(pages int) FileDBOption {
	return func(o *rdbms.Options) { o.AutoCheckpointPages = pages }
}

// WithWALSegments bounds WAL disk usage for long-lived databases: the log
// rotates into a fresh segment file once the active one reaches
// segmentBytes (default 4 MiB; negative disables rotation), and a
// checkpoint compacts the log whenever more than maxSegments are live
// (default 4; negative disables the trigger).
func WithWALSegments(segmentBytes int64, maxSegments int) FileDBOption {
	return func(o *rdbms.Options) {
		o.WALSegmentBytes = segmentBytes
		o.WALMaxSegments = maxSegments
	}
}

// WithFaults opens the database over a hostile disk: the schedule's seeded
// faults (fsync errors, torn writes, ENOSPC, read bit-flips) are injected
// into the pager's file I/O. For tests and soak harnesses.
func WithFaults(fs *FaultSchedule) FileDBOption {
	return func(o *rdbms.Options) { o.Faults = fs }
}

// WithArchiveDir preserves the committed prefix of every WAL segment into
// dir before checkpoint compaction deletes it, enabling point-in-time
// restore (Restore with RestoreOptions.ArchiveDir) on top of a base backup.
func WithArchiveDir(dir string) FileDBOption {
	return func(o *rdbms.Options) { o.ArchiveDir = dir }
}

// OpenFileDB opens (or creates) a durable database backed by the single
// data file at path, with its write-ahead log at path+".wal". Crash
// recovery (WAL redo) runs before the catalog loads, and the data file is
// flock-guarded: a second opener — even in another process — fails with a
// clear error. Release it with db.Close(), which checkpoints; use
// Engine.Save / Engine.Checkpoint / Engine.SetCells to persist sheets along
// the way.
func OpenFileDB(path string, opts ...FileDBOption) (*DB, error) {
	var o rdbms.Options
	for _, opt := range opts {
		opt(&o)
	}
	return rdbms.OpenFile(path, o)
}

// NewEngine opens an empty spreadsheet on the database.
func NewEngine(db *DB, name string) (*Engine, error) {
	return core.New(db, name, core.Options{})
}

// LoadEngine reattaches a sheet persisted in the database by Engine.Save or
// Engine.Checkpoint: values, formulas, positional order, linked tables and
// indexes all round-trip.
func LoadEngine(db *DB, name string) (*Engine, error) {
	return core.Load(db, name, core.Options{})
}

// SheetNames lists the sheets persisted in the database.
func SheetNames(db *DB) []string { return core.SheetNames(db) }

// OpenSheet loads an existing sheet, laying it out with the hybrid
// optimizer ("agg" by default; see core.Open for other algorithms).
func OpenSheet(db *DB, name string, s *Sheet, algo string) (*Engine, error) {
	if algo == "" {
		algo = "agg"
	}
	return core.Open(db, name, s, algo, core.Options{})
}

// NewSheet creates an empty in-memory sheet.
func NewSheet(name string) *Sheet { return sheet.New(name) }

// ParseRange parses "A1:B2" notation.
func ParseRange(s string) (Range, error) { return sheet.ParseRange(s) }

// NewRange returns the normalized range covering both corners (1-based
// rows/columns).
func NewRange(r1, c1, r2, c2 int) Range { return sheet.NewRange(r1, c1, r2, c2) }

// MustRange is ParseRange that panics on malformed input (for literals).
func MustRange(s string) Range {
	g, err := sheet.ParseRange(s)
	if err != nil {
		panic(err)
	}
	return g
}

// Number, Text and Bool build typed values.
func Number(f float64) Value { return sheet.Number(f) }

// Text builds a string value.
func Text(s string) Value { return sheet.Str(s) }

// Bool builds a boolean value.
func Bool(b bool) Value { return sheet.Bool(b) }

// PostgresCost and IdealCost are the paper's cost-constant presets.
var (
	PostgresCost = hybrid.PostgresCost
	IdealCost    = hybrid.IdealCost
)

package rdbms

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Catalog overhead constants emulate the system-table footprint that the
// paper's cost model captures: s3 (per-column cost, pg_attribute) and part
// of s4 (per-row cost). They feed DB.StorageBytes so that measured storage
// tracks the analytic cost model of internal/hybrid.
const (
	// ColumnCatalogBytes is the catalog cost of one column (paper: s3 = 40 B).
	ColumnCatalogBytes = 40
	// TableCatalogBytes is the catalog cost of one table entry.
	TableCatalogBytes = 128
)

// Table is a named heap with a schema and optional B+ tree indexes.
type Table struct {
	Name   string
	Schema Schema

	db      *DB
	heap    *heapFile
	indexes map[string]*tableIndex // by indexed column name (lower-cased)
	// schemaDirty marks a schema record (columns, indexed columns) that
	// differs from the staged one: set by DDL, cleared when the next commit
	// stages the record.
	schemaDirty bool
}

type tableIndex struct {
	col  int
	tree *BTree
}

// DB is the database: a pager, a buffer pool and a catalog of tables.
type DB struct {
	mu     sync.RWMutex
	disk   Pager
	pool   *BufferPool
	tables map[string]*Table // lower-cased name
	// meta is a generic metadata key-value store, persisted with the
	// catalog manifest. Upper layers use it to store their own manifests
	// (sheet region maps, engine state) so a whole session round-trips.
	// On a file-backed database it is a cache: values live out-of-line in
	// per-key page chains (metaLoc) and are read in on first GetMeta;
	// commits restage only the chains of dirty keys.
	meta map[string][]byte
	// metaDirty marks keys whose cached value diverged from the staged
	// chain since the last commit; metaDel tombstones keys deleted but not
	// yet unstaged.
	metaDirty map[string]bool
	metaDel   map[string]bool
	// metaLoc locates each key's staged on-disk value chain (file-backed
	// databases only).
	metaLoc map[string]metaChainLoc
	path    string // data file path; "" for in-memory databases
	// commitGen counts committed WAL batches (FlushWAL/Checkpoint). It is
	// the database-wide durable generation that snapshot readers pin: a
	// reader holding generation g observes every batch up to g and nothing
	// past it. In-memory databases advance it too (each FlushWAL is a
	// zero-cost commit), so visibility stamps behave identically on both
	// pagers.
	commitGen atomic.Uint64
	// maint is the engine-side maintenance scheduler (StartMaintenance);
	// maintMu serializes start/stop against Close.
	maintMu sync.Mutex
	maint   *maintenance
}

// metaChainLoc locates one out-of-line metadata value: its page chain and
// byte length.
type metaChainLoc struct {
	pages []PageID
	n     int
}

// Options configures a DB.
type Options struct {
	// BufferPoolPages caps the buffer pool; 0 means 1024 pages (8 MiB).
	BufferPoolPages int

	// GroupCommit enables the background WAL flusher: concurrent FlushWAL
	// calls are coalesced into one WAL append + one fsync. Commits still
	// block until their covering flush is durable, so crash semantics are
	// unchanged — only the fsync is shared. Off by default (sync-on-commit:
	// each FlushWAL fsyncs inline), which is what the test suite exercises.
	GroupCommit bool
	// GroupCommitBatch flushes as soon as this many commits are waiting
	// (default 8). Only meaningful with GroupCommit.
	GroupCommitBatch int
	// GroupCommitInterval is the coalescing window: how long the flusher
	// holds a flush open for more committers to join before paying the
	// fsync (default 1ms). Only meaningful with GroupCommit.
	GroupCommitInterval time.Duration
	// AutoCheckpointPages bounds the shadow overlay: when a WAL commit
	// leaves at least this many pages dirty since the last checkpoint, the
	// pager checkpoints automatically (pages written to their data-file
	// slots, WAL truncated), so long sessions stop accumulating unbounded
	// redo state. 0 means the default of 4096 pages (32 MiB); negative
	// disables auto-checkpointing.
	AutoCheckpointPages int
	// WALSegmentBytes rotates the write-ahead log into a fresh segment
	// file (<path>.wal.0001, ...) once the active segment reaches this
	// size; commits never straddle a boundary, and checkpoints delete the
	// sealed segments. 0 means the default of 4 MiB; negative disables
	// rotation (a single-file WAL).
	WALSegmentBytes int64
	// WALMaxSegments checkpoints automatically when the live segment
	// count (active + sealed) exceeds it, which bounds WAL disk usage to
	// roughly (WALMaxSegments+1) * WALSegmentBytes. 0 means the default
	// of 4; negative disables the segment-count trigger.
	WALMaxSegments int
	// Faults, when set, injects the schedule's seeded failures into every
	// data-file and WAL operation of the file-backed pager — the hostile
	// disk used by fault-injection tests and the soak harness. Nil (the
	// default) performs real I/O with zero overhead.
	Faults *FaultSchedule
	// ArchiveDir, when non-empty, preserves the committed prefix of every
	// WAL segment into this directory before checkpoint compaction deletes
	// it, enabling point-in-time restore (Restore with
	// RestoreOptions.ArchiveDir) on top of a base backup. An archive copy
	// failure fails the checkpoint — and poisons the database — rather than
	// silently breaking the archive's generation chain.
	ArchiveDir string
}

// Resolved group-commit / checkpoint defaults.
const (
	defaultGroupCommitBatch    = 8
	defaultGroupCommitInterval = time.Millisecond
	defaultAutoCheckpointPages = 4096
	defaultWALSegmentBytes     = 4 << 20
	defaultWALMaxSegments      = 4
)

func (o Options) filePagerOptions() filePagerOptions {
	fo := filePagerOptions{
		groupCommit:         o.GroupCommit,
		groupBatch:          o.GroupCommitBatch,
		groupInterval:       o.GroupCommitInterval,
		autoCheckpointPages: o.AutoCheckpointPages,
		walSegmentBytes:     o.WALSegmentBytes,
		walMaxSegments:      o.WALMaxSegments,
		faults:              o.Faults,
		archiveDir:          o.ArchiveDir,
	}
	if fo.groupBatch <= 0 {
		fo.groupBatch = defaultGroupCommitBatch
	}
	if fo.groupInterval <= 0 {
		fo.groupInterval = defaultGroupCommitInterval
	}
	switch {
	case fo.autoCheckpointPages == 0:
		fo.autoCheckpointPages = defaultAutoCheckpointPages
	case fo.autoCheckpointPages < 0:
		fo.autoCheckpointPages = 0
	}
	switch {
	case fo.walSegmentBytes == 0:
		fo.walSegmentBytes = defaultWALSegmentBytes
	case fo.walSegmentBytes < 0:
		fo.walSegmentBytes = 0
	}
	switch {
	case fo.walMaxSegments == 0:
		fo.walMaxSegments = defaultWALMaxSegments
	case fo.walMaxSegments < 0:
		fo.walMaxSegments = 0
	}
	return fo
}

// Open creates an empty in-memory database (the machine-independent
// simulated disk used by tests and the experiment harness).
func Open(opts Options) *DB {
	if opts.BufferPoolPages == 0 {
		opts.BufferPoolPages = 1024
	}
	disk := &MemPager{}
	return &DB{
		disk:      disk,
		pool:      newBufferPool(disk, opts.BufferPoolPages),
		tables:    make(map[string]*Table),
		meta:      make(map[string][]byte),
		metaDirty: make(map[string]bool),
		metaDel:   make(map[string]bool),
		metaLoc:   make(map[string]metaChainLoc),
	}
}

// OpenFile opens (or creates) a durable database backed by the single data
// file at path, with its write-ahead log at path+".wal". Committed WAL
// batches from a previous crash are redone before the catalog is loaded;
// uncommitted or torn WAL tails are discarded. The returned DB must be
// released with Close (which checkpoints) — or abandoned with
// SimulateCrash in recovery tests.
func OpenFile(path string, opts Options) (*DB, error) {
	if opts.BufferPoolPages == 0 {
		opts.BufferPoolPages = 1024
	}
	fp, err := newFilePager(path, opts.filePagerOptions())
	if err != nil {
		return nil, err
	}
	db := &DB{
		disk:      fp,
		pool:      newBufferPool(fp, opts.BufferPoolPages),
		tables:    make(map[string]*Table),
		meta:      make(map[string][]byte),
		metaDirty: make(map[string]bool),
		metaDel:   make(map[string]bool),
		metaLoc:   make(map[string]metaChainLoc),
		path:      path,
	}
	// Commits serialize against staging (FlushWAL holds db.mu exclusively
	// while staging, the pager holds it shared while committing), so the
	// background flusher can never commit a half-staged batch.
	fp.gate = &db.mu
	if err := db.loadCatalog(fp); err != nil {
		fp.closeFiles()
		return nil, err
	}
	return db, nil
}

// Pool exposes the buffer pool for I/O statistics.
func (db *DB) Pool() *BufferPool { return db.pool }

// Path returns the data file path, or "" for in-memory databases.
func (db *DB) Path() string { return db.path }

// filePager returns the durable pager, or nil for in-memory databases.
func (db *DB) filePager() *FilePager {
	fp, _ := db.disk.(*FilePager)
	return fp
}

// FlushWAL makes the current database state durable in the write-ahead
// log: changed schema records and metadata values are staged, the catalog
// root is re-serialized and the meta pages it changed are staged, every
// dirty buffer-pool frame is staged, and the batch is committed to the WAL
// with an fsync (a batch that staged nothing costs neither). The data file
// itself is untouched — a crash after FlushWAL is recovered by redo on the
// next OpenFile. No-op for in-memory databases.
func (db *DB) FlushWAL() error {
	fp := db.filePager()
	if fp == nil {
		db.commitGen.Add(1)
		return nil
	}
	// Stage under db.mu, but commit outside it: with group commit enabled
	// the commit blocks on the background flusher, and holding db.mu there
	// would serialize committers and defeat the coalescing. (Commits take
	// db.mu shared via the pager's gate, so they still cannot overlap the
	// staging itself.)
	db.mu.Lock()
	err := db.stageLocked(fp)
	db.mu.Unlock()
	if err != nil {
		return err
	}
	if err := fp.commitWAL(); err != nil {
		return err
	}
	db.commitGen.Add(1)
	return nil
}

// CommitGen returns the commit generation: the number of WAL batches made
// durable so far (FlushWAL and Checkpoint each count one). Safe to read
// concurrently; see the field doc for the visibility contract.
func (db *DB) CommitGen() uint64 { return db.commitGen.Load() }

// DurableGen returns the on-disk durable generation: the stamp carried by
// the last committed non-empty WAL batch, persisted in commit records and
// the data-file header. It is the generation backups pin and point-in-time
// restore targets. Unlike CommitGen (a process-local visibility counter
// that restarts from zero), DurableGen survives reopen and is monotone
// across the store's whole life. Zero for in-memory databases.
func (db *DB) DurableGen() uint64 {
	fp := db.filePager()
	if fp == nil {
		return 0
	}
	return fp.gen.Load()
}

// Checkpoint makes the state durable and writes every modified page into
// its checksummed data-file slot, then truncates the WAL. No-op for
// in-memory databases.
func (db *DB) Checkpoint() error {
	fp := db.filePager()
	if fp == nil {
		db.commitGen.Add(1)
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.commitCheckpointLocked(fp)
}

// stageLocked stages everything a commit covers: dirty schema records and
// metadata values go to their chains, the catalog root to the meta chain,
// and dirty pool frames to the pager. Pending frees are promoted on both
// sides of the value staging — before it so that it can reuse the pages of
// dropped heaps, after it so that the chains it released are on the free
// list this root records, not unlisted until the next commit. (Pages the
// root chain itself gives up are known only once the root is encoded; they
// wait for the next staging.) db.mu must be held exclusively.
func (db *DB) stageLocked(fp *FilePager) error {
	fp.promotePendingFree()
	db.stageMetaLocked(fp)
	fp.promotePendingFree()
	fp.writeMeta(db.manifestLocked(fp))
	return db.pool.flushDirty()
}

// loadCatalog rebuilds the catalog from the meta chain of a freshly opened
// (or reopened) pager; a database that was never flushed has none.
func (db *DB) loadCatalog(fp *FilePager) error {
	root, err := fp.readMeta()
	if err != nil || len(root) == 0 {
		return err
	}
	return db.loadManifest(fp, root)
}

// commitCheckpointLocked is the full checkpoint sequence — stage, then
// checkpoint the pager — for callers already holding db.mu exclusively
// (Checkpoint, Vacuum).
func (db *DB) commitCheckpointLocked(fp *FilePager) error {
	if err := db.stageLocked(fp); err != nil {
		return err
	}
	if err := fp.checkpoint(); err != nil {
		return err
	}
	db.commitGen.Add(1)
	return nil
}

// Close stops background maintenance, checkpoints and releases the file
// handles. No-op for in-memory databases (beyond stopping maintenance).
func (db *DB) Close() error {
	db.StopMaintenance()
	fp := db.filePager()
	if fp == nil {
		return nil
	}
	if err := db.Checkpoint(); err != nil {
		fp.closeFiles()
		return err
	}
	return fp.closeFiles()
}

// SimulateCrash drops the file handles without flushing or checkpointing,
// leaving the data file and WAL exactly as the last FlushWAL/Checkpoint
// left them — the process-kill scenario for recovery tests. The DB must
// not be used afterwards.
func (db *DB) SimulateCrash() error {
	fp := db.filePager()
	if fp == nil {
		return nil
	}
	return fp.closeFiles()
}

// Poisoned reports the database's sticky failure state: nil while healthy,
// otherwise an error unwrapping to ErrPoisoned, ErrReadOnly and the
// original I/O failure. A poisoned database keeps serving reads but every
// commit (FlushWAL, Checkpoint, Close) fails until it is reopened — upper
// layers use this to degrade to read-only instead of retrying a failed
// fsync. Always nil for in-memory databases.
func (db *DB) Poisoned() error {
	fp := db.filePager()
	if fp == nil {
		return nil
	}
	return fp.poisonedErr()
}

// Faults returns the fault-injection schedule the database was opened with,
// or nil when none is active.
func (db *DB) Faults() *FaultSchedule {
	fp := db.filePager()
	if fp == nil {
		return nil
	}
	return fp.opts.faults
}

// PutMeta stores an entry in the metadata KV (persisted with the catalog
// manifest on the next FlushWAL/Checkpoint). A nil value deletes the key.
// Writing a value byte-identical to the current one is a no-op: the key's
// staged chain is not rewritten by the next commit, which is what lets
// upper layers re-serialize cheap manifests unconditionally and still get
// O(dirty) commit cost.
func (db *DB) PutMeta(key string, val []byte) {
	if val == nil {
		db.DeleteMeta(key)
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.putMetaLocked(key, append([]byte(nil), val...))
}

// putMetaLocked is PutMeta for callers holding db.mu exclusively; it keeps
// val.
func (db *DB) putMetaLocked(key string, val []byte) {
	if cur, ok := db.meta[key]; ok && !db.metaDel[key] && bytes.Equal(cur, val) {
		return
	}
	db.meta[key] = val
	delete(db.metaDel, key)
	db.metaDirty[key] = true
}

// DeleteMeta removes a metadata entry; its out-of-line value chain is
// reclaimed by the next FlushWAL/Checkpoint. Deleting a missing key is a
// no-op.
func (db *DB) DeleteMeta(key string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.deleteMetaLocked(key)
}

func (db *DB) deleteMetaLocked(key string) {
	_, cached := db.meta[key]
	_, staged := db.metaLoc[key]
	if (!cached && !staged) || db.metaDel[key] {
		return
	}
	delete(db.meta, key)
	db.metaDel[key] = true
	db.metaDirty[key] = true
}

// GetMeta fetches a metadata entry, reading its out-of-line value chain on
// first access. A chain read failure (torn or corrupt manifest pages)
// reports the key as missing and surfaces the error through Pool().Err;
// callers that must distinguish absent from unreadable use MetaValue.
func (db *DB) GetMeta(key string) ([]byte, bool) {
	v, ok, err := db.MetaValue(key)
	if err != nil {
		db.pool.setErr(err)
		return nil, false
	}
	return v, ok
}

// MetaValue is GetMeta with the chain read error surfaced: (nil, false,
// nil) means the key does not exist; a non-nil error means the key exists
// but its value chain could not be read (torn or corrupt manifest pages).
// Cached hits (and misses) stay on a shared lock; only the one-time chain
// read that populates the cache takes the exclusive lock.
func (db *DB) MetaValue(key string) ([]byte, bool, error) {
	db.mu.RLock()
	if db.metaDel[key] {
		db.mu.RUnlock()
		return nil, false, nil
	}
	if v, ok := db.meta[key]; ok {
		out := append([]byte(nil), v...)
		db.mu.RUnlock()
		return out, true, nil
	}
	if _, ok := db.metaLoc[key]; !ok {
		db.mu.RUnlock()
		return nil, false, nil
	}
	db.mu.RUnlock()

	db.mu.Lock()
	defer db.mu.Unlock()
	// Re-check under the exclusive lock: the key may have been cached,
	// rewritten or deleted while the lock was dropped.
	if db.metaDel[key] {
		return nil, false, nil
	}
	if v, ok := db.meta[key]; ok {
		return append([]byte(nil), v...), true, nil
	}
	loc, ok := db.metaLoc[key]
	if !ok {
		return nil, false, nil
	}
	fp := db.filePager()
	if fp == nil {
		return nil, false, nil
	}
	blob, err := fp.readMetaValue(loc.pages, loc.n)
	if err != nil {
		return nil, false, fmt.Errorf("rdbms: meta %q: %w", key, err)
	}
	db.meta[key] = blob
	return append([]byte(nil), blob...), true, nil
}

// MetaKeys lists metadata keys with the prefix, sorted: cached and staged
// keys alike, minus pending deletions and the catalog's own schema records.
// This is the prefix iteration upper layers use to enumerate (and GC)
// manifest segments.
func (db *DB) MetaKeys(prefix string) []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	seen := make(map[string]bool)
	var out []string
	add := func(k string) {
		if strings.HasPrefix(k, prefix) && !strings.HasPrefix(k, schemaKeyPrefix) && !db.metaDel[k] && !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	for k := range db.meta {
		add(k)
	}
	for k := range db.metaLoc {
		add(k)
	}
	sort.Strings(out)
	return out
}

// stageMetaLocked writes every dirty metadata value — first among them the
// schema records of tables DDL touched — into its out-of-line page chain and
// reclaims the chains of deleted keys, so the root serialized next
// references exactly the staged state. Cost is one flag test per table plus
// the dirty set. db.mu must be held; fp is the database's file pager.
func (db *DB) stageMetaLocked(fp *FilePager) {
	for k, t := range db.tables {
		if t.schemaDirty {
			db.putMetaLocked(schemaKey(k), encodeSchema(t))
			t.schemaDirty = false
		}
	}
	if len(db.metaDirty) == 0 {
		return
	}
	keys := make([]string, 0, len(db.metaDirty))
	for k := range db.metaDirty {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if db.metaDel[k] {
			if loc, ok := db.metaLoc[k]; ok {
				fp.free(loc.pages)
				delete(db.metaLoc, k)
			}
			delete(db.metaDel, k)
			continue
		}
		loc := db.metaLoc[k]
		pages := fp.writeMetaValue(loc.pages, db.meta[k])
		db.metaLoc[k] = metaChainLoc{pages: pages, n: len(db.meta[k])}
	}
	db.metaDirty = make(map[string]bool)
}

// CreateTable registers a new table. The heap is allocated lazily except
// for its first page, matching the paper's fixed per-table cost s1 = 8 KB.
func (db *DB) CreateTable(name string, schema Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := db.tables[key]; ok {
		return nil, fmt.Errorf("rdbms: table %q already exists", name)
	}
	if len(schema.Cols) == 0 {
		return nil, fmt.Errorf("rdbms: table %q needs at least one column", name)
	}
	seen := map[string]bool{}
	for _, c := range schema.Cols {
		lc := strings.ToLower(c.Name)
		if seen[lc] {
			return nil, fmt.Errorf("rdbms: duplicate column %q in table %q", c.Name, name)
		}
		seen[lc] = true
	}
	t := &Table{
		Name:        name,
		Schema:      schema,
		db:          db,
		heap:        newHeapFile(db.disk, db.pool),
		indexes:     make(map[string]*tableIndex),
		schemaDirty: true,
	}
	// Allocate the first page up front: a table always costs one page.
	id := db.disk.alloc()
	t.heap.pages = append(t.heap.pages, id)
	db.tables[key] = t
	return t, nil
}

// DropTable removes the table and queues its heap pages for reclamation,
// so a growing-and-shrinking workload reuses file space instead of growing
// the data file forever. The pages become reusable at the next
// FlushWAL/Checkpoint, when a manifest that no longer references them is
// staged. (B+ tree indexes live in memory and are rebuilt from the heap on
// open; they hold no pages to reclaim.)
func (db *DB) DropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	t, ok := db.tables[key]
	if !ok {
		return fmt.Errorf("rdbms: table %q does not exist", name)
	}
	delete(db.tables, key)
	db.deleteMetaLocked(schemaKey(key))
	db.reclaimLocked(t.heap.pages)
	return nil
}

// reclaimLocked hands pages to the pager for reclamation, first discarding
// any buffer-pool frames so a stale frame cannot shadow a future
// reallocation. db.mu must be held.
func (db *DB) reclaimLocked(ids []PageID) {
	if len(ids) == 0 {
		return
	}
	db.pool.discard(ids)
	db.disk.free(ids)
}

// Table returns the named table, or nil.
func (db *DB) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[strings.ToLower(name)]
}

// TableNames lists tables in sorted order.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// StorageBytes returns the database footprint: heap pages of live tables
// plus catalog overhead per table and column and index footprints.
func (db *DB) StorageBytes() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var n int64
	for _, t := range db.tables {
		n += t.StorageBytes()
	}
	return n
}

// Truncate removes every row, returning the heap's pages to the pager free
// list and resetting the indexes. Like CreateTable, the empty table keeps
// one freshly allocated first page (the paper's fixed per-table cost s1).
func (t *Table) Truncate() {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	t.db.reclaimLocked(t.heap.pages)
	t.heap.pages = t.heap.pages[:0]
	t.heap.freeHint = 0
	t.heap.tuples = 0
	t.heap.free, t.heap.index = nil, nil
	t.heap.pages = append(t.heap.pages, t.db.disk.alloc())
	for _, idx := range t.indexes {
		idx.tree = NewBTree(64)
	}
}

// Insert appends a row, maintaining indexes. The row arity must match the
// schema; datum types are checked loosely (NULL fits anywhere, ints fit
// float columns).
//
// Mutations take the catalog lock shared, which serializes them against
// FlushWAL/Checkpoint (the manifest reads heap extents). Tables are
// single-writer: two goroutines may mutate different tables concurrently,
// but not the same one.
func (t *Table) Insert(r Row) (RID, error) {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	if len(r) != t.Schema.Arity() {
		return RID{}, fmt.Errorf("rdbms: %s: row arity %d != schema arity %d", t.Name, len(r), t.Schema.Arity())
	}
	for i, d := range r {
		if !datumFits(d, t.Schema.Cols[i].Type) {
			return RID{}, fmt.Errorf("rdbms: %s: column %s expects %v, got %v",
				t.Name, t.Schema.Cols[i].Name, t.Schema.Cols[i].Type, d.Type())
		}
	}
	rid, err := t.heap.insert(r)
	if err != nil {
		return RID{}, err
	}
	for _, idx := range t.indexes {
		idx.tree.Insert(indexKey(r[idx.col]), rid)
	}
	return rid, nil
}

// Get fetches the row at rid.
func (t *Table) Get(rid RID) (Row, bool) { return t.heap.get(rid) }

// GetMany is the batched, projected read path for range scans: it fetches
// the rows at rids while pinning each distinct heap page in the buffer pool
// once per batch, and decodes only the attributes whose indexes appear in
// proj (sorted ascending; nil decodes all — see decodeRowColsInto).
//
// fn is called once per rid — in page-grouped order, not input order — with
// the rid's position i in the input slice and the projected values (vals[k]
// is attribute proj[k]). vals is reused across calls; copy datums that must
// outlive the callback. GetMany returns the first error: an unreadable page,
// a tombstoned/dangling rid, a corrupt tuple, or an error from fn.
//
// GetMany takes no table lock and is safe for concurrent readers; it must
// not run concurrently with writers of the same table (the single-writer
// contract of this substrate).
func (t *Table) GetMany(rids []RID, proj []int, fn func(i int, vals Row) error) error {
	return t.heap.getMany(rids, proj, fn)
}

// Update rewrites the row at rid, returning the (possibly moved) RID.
func (t *Table) Update(rid RID, r Row) (RID, error) {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	if len(r) != t.Schema.Arity() {
		return RID{}, fmt.Errorf("rdbms: %s: row arity %d != schema arity %d", t.Name, len(r), t.Schema.Arity())
	}
	// The old row is decoded only for the index entries it has to leave; a
	// table without indexes (every sheet table) skips the read, and a
	// missing tuple is reported by the heap's own update.
	var old Row
	if len(t.indexes) > 0 {
		var ok bool
		if old, ok = t.heap.get(rid); !ok {
			return RID{}, fmt.Errorf("rdbms: %s: update of missing tuple %v", t.Name, rid)
		}
	}
	newRID, err := t.heap.update(rid, r)
	if err != nil {
		return RID{}, err
	}
	for _, idx := range t.indexes {
		if !old[idx.col].Equal(r[idx.col]) || newRID != rid {
			idx.tree.Delete(indexKey(old[idx.col]), rid)
			idx.tree.Insert(indexKey(r[idx.col]), newRID)
		}
	}
	return newRID, nil
}

// Delete tombstones the row at rid.
func (t *Table) Delete(rid RID) bool {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	old, ok := t.heap.get(rid)
	if !ok {
		return false
	}
	if !t.heap.del(rid) {
		return false
	}
	for _, idx := range t.indexes {
		idx.tree.Delete(indexKey(old[idx.col]), rid)
	}
	return true
}

// Scan iterates live rows in heap order. Returning false stops early.
func (t *Table) Scan(fn func(RID, Row) bool) { t.heap.scan(fn) }

// RowCount returns the number of live rows.
func (t *Table) RowCount() int { return t.heap.tupleCount() }

// AddColumn appends an attribute to the schema. Existing tuples are not
// rewritten: reads of old tuples yield NULL for the new attribute (callers
// pad on decode), matching how row stores implement ALTER TABLE ADD COLUMN
// without a table rewrite.
func (t *Table) AddColumn(c Column) error {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	if t.Schema.ColIndex(c.Name) >= 0 {
		return fmt.Errorf("rdbms: %s: column %q already exists", t.Name, c.Name)
	}
	t.Schema.Cols = append(t.Schema.Cols, c)
	t.schemaDirty = true
	return nil
}

// CreateIndex builds a B+ tree index over an integer column.
func (t *Table) CreateIndex(col string) error {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	i := t.Schema.ColIndex(col)
	if i < 0 {
		return fmt.Errorf("rdbms: %s: no column %q", t.Name, col)
	}
	key := strings.ToLower(col)
	if _, ok := t.indexes[key]; ok {
		return fmt.Errorf("rdbms: %s: index on %q already exists", t.Name, col)
	}
	idx := &tableIndex{col: i, tree: NewBTree(64)}
	t.heap.scan(func(rid RID, r Row) bool {
		idx.tree.Insert(indexKey(r[i]), rid)
		return true
	})
	t.indexes[key] = idx
	t.schemaDirty = true
	return nil
}

// IndexScan iterates rows with lo <= col value <= hi using the index.
// It returns false when no index exists on the column.
func (t *Table) IndexScan(col string, lo, hi int64, fn func(RID, Row) bool) bool {
	idx, ok := t.indexes[strings.ToLower(col)]
	if !ok {
		return false
	}
	idx.tree.Scan(lo, hi, func(_ int64, rid RID) bool {
		row, ok := t.heap.get(rid)
		if !ok {
			return true
		}
		return fn(rid, row)
	})
	return true
}

// StorageBytes returns the table footprint: heap pages + catalog entries +
// index entries (16 bytes per index entry, key + RID).
func (t *Table) StorageBytes() int64 {
	n := t.heap.storageBytes()
	n += TableCatalogBytes
	n += int64(t.Schema.Arity()) * ColumnCatalogBytes
	for _, idx := range t.indexes {
		n += int64(idx.tree.Len()) * 16
	}
	return n
}

// LiveBytes returns bytes held by live tuples (with headers), a tighter
// measure than page-granular StorageBytes.
func (t *Table) LiveBytes() int64 { return t.heap.liveBytes() }

// indexKey maps a datum to its index key. Only numerics are indexable.
func indexKey(d Datum) int64 { return d.Int64() }

func datumFits(d Datum, t DType) bool {
	if d.typ == DTNull || t == DTAny {
		return true
	}
	if t == DTFloat && d.typ == DTInt {
		return true
	}
	return d.typ == t
}

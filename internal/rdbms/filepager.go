package rdbms

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// FilePager is the stable-storage layer, the one pager of every database:
// 8 KiB pages persisted to a single data file with per-page checksums,
// fronted by a write-ahead log. Its files live in a fileSystem (fsys.go):
// on disk for OpenFile, in memory for Open.
//
// Data file layout (<path>):
//
//	header block (8 KiB): magic, version, page count, meta chain head+length, CRC
//	page slots: per page, 4-byte CRC-32C + 4-byte page id + 8 KiB image
//
// The WAL layout (<path>.wal, rotated into <path>.wal.0001, ...) is in wal.go.
//
// Write path: mutated pages accumulate in an in-memory shadow overlay (the
// write-back target of buffer-pool evictions and flushes). A WAL commit logs
// every page dirtied since the previous commit — its image the first time
// after a checkpoint, the byte ranges that changed after that — appends a
// commit record and fsyncs — at that point the batch is durable.
// When the active segment outgrows its bound the log rotates: appends move
// to the next numbered segment (commits never straddle a boundary), and a
// checkpoint — triggered explicitly, by dirty-page count, or by the
// live-segment cap — incrementally writes the pages dirtied since the last
// checkpoint into their data-file slots, fsyncs, and deletes every sealed
// segment (compaction). On open, committed WAL batches
// are redone across all segments in order before anything is read (crash
// recovery); uncommitted or torn tails are discarded.
//
// Failure semantics: any WAL append/fsync or checkpoint write/fsync error
// poisons the pager — every later commit and checkpoint returns a sticky
// error unwrapping to ErrPoisoned and ErrReadOnly, while page reads keep
// working. A failed fsync is never retried against the same file handles:
// the kernel may have dropped the dirty pages the failure reported, so only
// a fresh open (whose recovery replays the WAL) re-establishes known state.
type FilePager struct {
	// mu guards all mutable pager state. Readers (fetch, verify) take it
	// shared — page reads are positioned pread calls, so concurrent range
	// scans overlap their file I/O instead of serializing — while every
	// mutation (alloc, write-back, commit, checkpoint, meta) takes it
	// exclusively.
	mu   sync.RWMutex
	fs   fileSystem
	path string  // data file name in fs; "" for an in-memory database
	f    dbFile  // data file (possibly fault-wrapped)
	wal  dbFile  // active WAL segment (possibly fault-wrapped)
	opts Options // resolved

	pages int
	// shadow is the in-memory page overlay: the newest version of every
	// page written since open (bounded — see trimShadowLocked). Pages in
	// ckptDirty exist only here until the next checkpoint writes their
	// data-file slot; the rest are a retained clean cache of checkpointed
	// images (also the scrubber's repair source).
	shadow map[PageID]*page
	// walDirty marks pages modified since the last WAL commit.
	walDirty map[PageID]bool
	// ckptDirty marks pages modified since the last checkpoint. Checkpoints
	// are incremental: only these pages are written back, not the whole
	// shadow overlay. Invariant: walDirty ⊆ ckptDirty ⊆ shadow keys, and
	// every shadow entry outside ckptDirty matches its on-disk slot. A page
	// with a record in the log stays here, dead or alive, until a checkpoint
	// has written its slot (forgetPageLocked, truncateTail): whatever suffix
	// of the log a crash leaves, each of its deltas has a base.
	ckptDirty map[PageID]bool
	// walBase holds, for each page in walDirty that was in ckptDirty before
	// this batch touched it, the image the log already holds for it — what
	// the next commit's delta record is taken against. A walDirty page
	// without a base is in no log record since the last checkpoint and logs
	// its image. The bases live only until the commit that consumes them.
	walBase map[PageID]*page
	// quarantined marks page slots the scrubber found corrupt and could not
	// repair. Reads of them keep failing with ErrChecksum (the region is
	// degraded); the store as a whole is not poisoned. A page leaves
	// quarantine when a checkpoint rewrites its slot, a later scrub finds it
	// clean, or it is freed.
	quarantined map[PageID]bool
	// freeList holds pages returned by dropped or truncated heaps, reused
	// by alloc before the file grows. Persisted in the catalog manifest so
	// reclaimed space survives reopen.
	freeList []PageID
	// pendingFree holds pages freed since the last manifest staging. Their
	// shadow/WAL images are kept alive — the last staged manifest may still
	// reference them, and a commit or checkpoint racing the drop must stay
	// self-consistent. promotePendingFree moves them to freeList when the
	// next manifest (which no longer references them) is staged.
	pendingFree []PageID

	// Meta chain: pages carrying the serialized catalog manifest.
	metaHead  PageID
	metaLen   uint32
	metaPages []PageID

	walSize int64 // append offset in the active WAL segment
	// walSeq numbers the active WAL segment: 0 is <path>.wal (every
	// database starts there), rotations move to <path>.wal.0001 and up.
	// sealed lists the full segments behind the active one, oldest first;
	// they are deleted when a checkpoint makes them redundant.
	walSeq int
	sealed []walSegment
	closed bool

	// recoveredExtents, set by recover before its resetWAL calls, maps each
	// on-disk WAL segment to its committed prefix length so archiving copies
	// exactly the replayable bytes (a torn tail is never archived). Nil in
	// normal operation, where the sealed sizes and walSize are authoritative.
	recoveredExtents map[int]int64

	// gen is the durable commit generation: the number of non-empty WAL
	// batches ever committed to this database. Unlike DB.commitGen (a
	// process-local visibility stamp that also counts empty and in-memory
	// commits), gen is persisted — stamped into every commit record and the
	// data-file header — so backups and archived WAL segments can name an
	// exact point in time across restarts. Mutated only under fp.mu; atomic
	// so DurableGen and the stats path read it without queueing behind I/O.
	gen atomic.Uint64

	// Hot-backup walk state. backupActive is set while DB.Backup streams the
	// data file; checkpointLocked then preserves the pre-image of any slot it
	// is about to overwrite that the walker (whose progress is backupCursor)
	// has not yet passed, so the backup lands on the single committed
	// generation it pinned. All fields except the atomic cursor are guarded
	// by fp.mu.
	backupActive bool
	backupPages  int
	backupFree   map[PageID]bool
	backupPre    map[PageID]*page
	backupErr    error
	backupCursor atomic.Int64

	// pmu guards the sticky poison state (readable without fp.mu so the
	// stats path and upper-layer write guards never queue behind I/O).
	pmu         sync.Mutex
	poisonCause error

	// gate is the owning DB's lock, held shared around every commit.
	// Staging — manifest serialization plus the write-back of dirty pool
	// frames — holds it exclusively, so a commit can never snapshot a
	// half-staged batch into a durable commit record.
	gate *sync.RWMutex
	// epoch counts reopens (reopenLocked). A batch is staged in one epoch;
	// a commit in a later one refuses it, because the reopen between them
	// discarded it. Written under fp.mu with the gate held exclusively, so
	// a holder of either reads it.
	epoch uint64

	diskReads, diskWrites, walAppends   atomic.Int64
	walDeltas                           atomic.Int64
	walSyncs, walBytes, checkpointCount atomic.Int64
	manifestBytes, manifestSegments     atomic.Int64
	walRotations, walCompacted          atomic.Int64
	checkpointPages                     atomic.Int64
	scrubRuns, scrubPages               atomic.Int64
	scrubRepaired, scrubBad             atomic.Int64
	vacuumRuns, vacuumPagesMoved        atomic.Int64
	vacuumBytesFreed, recoveries        atomic.Int64
	backupRuns, backupPagesStreamed     atomic.Int64
	backupByteCount, walArchived        atomic.Int64
	archiveByteCount                    atomic.Int64
}

const (
	fileMagic = "DSPDB001"
	// fileVersion is the one data-file format this build reads and writes
	// (header with the 8-byte durable generation; catalog root, per-table
	// schema records and the sheets' store and engine manifests in the row
	// codec, see manifest.go — none of them carries a version of its own;
	// sheet cells as typed datums holding values only, formula source being
	// the engine's formula set, see internal/model/codec.go; a log of page
	// images and page deltas, see wal.go). Any other version fails OpenFile.
	fileVersion = 8

	// fileHeaderSize keeps page slots page-aligned.
	fileHeaderSize = PageSize
	// pageSlotSize is a data-file page slot: CRC + page id + image.
	pageSlotSize = 8 + PageSize
	// metaPayload is the usable payload of a meta-chain page (first 4 bytes
	// hold the next-page pointer).
	metaPayload = PageSize - 4
)

// noPage is the nil page id (meta chain terminator).
const noPage = ^PageID(0)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func pageOffset(id PageID) int64 {
	return fileHeaderSize + int64(id)*pageSlotSize
}

// newFilePager opens or creates the data file at path (WAL at path+".wal"),
// takes an exclusive advisory lock on it, and runs crash recovery: committed
// WAL batches are applied to the data file, torn or uncommitted tails
// discarded. gate is the owning DB's lock (see FilePager.gate).
func newFilePager(fs fileSystem, path string, opts Options, gate *sync.RWMutex) (*FilePager, error) {
	fp := &FilePager{fs: fs, path: path, opts: opts, gate: gate}
	if err := fp.openFilesLocked(); err != nil {
		return nil, err
	}
	return fp, nil
}

// openFilesLocked opens and locks the data file, opens the WAL, reads (or
// initializes) the header and runs WAL redo recovery — the whole open
// sequence, from empty in-memory state. On failure both handles are closed.
// Shared by newFilePager (no locking needed yet) and reopenLocked (fp.mu
// held exclusively).
func (fp *FilePager) openFilesLocked() error {
	fp.pages = 0
	fp.shadow = make(map[PageID]*page)
	fp.walDirty = make(map[PageID]bool)
	fp.ckptDirty = make(map[PageID]bool)
	fp.walBase = make(map[PageID]*page)
	fp.quarantined = make(map[PageID]bool)
	fp.freeList = nil
	fp.pendingFree = nil
	fp.metaHead = noPage
	fp.metaLen = 0
	fp.metaPages = nil
	fp.walSize = 0
	fp.walSeq = 0
	fp.sealed = nil
	fp.recoveredExtents = nil
	f, size, err := fp.fs.openData(fp.path)
	if err != nil {
		return fmt.Errorf("rdbms: open data file: %w", err)
	}
	wal, err := fp.fs.openLog(fp.walSegPath(0), false)
	if err != nil {
		f.Close()
		return fmt.Errorf("rdbms: open WAL: %w", err)
	}
	fp.f = wrapFaultFile(f, FaultFileData, fp.opts.Faults)
	fp.wal = wrapFaultFile(wal, FaultFileWAL, fp.opts.Faults)
	fail := func(err error) error {
		fp.f.Close()
		fp.wal.Close()
		return err
	}
	var hdrErr error
	if size == 0 {
		if err := fp.writeHeader(); err != nil {
			return fail(err)
		}
		if err := f.Sync(); err != nil {
			return fail(err)
		}
	} else if hdrErr = fp.readHeader(); errors.Is(hdrErr, errFormatVersion) {
		return fail(hdrErr)
	}
	// The header is rewritten in place at checkpoint, so a crash can tear
	// it. The WAL commit record carries the same fields: when recovery
	// applies a committed batch it also rebuilds the header, rescuing a
	// torn one. Only fail on a bad header when the WAL cannot help.
	redone, recErr := fp.recover()
	if recErr != nil {
		return fail(fmt.Errorf("rdbms: WAL recovery: %w", recErr))
	}
	if hdrErr != nil && !redone {
		return fail(hdrErr)
	}
	return nil
}

// reopenLocked is the poison-recovery path: it discards the distrusted file
// handles and every piece of in-memory state derived from them (uncommitted
// staged work is lost, exactly as a crash would lose it), then re-runs the
// open sequence — header read plus WAL redo recovery — so the pager
// converges to the last durably committed state on fresh handles. Both the
// gate and fp.mu must be held exclusively. The epoch moves on, so a batch
// staged before the reopen is refused by its commit instead of acked.
// On failure the pager is left closed; a later reopen attempt may still
// succeed (e.g. once the disk stops rejecting writes).
func (fp *FilePager) reopenLocked() error {
	// The old handles are exactly the ones whose durable state is unknown
	// (fsyncgate); close errors on them carry no information.
	fp.f.Close()
	fp.wal.Close()
	fp.closed = true
	fp.epoch++
	if fp.backupActive && fp.backupErr == nil {
		// The slots an in-flight backup still has to stream are about to be
		// rewritten by recovery; the walk cannot land on one generation any
		// more.
		fp.backupErr = errors.New("rdbms: backup aborted: database recovered underneath it")
	}
	if err := fp.openFilesLocked(); err != nil {
		return err
	}
	fp.closed = false
	return nil
}

func (fp *FilePager) writeHeader() error {
	return writeStoreHeader(fp.f, fp.pages, fp.metaHead, fp.metaLen, fp.gen.Load())
}

// writeStoreHeader writes a data-file header block. Shared by the pager
// (checkpoint, recovery) and the restore path, which rebuilds a store
// without ever opening a pager on it.
func writeStoreHeader(w io.WriterAt, pages int, metaHead PageID, metaLen uint32, gen uint64) error {
	var b [fileHeaderSize]byte
	copy(b[0:8], fileMagic)
	binary.LittleEndian.PutUint32(b[8:], fileVersion)
	binary.LittleEndian.PutUint32(b[12:], uint32(pages))
	binary.LittleEndian.PutUint32(b[16:], uint32(metaHead))
	binary.LittleEndian.PutUint32(b[20:], metaLen)
	binary.LittleEndian.PutUint64(b[24:], gen)
	binary.LittleEndian.PutUint32(b[32:], crc32.Checksum(b[0:32], castagnoli))
	_, err := w.WriteAt(b[:], 0)
	return err
}

// errFormatVersion marks a file whose header is intact but names a format
// version other than the one this build reads. Unlike a torn header it is
// never rescued from the WAL: replaying a log over a file of another format
// would misread it.
var errFormatVersion = errors.New("unsupported format version")

func (fp *FilePager) readHeader() error {
	var b [36]byte
	if _, err := fp.f.ReadAt(b[:], 0); err != nil {
		return fmt.Errorf("rdbms: read header: %w", err)
	}
	if string(b[0:8]) != fileMagic {
		return fmt.Errorf("rdbms: %s is not a DataSpread database (bad magic)", fp.path)
	}
	// Magic and version are the same bytes in every header write, so a torn
	// checkpoint cannot change them: a mismatch is a different format, not
	// damage, and is checked before the CRC (whose position moved between
	// versions).
	if v := binary.LittleEndian.Uint32(b[8:]); v != fileVersion {
		return fmt.Errorf("rdbms: %s: data file format version %d, this build reads only version %d: %w",
			fp.path, v, fileVersion, errFormatVersion)
	}
	if crc32.Checksum(b[0:32], castagnoli) != binary.LittleEndian.Uint32(b[32:]) {
		return fmt.Errorf("rdbms: header checksum mismatch (corrupt database)")
	}
	fp.pages = int(binary.LittleEndian.Uint32(b[12:]))
	fp.metaHead = PageID(binary.LittleEndian.Uint32(b[16:]))
	fp.metaLen = binary.LittleEndian.Uint32(b[20:])
	fp.gen.Store(binary.LittleEndian.Uint64(b[24:32]))
	return nil
}

// readPageFromFile loads and checksum-verifies one page slot.
func (fp *FilePager) readPageFromFile(id PageID) (*page, error) {
	p, err := readSlot(fp.f, id)
	if err == nil || errors.Is(err, ErrChecksum) {
		fp.diskReads.Add(1)
	}
	return p, err
}

// readSlot loads and checksum-verifies one page slot through any positioned
// reader. Shared by the pager and the restore path.
func readSlot(r io.ReaderAt, id PageID) (*page, error) {
	buf := make([]byte, pageSlotSize)
	if _, err := r.ReadAt(buf, pageOffset(id)); err != nil {
		return nil, fmt.Errorf("rdbms: read page %d: %w", id, err)
	}
	if stored := binary.LittleEndian.Uint32(buf[4:8]); stored != uint32(id) {
		return nil, fmt.Errorf("rdbms: page %d slot holds page %d (misplaced write): %w", id, stored, ErrChecksum)
	}
	if crc32.Checksum(buf[8:], castagnoli) != binary.LittleEndian.Uint32(buf[0:4]) {
		return nil, fmt.Errorf("rdbms: page %d (torn or corrupt page): %w", id, ErrChecksum)
	}
	p := &page{}
	copy(p.buf[:], buf[8:])
	return p, nil
}

// writePageToFile stores one page slot with its checksum.
func (fp *FilePager) writePageToFile(id PageID, p *page) error {
	if err := writeSlot(fp.f, id, p.buf[:]); err != nil {
		return err
	}
	fp.diskWrites.Add(1)
	return nil
}

// writeSlot stores one checksummed page slot through any positioned writer.
// Shared by the pager and the restore path.
func writeSlot(w io.WriterAt, id PageID, img []byte) error {
	buf := make([]byte, pageSlotSize)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(id))
	copy(buf[8:], img)
	binary.LittleEndian.PutUint32(buf[0:4], crc32.Checksum(buf[8:], castagnoli))
	if _, err := w.WriteAt(buf, pageOffset(id)); err != nil {
		return fmt.Errorf("rdbms: write page %d: %w", id, err)
	}
	return nil
}

// alloc reserves a zeroed page, reusing a freed one before the file grows.
func (fp *FilePager) alloc() PageID {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	return fp.allocLocked()
}

func (fp *FilePager) allocLocked() PageID {
	var id PageID
	if n := len(fp.freeList); n > 0 {
		id = fp.freeList[n-1]
		fp.freeList = fp.freeList[:n-1]
	} else {
		id = PageID(fp.pages)
		fp.pages++
	}
	p := &page{}
	p.init()
	fp.stageLocked(id, p)
	return id
}

// stageLocked makes p page id's newest image and stages it. The image it
// replaces, when that is the one the log holds, becomes the base of the
// commit's delta record. fp.mu must be held exclusively.
func (fp *FilePager) stageLocked(id PageID, p *page) {
	if fp.loggedCleanLocked(id) {
		fp.walBase[id] = fp.shadow[id]
	}
	fp.shadow[id] = p
	fp.markDirtyLocked(id)
}

// stageInPlaceLocked stages page id and returns its overlay image (zeroed
// when it had none) for the caller to modify; the delta base, when one is
// due, is a copy taken first. fp.mu must be held exclusively.
func (fp *FilePager) stageInPlaceLocked(id PageID) *page {
	p := fp.shadow[id]
	if p == nil {
		p = &page{}
		fp.shadow[id] = p
	} else if fp.loggedCleanLocked(id) {
		cp := *p
		fp.walBase[id] = &cp
	}
	fp.markDirtyLocked(id)
	return p
}

// markDirtyLocked stages page id for the next WAL commit and the next
// (incremental) checkpoint.
func (fp *FilePager) markDirtyLocked(id PageID) {
	fp.walDirty[id] = true
	fp.ckptDirty[id] = true
}

// loggedCleanLocked reports whether page id's overlay image is exactly what
// the log holds for it: logged since the last checkpoint, untouched since the
// last commit.
func (fp *FilePager) loggedCleanLocked(id PageID) bool {
	return fp.ckptDirty[id] && !fp.walDirty[id]
}

// free queues the pages of a dropped or truncated heap for reclamation
// (callers first discard their buffer-pool frames). They are not
// reusable yet — the last staged manifest may still list them, so their
// shadow/WAL images stay intact until the next manifest staging promotes
// them to the free list (at which point the manifest and the image set
// agree that the pages are dead). The free list is persisted in the
// catalog manifest, so reclamation survives reopen once committed.
func (fp *FilePager) free(ids []PageID) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	fp.pendingFree = append(fp.pendingFree, ids...)
}

// promotePendingFree moves queued frees onto the live free list and drops
// their dead page images. Called by the DB while staging a manifest that no
// longer references the pages (under the commit gate, so no commit can
// interleave).
func (fp *FilePager) promotePendingFree() {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	for _, id := range fp.pendingFree {
		fp.forgetPageLocked(id)
	}
	fp.freeList = append(fp.freeList, fp.pendingFree...)
	fp.pendingFree = nil
}

// forgetPageLocked drops a dead page from the overlay, as far as the log
// allows. A page with a record in the log since the last checkpoint stays in
// ckptDirty with the image the log holds for it (its uncommitted change is
// undone): the checkpoint still writes its slot, so a suffix of the log that
// survives a crash inside resetWAL finds every delta's base, and if the id is
// allocated again before that, the new page is logged against that image. A
// page in no log record is forgotten outright and logs an image in its next
// life.
func (fp *FilePager) forgetPageLocked(id PageID) {
	if base := fp.walBase[id]; base != nil {
		fp.shadow[id] = base
		delete(fp.walBase, id)
	} else if fp.walDirty[id] || !fp.ckptDirty[id] {
		delete(fp.shadow, id)
		delete(fp.ckptDirty, id)
	}
	delete(fp.walDirty, id)
	delete(fp.quarantined, id)
}

// freePages snapshots the free list for the catalog root.
func (fp *FilePager) freePages() []PageID {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	return append([]PageID(nil), fp.freeList...)
}

// setFreePages restores the free list from a loaded catalog root.
func (fp *FilePager) setFreePages(ids []PageID) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	fp.freeList = ids
}

// fetch returns the newest image of a page, or (nil, nil) for an unknown
// id: the shadow overlay wins over the data file. The caller receives a copy, never the shadow page itself: buffer-pool frames
// are mutated in place by writers, and the shadow must stay a stable
// snapshot of *staged* state for the (possibly concurrent) WAL commit to
// read. Write-backs copy in the other direction. Holding mu shared lets
// concurrent readers overlap their positioned file reads.
func (fp *FilePager) fetch(id PageID) (*page, error) {
	fp.mu.RLock()
	defer fp.mu.RUnlock()
	if p, ok := fp.shadow[id]; ok {
		cp := &page{}
		*cp = *p
		return cp, nil
	}
	if int(id) >= fp.pages {
		return nil, nil
	}
	return fp.readPageFromFile(id)
}

// writeBack stages a buffer-pool frame: a copy joins the shadow overlay and
// is staged for the next WAL commit. No file I/O happens here.
func (fp *FilePager) writeBack(id PageID, p *page) error {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	cp := &page{}
	*cp = *p
	fp.stageLocked(id, cp)
	return nil
}

// pageCount returns the number of allocated pages.
func (fp *FilePager) pageCount() int {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	return fp.pages
}

// poison records the first durability-critical failure and returns the
// sticky error for it. Every later commit or checkpoint fails with the same
// cause until the database is reopened.
func (fp *FilePager) poison(cause error) error {
	fp.pmu.Lock()
	defer fp.pmu.Unlock()
	if fp.poisonCause == nil {
		fp.poisonCause = cause
	}
	return &poisonedError{cause: fp.poisonCause}
}

// poisonedErr returns the sticky poison error, or nil while healthy.
func (fp *FilePager) poisonedErr() error {
	fp.pmu.Lock()
	defer fp.pmu.Unlock()
	if fp.poisonCause == nil {
		return nil
	}
	return &poisonedError{cause: fp.poisonCause}
}

// clearPoison lifts the sticky failure. Only the recovery path calls it,
// after a reopen re-established known durable state on fresh handles and
// full page verification passed.
func (fp *FilePager) clearPoison() {
	fp.pmu.Lock()
	fp.poisonCause = nil
	fp.pmu.Unlock()
}

// checkpoint commits the WAL, writes every dirty page into its data-file
// slot, fsyncs the data file, and truncates the WAL.
func (fp *FilePager) checkpoint() error {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	return fp.checkpointLocked()
}

// checkpointLocked is incremental: it writes only the pages dirtied since
// the previous checkpoint (ckptDirty), not the whole shadow overlay, so the
// commit-latency spike of an auto-checkpoint is O(changed pages). Clean
// shadow entries are retained afterwards as a cache of checkpointed images
// — they serve reads without file I/O and are the scrubber's repair source
// — trimmed to a bound so memory stays proportional to the threshold.
func (fp *FilePager) checkpointLocked() error {
	if err := fp.commitWALLocked(); err != nil {
		return err
	}
	ids := make([]PageID, 0, len(fp.ckptDirty))
	for id := range fp.ckptDirty {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p := fp.shadow[id]
		if p == nil {
			return fmt.Errorf("rdbms: checkpoint-dirty page %d missing from shadow", id)
		}
		fp.preserveBackupImageLocked(id)
		if err := fp.writePageToFile(id, p); err != nil {
			return fp.poison(err)
		}
	}
	if err := fp.writeHeader(); err != nil {
		return fp.poison(fmt.Errorf("rdbms: write header: %w", err))
	}
	if err := fp.f.Sync(); err != nil {
		// fsyncgate again, on the data file: the checkpointed pages may or
		// may not be durable, and the WAL is about to be truncated on that
		// assumption. Poison; recovery on reopen replays the intact WAL.
		return fp.poison(fmt.Errorf("rdbms: data file fsync: %w", err))
	}
	if err := fp.resetWAL(); err != nil {
		return fp.poison(fmt.Errorf("rdbms: WAL reset: %w", err))
	}
	for _, id := range ids {
		// The slot now holds this exact image; a previously quarantined
		// page is healed by the rewrite.
		delete(fp.quarantined, id)
	}
	fp.ckptDirty = make(map[PageID]bool)
	fp.trimShadowLocked()
	fp.checkpointCount.Add(1)
	fp.checkpointPages.Add(int64(len(ids)))
	return nil
}

// trimShadowLocked bounds the retained clean-page cache after a checkpoint:
// only pages outside ckptDirty are dropped (their slots are current), in no
// particular order. The bound reuses the auto-checkpoint threshold so the
// overlay never holds more than about twice the checkpoint working set.
func (fp *FilePager) trimShadowLocked() {
	bound := fp.opts.AutoCheckpointPages
	if bound <= 0 {
		bound = defaultAutoCheckpointPages
	}
	for id := range fp.shadow {
		if len(fp.shadow) <= bound {
			return
		}
		if fp.ckptDirty[id] {
			continue
		}
		delete(fp.shadow, id)
	}
}

// writeMeta stores the serialized catalog root into the meta page chain,
// reusing existing chain pages, allocating more as the root grows and
// queueing surplus pages for reclamation as it shrinks. Only pages whose
// link or payload differs from their overlay image are staged (a page
// without an overlay image is rewritten, never assumed current), so a
// commit that changed nothing stages nothing and commitWALLocked returns
// before the append and the fsync. Durability of what is staged comes from
// the next WAL commit or checkpoint.
func (fp *FilePager) writeMeta(blob []byte) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	need := (len(blob) + metaPayload - 1) / metaPayload
	for len(fp.metaPages) < need {
		fp.metaPages = append(fp.metaPages, fp.allocLocked())
	}
	if len(fp.metaPages) > need {
		fp.pendingFree = append(fp.pendingFree, fp.metaPages[need:]...)
		fp.metaPages = fp.metaPages[:need]
	}
	head := fp.metaPages[0] // the root is never empty
	// The commit record carries head and length: when either moves, a batch
	// must be committed even if every page image already matches.
	headerMoved := head != fp.metaHead || uint32(len(blob)) != fp.metaLen
	for i, id := range fp.metaPages {
		next := noPage
		if i+1 < need {
			next = fp.metaPages[i+1]
		}
		payload := blob[i*metaPayload : min((i+1)*metaPayload, len(blob))]
		p := fp.shadow[id]
		current := p != nil && PageID(binary.LittleEndian.Uint32(p.buf[0:4])) == next &&
			bytes.Equal(p.buf[4:4+len(payload)], payload)
		if current && !(i == 0 && headerMoved) {
			continue
		}
		p = fp.stageInPlaceLocked(id)
		binary.LittleEndian.PutUint32(p.buf[0:4], uint32(next))
		copy(p.buf[4:], payload)
		fp.manifestBytes.Add(int64(len(payload)))
	}
	fp.metaHead = head
	fp.metaLen = uint32(len(blob))
}

// writeMetaValue stages one out-of-line metadata value into its own page
// chain, reusing the existing chain's pages in place (safe under WAL redo:
// the previous content is recoverable from the committed batches until the
// new one commits, and stageInPlaceLocked keeps the image a delta against it
// needs), allocating more pages as the
// value grows and queueing surplus pages for reclamation as it shrinks.
// Unlike the catalog chain, value pages carry raw payload — the page list
// and byte length live in the catalog manifest's meta directory. Returns
// the chain now holding the value.
func (fp *FilePager) writeMetaValue(chain []PageID, blob []byte) []PageID {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	need := (len(blob) + PageSize - 1) / PageSize
	for len(chain) < need {
		chain = append(chain, fp.allocLocked())
	}
	if len(chain) > need {
		fp.pendingFree = append(fp.pendingFree, chain[need:]...)
		chain = append([]PageID(nil), chain[:need]...)
	}
	for i, id := range chain {
		p := fp.stageInPlaceLocked(id)
		lo := i * PageSize
		hi := lo + PageSize
		if hi > len(blob) {
			hi = len(blob)
		}
		n := copy(p.buf[:], blob[lo:hi])
		for j := n; j < PageSize; j++ {
			p.buf[j] = 0
		}
	}
	fp.manifestBytes.Add(int64(len(blob)))
	fp.manifestSegments.Add(1)
	return chain
}

// readMetaValue loads an out-of-line metadata value from its chain,
// preferring staged (shadow) images over data-file slots.
func (fp *FilePager) readMetaValue(chain []PageID, n int) ([]byte, error) {
	fp.mu.RLock()
	defer fp.mu.RUnlock()
	if n < 0 || n > len(chain)*PageSize {
		return nil, fmt.Errorf("rdbms: truncated meta value chain (%d pages for %d bytes)", len(chain), n)
	}
	out := make([]byte, 0, n)
	remaining := n
	for _, id := range chain {
		if remaining <= 0 {
			break
		}
		p, ok := fp.shadow[id]
		if !ok {
			if int(id) >= fp.pages {
				return nil, fmt.Errorf("rdbms: meta value chain references unknown page %d", id)
			}
			var err error
			p, err = fp.readPageFromFile(id)
			if err != nil {
				return nil, err
			}
		}
		take := remaining
		if take > PageSize {
			take = PageSize
		}
		out = append(out, p.buf[:take]...)
		remaining -= take
	}
	return out, nil
}

// readMeta loads the catalog manifest from the meta chain (nil when the
// database has never been flushed). It also rebuilds the chain page list so
// later writes reuse the pages.
func (fp *FilePager) readMeta() ([]byte, error) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	fp.metaPages = fp.metaPages[:0]
	if fp.metaHead == noPage || fp.metaLen == 0 {
		return nil, nil
	}
	out := make([]byte, 0, fp.metaLen)
	id := fp.metaHead
	remaining := int(fp.metaLen)
	for remaining > 0 {
		if id == noPage || int(id) >= fp.pages {
			return nil, fmt.Errorf("rdbms: truncated meta chain")
		}
		p, ok := fp.shadow[id]
		if !ok {
			var err error
			p, err = fp.readPageFromFile(id)
			if err != nil {
				return nil, err
			}
		}
		fp.metaPages = append(fp.metaPages, id)
		n := remaining
		if n > metaPayload {
			n = metaPayload
		}
		out = append(out, p.buf[4:4+n]...)
		remaining -= n
		id = PageID(binary.LittleEndian.Uint32(p.buf[0:4]))
	}
	return out, nil
}

// unverifiableLocked builds the set of pages whose data-file slot is not
// expected to hold a valid current image: dirty since the last checkpoint,
// freed, or pending free. fp.mu must be held (shared suffices).
func (fp *FilePager) unverifiableLocked() map[PageID]bool {
	skip := make(map[PageID]bool, len(fp.ckptDirty)+len(fp.freeList)+len(fp.pendingFree))
	for id := range fp.ckptDirty {
		skip[id] = true
	}
	for _, id := range fp.freeList {
		skip[id] = true
	}
	for _, id := range fp.pendingFree {
		skip[id] = true
	}
	return skip
}

// closeFiles releases the file handles without flushing anything — the
// crash-simulation path. Close goes through DB.Close, which checkpoints
// first. Closing the data file also drops its advisory lock.
func (fp *FilePager) closeFiles() error {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if fp.closed {
		return nil
	}
	fp.closed = true
	ferr := fp.f.Close()
	werr := fp.wal.Close()
	// A failed rotation can leave the WAL handle already closed; that is
	// not a close failure worth reporting on top of the poison state.
	if errors.Is(werr, os.ErrClosed) {
		werr = nil
	}
	return errors.Join(ferr, werr)
}

// pagerCounter pairs one cumulative pager counter with the IOStats field it
// is reported through.
type pagerCounter struct {
	ctr   *atomic.Int64
	field *int64
}

// counters is the table of the pager's cumulative counters: fillIOStats
// loads each into its field of s, resetIOCounters zeroes each.
func (fp *FilePager) counters(s *IOStats) []pagerCounter {
	return []pagerCounter{
		{&fp.diskReads, &s.DiskReads}, {&fp.diskWrites, &s.DiskWrites},
		{&fp.walAppends, &s.WALAppends}, {&fp.walDeltas, &s.WALDeltas},
		{&fp.walSyncs, &s.WALSyncs}, {&fp.walBytes, &s.WALBytes},
		{&fp.checkpointCount, &s.Checkpoints}, {&fp.checkpointPages, &s.CheckpointPages},
		{&fp.manifestBytes, &s.ManifestBytes}, {&fp.manifestSegments, &s.ManifestSegments},
		{&fp.walRotations, &s.WALRotations}, {&fp.walCompacted, &s.WALCompacted},
		{&fp.scrubRuns, &s.ScrubRuns}, {&fp.scrubPages, &s.ScrubPages},
		{&fp.scrubRepaired, &s.ScrubRepaired}, {&fp.scrubBad, &s.ScrubBad},
		{&fp.vacuumRuns, &s.Vacuums}, {&fp.vacuumPagesMoved, &s.VacuumPagesMoved},
		{&fp.vacuumBytesFreed, &s.VacuumBytesFreed}, {&fp.recoveries, &s.Recoveries},
		{&fp.backupRuns, &s.Backups}, {&fp.backupPagesStreamed, &s.BackupPages},
		{&fp.backupByteCount, &s.BackupBytes},
		{&fp.walArchived, &s.WALArchived}, {&fp.archiveByteCount, &s.ArchiveBytes},
	}
}

// fillIOStats adds the pager's real-I/O counters and current gauges to s.
func (fp *FilePager) fillIOStats(s *IOStats) {
	fp.mu.RLock()
	s.FreePages = int64(len(fp.freeList) + len(fp.pendingFree))
	s.ShadowPages = int64(len(fp.shadow))
	s.DirtyPages = int64(len(fp.ckptDirty))
	s.QuarantinedPages = int64(len(fp.quarantined))
	s.WALSegments = int64(len(fp.sealed) + 1)
	s.WALDiskBytes = fp.walDiskBytes()
	fp.mu.RUnlock()
	s.DurableGen = int64(fp.gen.Load())
	for _, c := range fp.counters(s) {
		*c.field = c.ctr.Load()
	}
}

func (fp *FilePager) resetIOCounters() {
	for _, c := range fp.counters(&IOStats{}) {
		c.ctr.Store(0)
	}
}

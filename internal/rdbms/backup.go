package rdbms

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// This file is the disaster-recovery layer over the durable pager: online
// hot backup (DB.Backup streams a consistent, generation-stamped snapshot
// while readers and writers keep running), WAL archiving (checkpoint
// compaction preserves sealed segments in Options.ArchiveDir instead of
// deleting history), and point-in-time restore (Restore rebuilds a store
// from a base backup plus archived segments up to an exact generation).
// Where scrub/vacuum/recover heal a store that still exists, backup/restore
// survive losing the data file itself.
//
// Backup stream format:
//
//	header (36 bytes): magic "DSBKUP01", u32 format version, u32 page count,
//	  u64 durable generation, u32 meta head, u32 meta len, u32 CRC-32C
//	page records: 0x01, u32 page id, 8 KiB image, u32 CRC-32C (same layout
//	  as a WAL page record)
//	trailer: 0x02, u32 live pages, u32 free pages, free page ids (u32 each),
//	  u64 durable generation, then u32 CRC-32C over every preceding byte of
//	  the stream (the manifest checksum: a truncated stream is detected even
//	  when it tears between records)
//
// Archive files are verbatim committed prefixes of WAL segments, named
// NNNNNNNN.wal in replay order; restore stitches them onto the base backup
// by generation continuity, so re-archived duplicates (a crash between
// archiving and segment deletion) are skipped, and a missing segment is an
// ErrArchiveGap, never a silent rollback.

var (
	// ErrStopped reports a maintenance operation (Scrub, Backup) that was
	// interrupted by its Stop channel before completing. The engine-side
	// scheduler and dsserver treat it as a clean shutdown, not a failure.
	ErrStopped = errors.New("rdbms: operation stopped")
	// ErrBackupFormat reports a backup file that is not one: wrong magic or
	// an unsupported format version.
	ErrBackupFormat = errors.New("rdbms: not a DataSpread backup")
	// ErrBackupCorrupt reports a backup or archive artifact that is damaged:
	// truncated, bit-flipped, or failing verification after restore. The
	// restore target is left untouched.
	ErrBackupCorrupt = errors.New("rdbms: backup corrupt")
	// ErrArchiveGap reports an archive that cannot reach the requested
	// generation: a missing segment breaks the generation chain, or the
	// target predates the base backup.
	ErrArchiveGap = errors.New("rdbms: WAL archive gap")
)

const (
	backupMagic      = "DSBKUP01"
	backupVersion    = 1
	backupHeaderSize = 36

	backupPageRec    byte = 1
	backupTrailerRec byte = 2
)

// BackupResult reports one completed backup.
type BackupResult struct {
	Pages     int    // live page slots streamed
	FreePages int    // free slots skipped (recorded in the trailer)
	Bytes     int64  // bytes written to the stream
	Gen       uint64 // durable generation the backup pinned
}

// Backup streams a consistent snapshot of the database to w while readers
// and writers keep running. It first checkpoints, pinning the data file at
// one durable generation — WAL commits never touch page slots, so only a
// later checkpoint can change them, and checkpointLocked preserves the
// pre-image of any slot it overwrites ahead of the walker. The walk then
// copies slots in paced batches under the shared pager lock, so foreground
// traffic is served between batches. One backup may run at a time; Vacuum
// is refused while one is active (truncation would invalidate slots the
// walker has not reached). Fails on a poisoned or in-memory database.
func (db *DB) Backup(w io.Writer, opts PassOptions) (BackupResult, error) {
	fp := db.filePager()
	if fp == nil {
		return BackupResult{}, errors.New("rdbms: backup requires a file-backed database")
	}
	if err := fp.poisonedErr(); err != nil {
		return BackupResult{}, err
	}
	db.mu.Lock()
	// Checkpoint only when there is anything to land: on a quiescent
	// database the slots already hold exactly the current durable
	// generation, and skipping the commit keeps repeated idle backups on
	// one generation (the scheduler dedups by it).
	fp.mu.RLock()
	clean := len(fp.walDirty) == 0 && len(fp.ckptDirty) == 0 && len(fp.pendingFree) == 0
	fp.mu.RUnlock()
	if clean {
		clean = len(db.metaDirty) == 0 && len(db.metaDel) == 0 && !db.pool.hasDirty()
	}
	if !clean {
		if err := db.commitCheckpointLocked(fp); err != nil {
			db.mu.Unlock()
			return BackupResult{}, err
		}
	}
	fp.mu.Lock()
	if fp.backupActive {
		fp.mu.Unlock()
		db.mu.Unlock()
		return BackupResult{}, errors.New("rdbms: a backup is already in progress")
	}
	fp.backupActive = true
	fp.backupPages = fp.pages
	// Only freeList pages are skipped: that is the free set the durable
	// manifest records, so the restored store's verification skips exactly
	// these slots. pendingFree pages (freed since the last manifest
	// staging) are streamed like live pages — the manifest may still
	// reference them, and their slots hold their last checkpointed image.
	fp.backupFree = make(map[PageID]bool, len(fp.freeList))
	for _, id := range fp.freeList {
		fp.backupFree[id] = true
	}
	fp.backupPre = make(map[PageID]*page)
	fp.backupCursor.Store(0)
	metaHead, metaLen, total, gen := fp.metaHead, fp.metaLen, fp.pages, fp.gen.Load()
	fp.mu.Unlock()
	db.mu.Unlock()
	defer fp.endBackup()
	res, err := fp.streamBackup(w, opts, total, gen, metaHead, metaLen)
	if err != nil {
		return res, err
	}
	fp.backupRuns.Add(1)
	fp.backupPagesStreamed.Add(int64(res.Pages))
	fp.backupByteCount.Add(res.Bytes)
	return res, nil
}

// endBackup tears the walk state down whether the backup completed or not.
func (fp *FilePager) endBackup() {
	fp.mu.Lock()
	fp.backupActive, fp.backupFree, fp.backupPre, fp.backupErr = false, nil, nil, nil
	fp.mu.Unlock()
}

// preserveBackupImageLocked stashes the current on-disk image of a slot the
// checkpoint is about to overwrite while a hot backup's walker has not yet
// streamed it, so the backup still lands on the generation it pinned. A
// stale (low) cursor read merely preserves an extra image — the walker
// prefers pre-images, and they hold exactly what the slot held at snapshot
// time. fp.mu must be held exclusively.
func (fp *FilePager) preserveBackupImageLocked(id PageID) {
	if !fp.backupActive || fp.backupErr != nil {
		return
	}
	if int(id) >= fp.backupPages || int64(id) < fp.backupCursor.Load() {
		return
	}
	if fp.backupFree[id] {
		return // free at snapshot time; the walker skips it
	}
	if _, ok := fp.backupPre[id]; ok {
		return
	}
	p, err := fp.readPageFromFile(id)
	if err != nil {
		// The snapshot image is about to be lost and was never readable;
		// the backup cannot complete consistently.
		fp.backupErr = fmt.Errorf("rdbms: backup pre-image of page %d: %w", id, err)
		return
	}
	fp.backupPre[id] = p
}

// streamBackup writes the header, then walks the pinned slots: page records
// are copied under the shared lock and written outside it, pinned free
// slots are skipped and listed in the trailer, which ends with the stream
// checksum.
func (fp *FilePager) streamBackup(w io.Writer, opts PassOptions, total int, gen uint64, metaHead PageID, metaLen uint32) (BackupResult, error) {
	res := BackupResult{Gen: gen}
	cw := &crcWriter{w: w}
	var hdr [backupHeaderSize]byte
	copy(hdr[0:8], backupMagic)
	binary.LittleEndian.PutUint32(hdr[8:], backupVersion)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(total))
	binary.LittleEndian.PutUint64(hdr[16:], gen)
	binary.LittleEndian.PutUint32(hdr[24:], uint32(metaHead))
	binary.LittleEndian.PutUint32(hdr[28:], metaLen)
	binary.LittleEndian.PutUint32(hdr[32:], crc32.Checksum(hdr[0:32], castagnoli))
	if _, err := cw.Write(hdr[:]); err != nil {
		return res, err
	}
	var freeIDs []PageID
	var buf []byte
	err := fp.walkSlots(opts, total, func(lo, hi int) error {
		if fp.backupErr != nil {
			return fp.backupErr
		}
		buf = buf[:0]
		for id := PageID(lo); int(id) < hi; id++ {
			if fp.backupFree[id] {
				freeIDs = append(freeIDs, id)
				continue
			}
			p := fp.backupPre[id]
			if p == nil {
				var err error
				if p, err = fp.readPageFromFile(id); err != nil {
					return fmt.Errorf("rdbms: backup read: %w", err)
				}
			}
			off := len(buf)
			buf = append(buf, backupPageRec)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
			buf = append(buf, p.buf[:]...)
			buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[off:], castagnoli))
			res.Pages++
		}
		// Advance the cursor while still holding the lock: the images are
		// captured, so checkpoints may now overwrite these slots without
		// pre-imaging them.
		fp.backupCursor.Store(int64(hi))
		return nil
	}, func(int, int) error {
		_, err := cw.Write(buf)
		return err
	})
	if err != nil {
		return res, err
	}
	tr := make([]byte, 0, 1+4+4+len(freeIDs)*4+8)
	tr = append(tr, backupTrailerRec)
	tr = binary.LittleEndian.AppendUint32(tr, uint32(res.Pages))
	tr = binary.LittleEndian.AppendUint32(tr, uint32(len(freeIDs)))
	for _, id := range freeIDs {
		tr = binary.LittleEndian.AppendUint32(tr, uint32(id))
	}
	tr = binary.LittleEndian.AppendUint64(tr, gen)
	if _, err := cw.Write(tr); err != nil {
		return res, err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], cw.crc)
	if _, err := cw.Write(sum[:]); err != nil {
		return res, err
	}
	res.FreePages = len(freeIDs)
	res.Bytes = cw.n
	return res, nil
}

// crcWriter tracks the running CRC-32C and byte count of a backup stream.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, castagnoli, p[:n])
	cw.n += int64(n)
	return n, err
}

// crcReader mirrors crcWriter on the restore side.
type crcReader struct {
	r   io.Reader
	crc uint32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc = crc32.Update(cr.crc, castagnoli, p[:n])
	return n, err
}

// ---- WAL archiving ----

// archivePath names one archive file. Archive sequence numbers are global
// to the directory and strictly increasing; their order is replay order.
func archivePath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("%08d.wal", seq))
}

// listArchiveSeqs returns the archive file sequence numbers in dir, sorted
// ascending. A missing directory is an empty archive.
func listArchiveSeqs(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []int
	for _, e := range ents {
		name := e.Name()
		if len(name) != 12 || !strings.HasSuffix(name, ".wal") {
			continue
		}
		n, err := strconv.Atoi(name[:8])
		if err != nil || n <= 0 {
			continue
		}
		out = append(out, n)
	}
	sort.Ints(out)
	return out, nil
}

func nextArchiveSeq(dir string) (int, error) {
	seqs, err := listArchiveSeqs(dir)
	if err != nil {
		return 0, err
	}
	if len(seqs) == 0 {
		return 1, nil
	}
	return seqs[len(seqs)-1] + 1, nil
}

// writeArchiveFile lands one archive file durably: temp name, fsync,
// rename — a crash never leaves a torn archive under a final name.
func writeArchiveFile(dir string, seq int, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(dir, fmt.Sprintf(".tmp-%08d.wal", seq))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, archivePath(dir, seq))
}

// archiveSegmentsLocked copies the committed prefix of every live WAL
// segment into the archive directory (oldest first, so archive file order
// is replay order) before compaction deletes them. A crash between
// archiving and segment deletion re-archives the same batches on the next
// compaction; restore tolerates the duplicates because replay skips
// generations at or below the one already applied. An archive failure
// fails the reset — and thereby poisons the pager — because deleting an
// unarchived segment would silently break the archive's generation chain.
// fp.mu must be held exclusively.
func (fp *FilePager) archiveSegmentsLocked() error {
	extents := fp.recoveredExtents
	if extents == nil {
		extents = make(map[int]int64, len(fp.sealed)+1)
		for _, s := range fp.sealed {
			extents[s.seq] = s.size
		}
		extents[fp.walSeq] = fp.walSize
	}
	seqs := make([]int, 0, len(extents))
	for seq := range extents {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	next, err := nextArchiveSeq(fp.opts.archiveDir)
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		n := extents[seq]
		if n <= int64(len(walMagic)) {
			continue // no committed records to preserve
		}
		data, err := os.ReadFile(fp.walSegPath(seq))
		if err != nil {
			return err
		}
		if int64(len(data)) < n {
			return fmt.Errorf("segment %d shorter than its committed extent (%d < %d)", seq, len(data), n)
		}
		if err := writeArchiveFile(fp.opts.archiveDir, next, data[:n]); err != nil {
			return err
		}
		next++
		fp.walArchived.Add(1)
		fp.archiveByteCount.Add(n)
	}
	return nil
}

// ---- Restore ----

// RestoreOptions tunes a point-in-time restore.
type RestoreOptions struct {
	// ArchiveDir, when non-empty, replays archived WAL segments on top of
	// the base backup (point-in-time recovery). Empty restores the base
	// backup alone.
	ArchiveDir string
	// TargetGen is the durable generation to restore to. 0 restores as far
	// as the archive reaches (or the base backup's generation without an
	// archive). A target below the base backup's generation, or beyond what
	// the archive can reach, fails with ErrArchiveGap.
	TargetGen uint64
	// Stop aborts the restore with ErrStopped when closed.
	Stop <-chan struct{}
}

// Restore rebuilds a database at destPath from the backup at backupPath,
// optionally replaying archived WAL segments up to RestoreOptions.TargetGen.
// The rebuild happens in a temp path that is renamed over destPath only
// after every page checksum, the stream's manifest checksum, and a full
// open-and-verify of the restored store have passed — a torn, truncated or
// bit-flipped backup fails with an errors.Is-testable sentinel and leaves
// destPath untouched. destPath must not already exist.
func Restore(backupPath, destPath string, opts RestoreOptions) error {
	if _, err := os.Stat(destPath); err == nil {
		return fmt.Errorf("rdbms: restore target %s already exists", destPath)
	} else if !os.IsNotExist(err) {
		return err
	}
	tmp := destPath + ".restore-tmp"
	if err := restoreInto(tmp, backupPath, opts); err != nil {
		os.Remove(tmp)
		os.Remove(tmp + ".wal")
		return err
	}
	return os.Rename(tmp, destPath)
}

func restoreInto(tmp, backupPath string, opts RestoreOptions) error {
	src, err := os.Open(backupPath)
	if err != nil {
		return err
	}
	defer src.Close()
	cr := &crcReader{r: bufio.NewReaderSize(src, 1<<20)}
	var hdr [backupHeaderSize]byte
	if _, err := io.ReadFull(cr, hdr[:]); err != nil {
		return fmt.Errorf("rdbms: %s: short backup header: %w", backupPath, ErrBackupFormat)
	}
	if string(hdr[0:8]) != backupMagic {
		return fmt.Errorf("rdbms: %s: bad backup magic: %w", backupPath, ErrBackupFormat)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != backupVersion {
		return fmt.Errorf("rdbms: %s: unsupported backup format version %d: %w", backupPath, v, ErrBackupFormat)
	}
	if crc32.Checksum(hdr[0:32], castagnoli) != binary.LittleEndian.Uint32(hdr[32:]) {
		return fmt.Errorf("rdbms: %s: backup header checksum mismatch: %w", backupPath, ErrBackupCorrupt)
	}
	pages := int(binary.LittleEndian.Uint32(hdr[12:]))
	gen := binary.LittleEndian.Uint64(hdr[16:24])
	metaHead := PageID(binary.LittleEndian.Uint32(hdr[24:]))
	metaLen := binary.LittleEndian.Uint32(hdr[28:])
	if opts.TargetGen > 0 && opts.TargetGen < gen {
		return fmt.Errorf("rdbms: target generation %d predates the base backup (generation %d): %w",
			opts.TargetGen, gen, ErrArchiveGap)
	}
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()

	seen := make([]bool, pages)
	live := 0
	rec := make([]byte, walPageRecSize)
	var one [1]byte
records:
	for {
		if err := stopErr(opts.Stop); err != nil {
			return err
		}
		if _, err := io.ReadFull(cr, one[:]); err != nil {
			return fmt.Errorf("rdbms: %s: truncated backup (no trailer): %w", backupPath, ErrBackupCorrupt)
		}
		switch one[0] {
		case backupPageRec:
			rec[0] = backupPageRec
			if _, err := io.ReadFull(cr, rec[1:]); err != nil {
				return fmt.Errorf("rdbms: %s: truncated page record: %w", backupPath, ErrBackupCorrupt)
			}
			if crc32.Checksum(rec[:5+PageSize], castagnoli) != binary.LittleEndian.Uint32(rec[5+PageSize:]) {
				return fmt.Errorf("rdbms: %s: page record checksum mismatch: %w", backupPath, ErrBackupCorrupt)
			}
			id := PageID(binary.LittleEndian.Uint32(rec[1:5]))
			if int(id) >= pages {
				return fmt.Errorf("rdbms: %s: page %d out of range (%d pages): %w", backupPath, id, pages, ErrBackupCorrupt)
			}
			if seen[id] {
				return fmt.Errorf("rdbms: %s: duplicate page %d: %w", backupPath, id, ErrBackupCorrupt)
			}
			seen[id] = true
			live++
			if err := writeSlot(f, id, rec[5:5+PageSize]); err != nil {
				return err
			}
		case backupTrailerRec:
			break records
		default:
			return fmt.Errorf("rdbms: %s: unknown record type %d: %w", backupPath, one[0], ErrBackupCorrupt)
		}
	}
	var fixed [8]byte
	if _, err := io.ReadFull(cr, fixed[:]); err != nil {
		return fmt.Errorf("rdbms: %s: truncated trailer: %w", backupPath, ErrBackupCorrupt)
	}
	trLive := int(binary.LittleEndian.Uint32(fixed[0:4]))
	trFree := int(binary.LittleEndian.Uint32(fixed[4:8]))
	freeSet := make(map[PageID]bool, trFree)
	if trFree > 0 {
		ids := make([]byte, 4*trFree)
		if _, err := io.ReadFull(cr, ids); err != nil {
			return fmt.Errorf("rdbms: %s: truncated free-page manifest: %w", backupPath, ErrBackupCorrupt)
		}
		for i := 0; i < trFree; i++ {
			freeSet[PageID(binary.LittleEndian.Uint32(ids[4*i:]))] = true
		}
	}
	var genb [8]byte
	if _, err := io.ReadFull(cr, genb[:]); err != nil {
		return fmt.Errorf("rdbms: %s: truncated trailer: %w", backupPath, ErrBackupCorrupt)
	}
	wantCRC := cr.crc
	var sum [4]byte
	if _, err := io.ReadFull(cr, sum[:]); err != nil {
		return fmt.Errorf("rdbms: %s: truncated manifest checksum: %w", backupPath, ErrBackupCorrupt)
	}
	if binary.LittleEndian.Uint32(sum[:]) != wantCRC {
		return fmt.Errorf("rdbms: %s: manifest checksum mismatch: %w", backupPath, ErrBackupCorrupt)
	}
	if n, _ := cr.Read(one[:]); n != 0 {
		return fmt.Errorf("rdbms: %s: trailing data after manifest checksum: %w", backupPath, ErrBackupCorrupt)
	}
	if trGen := binary.LittleEndian.Uint64(genb[:]); trGen != gen {
		return fmt.Errorf("rdbms: %s: trailer generation %d != header generation %d: %w", backupPath, trGen, gen, ErrBackupCorrupt)
	}
	if trLive != live {
		return fmt.Errorf("rdbms: %s: trailer lists %d live pages, stream held %d: %w", backupPath, trLive, live, ErrBackupCorrupt)
	}
	for id := 0; id < pages; id++ {
		pid := PageID(id)
		if seen[id] && freeSet[pid] {
			return fmt.Errorf("rdbms: %s: page %d both streamed and listed free: %w", backupPath, id, ErrBackupCorrupt)
		}
		if !seen[id] && !freeSet[pid] {
			return fmt.Errorf("rdbms: %s: page %d neither streamed nor listed free: %w", backupPath, id, ErrBackupCorrupt)
		}
	}

	restoredGen := gen
	if opts.ArchiveDir != "" {
		restoredGen, pages, metaHead, metaLen, err = replayArchive(f, opts, gen, pages, metaHead, metaLen)
		if err != nil {
			return err
		}
	} else if opts.TargetGen > gen {
		return fmt.Errorf("rdbms: target generation %d beyond the base backup (generation %d) with no archive: %w",
			opts.TargetGen, gen, ErrArchiveGap)
	}
	if err := writeStoreHeader(f, pages, metaHead, metaLen, restoredGen); err != nil {
		return err
	}
	if err := f.Truncate(fileHeaderSize + int64(pages)*pageSlotSize); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	// Full verification gates the rename: the restored store must open (its
	// catalog manifest must parse) and every live page slot must pass its
	// checksum before the restore is declared clean.
	vdb, err := OpenFile(tmp, Options{})
	if err != nil {
		return fmt.Errorf("rdbms: restored database failed to open: %w: %w", ErrBackupCorrupt, err)
	}
	verr := vdb.VerifyChecksums()
	// Drop the handles without checkpointing: a checkpoint would commit a
	// fresh manifest batch and advance the restored file past the exact
	// generation the restore targeted.
	cerr := vdb.SimulateCrash()
	os.Remove(tmp + ".wal")
	if verr != nil {
		return fmt.Errorf("rdbms: restored database failed page verification: %w: %w", ErrBackupCorrupt, verr)
	}
	return cerr
}

// replayArchive applies archived WAL batches to the restored file in
// generation order, starting just past baseGen and stopping at TargetGen
// (0: as far as the archive reaches). Batches at or below the applied
// generation are skipped — re-archived duplicates are harmless — and any
// jump in the generation chain is an ErrArchiveGap. Returns the final
// generation and the header fields of the last applied commit.
func replayArchive(f *os.File, opts RestoreOptions, baseGen uint64, pages int, metaHead PageID, metaLen uint32) (uint64, int, PageID, uint32, error) {
	fail := func(err error) (uint64, int, PageID, uint32, error) {
		return 0, 0, 0, 0, err
	}
	seqs, err := listArchiveSeqs(opts.ArchiveDir)
	if err != nil {
		return fail(err)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			return fail(fmt.Errorf("rdbms: archive missing segments between %08d and %08d: %w",
				seqs[i-1], seqs[i], ErrArchiveGap))
		}
	}
	applied := baseGen
	target := opts.TargetGen
	redo := newWALRedo(f)
	for _, seq := range seqs {
		if target > 0 && applied >= target {
			break
		}
		if err := stopErr(opts.Stop); err != nil {
			return fail(err)
		}
		name := archivePath(opts.ArchiveDir, seq)
		data, err := os.ReadFile(name)
		if err != nil {
			return fail(err)
		}
		// Archive files are committed prefixes: unlike a live log they have
		// no tail a crash could tear, so any way the scan stops short is
		// damage.
		sc := scanWAL(data)
		for sc.next() {
			if !sc.commit {
				redo.stage(sc)
				continue
			}
			if sc.gen <= applied {
				redo.drop()
				continue
			}
			if sc.gen != applied+1 {
				return fail(fmt.Errorf("rdbms: archive jumps from generation %d to %d: %w",
					applied, sc.gen, ErrArchiveGap))
			}
			if err := redo.commit(); err != nil {
				return fail(fmt.Errorf("rdbms: %s: %w: %w", name, ErrBackupCorrupt, err))
			}
			applied = sc.gen
			pages, metaHead, metaLen = int(sc.pages), PageID(sc.metaHead), sc.metaLen
			if target > 0 && applied >= target {
				break // later records in this file are past the target
			}
		}
		if sc.err != nil {
			return fail(fmt.Errorf("rdbms: %s: %w: %w", name, ErrBackupCorrupt, sc.err))
		}
	}
	if target > 0 && applied < target {
		return fail(fmt.Errorf("rdbms: generation %d not reachable from the archive (replay stopped at %d): %w",
			target, applied, ErrArchiveGap))
	}
	if err := redo.flush(); err != nil {
		return fail(err)
	}
	return applied, pages, metaHead, metaLen, nil
}

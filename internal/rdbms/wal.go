package rdbms

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"sort"
	"strconv"
)

// This file is the write-ahead-log half of FilePager: segments, the one
// commit path (leader/follower: see commitWAL), rotation, compaction, crash
// recovery and the one record decoder.
//
// WAL layout (<path>.wal, rotated into <path>.wal.0001, .0002, ...):
//
//	per segment: 8-byte magic, then records:
//	  image record:  0x01, u32 page id, 8 KiB image, u32 CRC-32C
//	  delta record:  0x04, u32 page id, u16 payload length, payload, u32 CRC-32C
//	                 payload: runs of u16 offset, u16 length, that many bytes
//	  commit record: 0x03, u32 page count, u32 meta head, u32 meta len,
//	                 u64 durable generation, u32 CRC-32C
//
// A batch is one page record for every page staged since the last commit,
// then the commit record. Which kind of page record is the commit path's one
// rule: a page's first record after a checkpoint is its image, so every page
// in ckptDirty can be rebuilt from the log without reading its data-file slot
// (which an interrupted checkpoint may have torn); every later record is a
// delta — the byte ranges in which the staged image differs from the image
// the log already holds — unless the image is no larger. A delta sets bytes
// to values, so replaying any committed suffix of the log over a checkpointed
// slot reconverges to the checkpointed image, which resetWAL relies on.

const (
	walMagic = "DSWAL001"

	walPageRec byte = 1
	// walRemovedCommitRec is the commit record without a generation stamp
	// that earlier builds wrote. It is recognized only to be refused: an
	// intact one fails the scan instead of passing for a torn tail.
	walRemovedCommitRec byte = 2
	// walCommitRec2 is the generation-stamped commit record.
	walCommitRec2 byte = 3
	// walDeltaRec is the page-delta record.
	walDeltaRec byte = 4

	walPageRecSize = 1 + 4 + PageSize + 4
	// walDeltaHdrSize is what precedes a delta record's payload (type, page
	// id, payload length) and walRunHdrSize what precedes a run's bytes
	// (offset, length).
	walDeltaHdrSize         = 1 + 4 + 2
	walRunHdrSize           = 2 + 2
	walRemovedCommitRecSize = 1 + 12 + 4
	walCommitRec2Size       = 1 + 12 + 8 + 4
)

// walSegment records one sealed (rotated-out) WAL segment.
type walSegment struct {
	seq  int
	size int64
}

// commitWAL makes every page dirtied since the last commit durable: one
// record per page plus a commit record are appended to the WAL and fsynced
// on the caller's thread, then an auto-checkpoint runs when the
// dirty-since-checkpoint set or the live-segment count has outgrown its
// bound. The data file is otherwise untouched (write-back happens at
// checkpoint). epoch is the pager epoch the caller staged its batch in.
//
// The commit holds the gate shared and fp.mu exclusively for its whole
// length, fsync included. Staging holds the gate exclusively, so a commit
// logs either all of a concurrent staging or none of it, and concurrent
// committers form a leader/follower queue with no timer: a committer whose
// staged pages a preceding commit already logged finds nothing left to log
// and returns once that commit's fsync is done — it shared that fsync.
//
// A batch staged before a reopen (Recover) was discarded by it; committing
// then would ack a batch that is gone, so the commit fails instead.
func (fp *FilePager) commitWAL(epoch uint64) error {
	fp.gate.RLock()
	defer fp.gate.RUnlock()
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if fp.epoch != epoch {
		return errors.New("rdbms: commit lost: the database was recovered after the batch was staged")
	}
	if err := fp.commitWALLocked(); err != nil {
		return err
	}
	if fp.opts.AutoCheckpointPages > 0 && len(fp.ckptDirty) >= fp.opts.AutoCheckpointPages {
		return fp.checkpointLocked()
	}
	if fp.opts.WALMaxSegments > 0 && len(fp.sealed)+1 > fp.opts.WALMaxSegments {
		// Too many live segments: checkpoint to compact the log. The
		// caller's batch is already durable; a checkpoint failure here
		// poisons the pager but is reported to this (conservative) caller.
		return fp.checkpointLocked()
	}
	return nil
}

func (fp *FilePager) commitWALLocked() error {
	if err := fp.poisonedErr(); err != nil {
		return err
	}
	if len(fp.walDirty) == 0 {
		return nil
	}
	if fp.walSize == 0 {
		if _, err := fp.wal.WriteAt([]byte(walMagic), 0); err != nil {
			return fp.poison(fmt.Errorf("rdbms: WAL magic write: %w", err))
		}
		fp.walSize = int64(len(walMagic))
	}
	ids := make([]PageID, 0, len(fp.walDirty))
	for id := range fp.walDirty {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	buf := make([]byte, 0, (len(ids)-len(fp.walBase))*walPageRecSize+len(fp.walBase)*64+walCommitRec2Size)
	for _, id := range ids {
		p := fp.shadow[id]
		if p == nil {
			return fmt.Errorf("rdbms: WAL-dirty page %d missing from shadow", id)
		}
		fp.walAppends.Add(1)
		// A page with a base is already in the log since the last checkpoint:
		// it logs what changed, unless that is no smaller than the image.
		if base := fp.walBase[id]; base != nil {
			if rec, ok := appendDeltaRec(buf, id, &base.buf, &p.buf); ok {
				buf = rec
				fp.walDeltas.Add(1)
				continue
			}
		}
		start := len(buf)
		buf = append(buf, walPageRec)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
		buf = append(buf, p.buf[:]...)
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], castagnoli))
	}
	gen := fp.gen.Load() + 1
	var c [walCommitRec2Size]byte
	c[0] = walCommitRec2
	binary.LittleEndian.PutUint32(c[1:], uint32(fp.pages))
	binary.LittleEndian.PutUint32(c[5:], uint32(fp.metaHead))
	binary.LittleEndian.PutUint32(c[9:], fp.metaLen)
	binary.LittleEndian.PutUint64(c[13:], gen)
	binary.LittleEndian.PutUint32(c[21:], crc32.Checksum(c[:21], castagnoli))
	buf = append(buf, c[:]...)
	if _, err := fp.wal.WriteAt(buf, fp.walSize); err != nil {
		// The append may have landed partially (a torn record); walSize is
		// not advanced, but the handle's durable state is now unknown, so
		// the pager poisons rather than re-append over the tear. Recovery
		// discards the torn tail on reopen.
		return fp.poison(fmt.Errorf("rdbms: WAL append: %w", err))
	}
	fp.walSize += int64(len(buf))
	fp.walBytes.Add(int64(len(buf)))
	if err := fp.wal.Sync(); err != nil {
		// fsyncgate: a failed WAL fsync may have dropped the very pages it
		// failed on from the kernel's dirty set, so retrying the fsync and
		// trusting a later success would be wrong. Poison instead.
		return fp.poison(fmt.Errorf("rdbms: WAL fsync: %w", err))
	}
	fp.walSyncs.Add(1)
	// The batch is durable: its generation stamp is now the database's.
	fp.gen.Store(gen)
	fp.walDirty = make(map[PageID]bool)
	fp.walBase = make(map[PageID]*page)
	if fp.opts.WALSegmentBytes > 0 && fp.walSize >= fp.opts.WALSegmentBytes {
		if err := fp.rotateWALLocked(); err != nil {
			// The batch just committed is durable; only the rotation
			// failed. Poison quietly so later commits refuse, but report
			// success for this one.
			fp.poison(fmt.Errorf("rdbms: WAL rotation: %w", err))
		}
	}
	return nil
}

// deltaMergeGap is how many equal bytes between two differing ranges are
// cheaper carried inside one run than paid for as a second run header.
const deltaMergeGap = walRunHdrSize

// appendDeltaRec appends the delta record that turns base into cur to buf. It
// reports false, with buf as it was, when the record would not be smaller
// than cur's image record. Pages are compared a word at a time: a word that
// differs contributes the span from its first to its last differing byte.
func appendDeltaRec(buf []byte, id PageID, base, cur *[PageSize]byte) ([]byte, bool) {
	start := len(buf)
	buf = append(buf, walDeltaRec)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	buf = append(buf, 0, 0) // payload length, set below
	lo, hi := 0, 0          // the open run is cur[lo:hi]; none is open while hi is 0
	closeRun := func() bool {
		if len(buf)-start+walRunHdrSize+hi-lo+4 >= walPageRecSize {
			return false
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(lo))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(hi-lo))
		buf = append(buf, cur[lo:hi]...)
		return true
	}
	for w := 0; w < PageSize; w += 8 {
		x := binary.LittleEndian.Uint64(base[w:]) ^ binary.LittleEndian.Uint64(cur[w:])
		if x == 0 {
			continue
		}
		first := w + bits.TrailingZeros64(x)/8
		if hi > 0 && first-hi > deltaMergeGap {
			if !closeRun() {
				return buf[:start], false
			}
			hi = 0
		}
		if hi == 0 {
			lo = first
		}
		hi = w + 8 - bits.LeadingZeros64(x)/8
	}
	if hi > 0 && !closeRun() {
		return buf[:start], false
	}
	binary.LittleEndian.PutUint16(buf[start+5:], uint16(len(buf)-start-walDeltaHdrSize))
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], castagnoli)), true
}

// applyDelta patches img with the runs of a delta payload the scanner has
// validated.
func applyDelta(img, runs []byte) {
	for len(runs) > 0 {
		off := int(binary.LittleEndian.Uint16(runs))
		n := int(binary.LittleEndian.Uint16(runs[2:]))
		copy(img[off:off+n], runs[walRunHdrSize:])
		runs = runs[walRunHdrSize+n:]
	}
}

// rotateWALLocked seals the active WAL segment and starts appending to the
// next numbered one. Called only between commits, so no batch ever
// straddles a segment boundary. fp.mu must be held.
func (fp *FilePager) rotateWALLocked() error {
	if err := fp.wal.Close(); err != nil {
		return err
	}
	fp.sealed = append(fp.sealed, walSegment{seq: fp.walSeq, size: fp.walSize})
	fp.walSeq++
	raw, err := fp.fs.openLog(fp.walSegPath(fp.walSeq), true)
	if err != nil {
		return err
	}
	fp.wal = wrapFaultFile(raw, FaultFileWAL, fp.opts.Faults)
	fp.walSize = 0
	fp.walRotations.Add(1)
	return nil
}

// walSegPath names a WAL segment file: segment 0 is the plain <path>.wal
// (a log that never rotated has only this file), later segments are
// numbered.
func (fp *FilePager) walSegPath(seq int) string {
	if seq == 0 {
		return fp.path + ".wal"
	}
	return fmt.Sprintf("%s.wal.%04d", fp.path, seq)
}

// listWALSegments finds the numbered segment files, sorted ascending.
// Segment 0 (<path>.wal) is not listed; it always exists once the pager is
// open. A name is ours only when walSegPath gives it: <path>.wal.1,
// .wal.+1 and .wal.00001 parse as segment 1 too, but are some other file
// (an editor's backup, a stray copy), and recovery reads .wal.0001.
func (fp *FilePager) listWALSegments() ([]int, error) {
	prefix := fp.path + ".wal."
	names, err := fp.fs.list(prefix)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, name := range names {
		n, err := strconv.Atoi(name[len(prefix):])
		if err != nil || n <= 0 || name != fp.walSegPath(n) {
			continue
		}
		out = append(out, n)
	}
	sort.Ints(out)
	return out, nil
}

// walDiskBytes sums the live WAL footprint: sealed segments plus the
// active append offset. fp.mu must be held (shared suffices).
func (fp *FilePager) walDiskBytes() int64 {
	n := fp.walSize
	for _, s := range fp.sealed {
		n += s.size
	}
	return n
}

// resetWAL compacts the log after a checkpoint: the active handle moves
// back to segment 0, which is truncated, and every now-redundant numbered
// segment file is deleted. The order matters for crash safety: segment 0 —
// the oldest — is emptied and synced before any deletions, and deletions
// run oldest-first, so a crash at any point leaves a contiguous *suffix* of
// segments on disk. Replaying a suffix of committed batches over a
// checkpointed data file reconverges to the checkpoint state (images and
// deltas set bytes to values the checkpointed slots already end on, and
// every page with a record in the log has such a slot — see ckptDirty);
// replaying a prefix would regress it.
func (fp *FilePager) resetWAL() error {
	if fp.opts.ArchiveDir != "" {
		if err := fp.archiveSegmentsLocked(); err != nil {
			return fmt.Errorf("archive: %w", err)
		}
	}
	fp.recoveredExtents = nil
	if fp.walSeq != 0 {
		if err := fp.wal.Close(); err != nil {
			return err
		}
		raw, err := fp.fs.openLog(fp.walSegPath(0), false)
		if err != nil {
			return err
		}
		fp.wal = wrapFaultFile(raw, FaultFileWAL, fp.opts.Faults)
	}
	if err := fp.wal.Truncate(0); err != nil {
		return err
	}
	if err := fp.wal.Sync(); err != nil {
		return err
	}
	removed := 0
	for _, s := range fp.sealed {
		if s.seq == 0 {
			continue
		}
		// A failed deletion must not be ignored: a stale old segment
		// surviving next to a fresh segment 0 would replay stale images
		// *after* newer ones on recovery.
		if err := fp.fs.remove(fp.walSegPath(s.seq)); err != nil {
			return err
		}
		removed++
	}
	if fp.walSeq != 0 {
		if err := fp.fs.remove(fp.walSegPath(fp.walSeq)); err != nil {
			return err
		}
		removed++
	}
	fp.walCompacted.Add(int64(removed))
	fp.sealed = nil
	fp.walSeq = 0
	fp.walSize = 0
	return nil
}

// errWALTorn marks a WAL scan that stopped at bytes a crash mid-append can
// leave behind: a segment without its magic, a record cut short or of an
// impossible length, one that fails its checksum, or a byte that starts no
// known record.
var errWALTorn = errors.New("torn or corrupt WAL record")

// errWALBadDelta marks a delta record whose checksum holds and whose runs make
// no sense (empty, past the page end, past the payload). A torn append cannot
// produce one, so it is never treated as a torn tail.
var errWALBadDelta = errors.New("malformed WAL delta record")

// walScanner decodes the records of one WAL segment image. It is the only
// WAL decoder: crash recovery and archive replay both drive it and apply
// their own policy to how a scan ends. After next returns false, off is the
// offset just past the last record decoded and err says why the scan stopped
// there: nil at the clean end of the data, an error wrapping errWALTorn for
// damage, and another error for a record that passes its checksum and cannot
// be used — of a type this format no longer defines, or a delta with
// impossible runs (errWALBadDelta) — which no caller may treat as a torn tail.
type walScanner struct {
	data []byte
	off  int
	err  error

	// The current record, valid after next returned true. A page record
	// fills id and either image or, image left nil, delta (the runs, checked
	// to stay inside a page; both alias data); a commit record sets commit
	// and the header fields it carries.
	commit                   bool
	id                       PageID
	image, delta             []byte
	pages, metaHead, metaLen uint32
	gen                      uint64
}

func scanWAL(data []byte) *walScanner {
	s := &walScanner{data: data}
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		s.err = fmt.Errorf("bad segment magic: %w", errWALTorn)
		return s
	}
	s.off = len(walMagic)
	return s
}

func (s *walScanner) next() bool {
	if s.err != nil || s.off >= len(s.data) {
		return false
	}
	var size int
	switch typ := s.data[s.off]; typ {
	case walPageRec:
		size = walPageRecSize
	case walDeltaRec:
		if s.off+walDeltaHdrSize > len(s.data) {
			s.err = fmt.Errorf("record at offset %d cut short: %w", s.off, errWALTorn)
			return false
		}
		size = walDeltaHdrSize + int(binary.LittleEndian.Uint16(s.data[s.off+5:])) + 4
		if size >= walPageRecSize {
			// The writer logs the image instead of a delta this long.
			s.err = fmt.Errorf("delta record of %d bytes at offset %d: %w", size, s.off, errWALTorn)
			return false
		}
	case walCommitRec2:
		size = walCommitRec2Size
	case walRemovedCommitRec:
		size = walRemovedCommitRecSize
	default:
		s.err = fmt.Errorf("unknown record type %d at offset %d: %w", typ, s.off, errWALTorn)
		return false
	}
	if s.off+size > len(s.data) {
		s.err = fmt.Errorf("record at offset %d cut short: %w", s.off, errWALTorn)
		return false
	}
	rec := s.data[s.off : s.off+size]
	if crc32.Checksum(rec[:size-4], castagnoli) != binary.LittleEndian.Uint32(rec[size-4:]) {
		s.err = fmt.Errorf("record at offset %d fails its checksum: %w", s.off, errWALTorn)
		return false
	}
	switch rec[0] {
	case walPageRec:
		s.commit = false
		s.id = PageID(binary.LittleEndian.Uint32(rec[1:5]))
		s.image, s.delta = rec[5:5+PageSize], nil
	case walDeltaRec:
		s.commit = false
		s.id = PageID(binary.LittleEndian.Uint32(rec[1:5]))
		s.image, s.delta = nil, rec[walDeltaHdrSize:size-4]
		for runs := s.delta; len(runs) > 0; {
			if len(runs) < walRunHdrSize {
				s.err = fmt.Errorf("delta record at offset %d ends inside a run header: %w", s.off, errWALBadDelta)
				return false
			}
			off, n := int(binary.LittleEndian.Uint16(runs)), int(binary.LittleEndian.Uint16(runs[2:]))
			if n == 0 || off+n > PageSize || walRunHdrSize+n > len(runs) {
				s.err = fmt.Errorf("delta record at offset %d: run of %d bytes at page offset %d: %w", s.off, n, off, errWALBadDelta)
				return false
			}
			runs = runs[walRunHdrSize+n:]
		}
	case walCommitRec2:
		s.commit = true
		s.pages = binary.LittleEndian.Uint32(rec[1:5])
		s.metaHead = binary.LittleEndian.Uint32(rec[5:9])
		s.metaLen = binary.LittleEndian.Uint32(rec[9:13])
		s.gen = binary.LittleEndian.Uint64(rec[13:21])
	default:
		s.err = fmt.Errorf("WAL commit record type %d (no generation stamp) at offset %d, this build reads only type %d: %w",
			walRemovedCommitRec, s.off, walCommitRec2, errFormatVersion)
		return false
	}
	s.off += size
	return true
}

// ErrWALDeltaBase reports a committed delta record with nothing to apply it
// to: no record of its page earlier in the log, and a data-file slot that
// cannot be read. The log is intact and the store is not — this is never
// treated as a torn tail.
var ErrWALDeltaBase = errors.New("rdbms: WAL delta record without a base image")

// walRedo is the one record applier: crash recovery and archive replay feed
// it the scanner's page records, tell it at each commit record whether the
// batch counts, and write out the images it rebuilt.
type walRedo struct {
	// store is the data file being rebuilt: its slots are the base of a
	// delta whose page no applied batch has touched yet, and where flush
	// writes.
	store slotFile
	// pages is the newest image of every page an applied batch touched, each
	// a private copy that later deltas patch in place.
	pages map[PageID]*page
	// batch is the page records since the last commit record; they alias the
	// segment being scanned.
	batch []walPageChange
}

// slotFile is a data file as the applier uses it: page slots read and
// written at their offsets.
type slotFile interface {
	io.ReaderAt
	io.WriterAt
}

// walPageChange is one page record: image, or image nil and delta runs.
type walPageChange struct {
	id           PageID
	image, delta []byte
}

func newWALRedo(store slotFile) *walRedo {
	return &walRedo{store: store, pages: make(map[PageID]*page)}
}

// stage holds the scanner's current page record until its batch's commit
// record decides it.
func (r *walRedo) stage(sc *walScanner) {
	r.batch = append(r.batch, walPageChange{sc.id, sc.image, sc.delta})
}

// drop forgets the staged batch (uncommitted, or already applied).
func (r *walRedo) drop() { r.batch = r.batch[:0] }

// commit applies the staged batch to pages, in record order.
func (r *walRedo) commit() error {
	for _, c := range r.batch {
		p := r.pages[c.id]
		if c.image != nil {
			if p == nil {
				p = &page{}
				r.pages[c.id] = p
			}
			copy(p.buf[:], c.image)
			continue
		}
		if p == nil {
			var err error
			if p, err = readSlot(r.store, c.id); err != nil {
				return fmt.Errorf("%w: %v", ErrWALDeltaBase, err)
			}
			r.pages[c.id] = p
		}
		applyDelta(p.buf[:], c.delta)
	}
	r.drop()
	return nil
}

// flush writes every rebuilt image to its slot.
func (r *walRedo) flush() error {
	for id, p := range r.pages {
		if err := writeSlot(r.store, id, p.buf[:]); err != nil {
			return err
		}
	}
	return nil
}

// recover redoes committed WAL batches into the data file (idempotent) and
// discards uncommitted or torn tails. Called once on open. It reads every
// segment on disk in sequence order — a checkpoint interrupted mid-
// compaction legitimately leaves an empty segment 0 ahead of surviving
// numbered segments (a suffix of the log), and a batch never straddles a
// boundary, so a continuous scan across segments is sound. The scan stops
// at the first torn or corrupt record and ignores everything after it,
// including later segments; a record of an unsupported type, a delta that
// passes its checksum with impossible runs, or a committed delta with no base
// (ErrWALDeltaBase) fails the open with the log left untouched. It reports
// whether a committed batch was applied (which also rebuilds the header from
// the commit record), and always leaves the log compacted back to an empty
// segment 0.
func (fp *FilePager) recover() (bool, error) {
	numbered, err := fp.listWALSegments()
	if err != nil {
		return false, err
	}
	seqs := append([]int{0}, numbered...)
	redo := newWALRedo(fp.f)
	var pages, metaHead, metaLen uint32
	gen := fp.gen.Load() // header generation; commit records advance it
	haveCommit := false
	sawData := false
	// extents tracks how far into each segment the committed prefix
	// reaches, so the resetWAL below archives exactly the replayable bytes
	// and never a torn tail.
	extents := make(map[int]int64)
	for _, seq := range seqs {
		data, err := fp.fs.readFile(fp.walSegPath(seq))
		if err != nil {
			return false, err
		}
		if len(data) == 0 {
			continue // truncated by a past compaction, or a fresh rotation
		}
		sawData = true
		sc := scanWAL(data)
		for sc.next() {
			if !sc.commit {
				redo.stage(sc)
				continue
			}
			if err := redo.commit(); err != nil {
				return false, fmt.Errorf("%s: %w", fp.walSegPath(seq), err)
			}
			pages, metaHead, metaLen, gen = sc.pages, sc.metaHead, sc.metaLen, sc.gen
			haveCommit = true
			extents[seq] = int64(sc.off)
		}
		if sc.err != nil {
			if !errors.Is(sc.err, errWALTorn) {
				return false, fmt.Errorf("%s: %w", fp.walSegPath(seq), sc.err)
			}
			break
		}
	}
	// Adopt the on-disk segments so resetWAL compacts exactly what exists,
	// whatever state the scan stopped in, and hand it the committed extents
	// so compaction archives them first.
	fp.sealed = fp.sealed[:0]
	for _, seq := range numbered {
		fp.sealed = append(fp.sealed, walSegment{seq: seq})
	}
	fp.recoveredExtents = extents
	if !haveCommit {
		if !sawData && len(numbered) == 0 {
			// Nothing to discard; skip the reset so a fresh open performs
			// no WAL writes at all.
			return false, nil
		}
		return false, fp.resetWAL()
	}
	fp.diskWrites.Add(int64(len(redo.pages)))
	if err := redo.flush(); err != nil {
		return false, err
	}
	fp.pages = int(pages)
	fp.metaHead = PageID(metaHead)
	fp.metaLen = metaLen
	fp.gen.Store(gen)
	if err := fp.writeHeader(); err != nil {
		return false, err
	}
	if err := fp.f.Sync(); err != nil {
		return false, err
	}
	return true, fp.resetWAL()
}

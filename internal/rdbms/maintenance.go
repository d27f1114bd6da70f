package rdbms

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// This file is the self-healing layer over the durable pager: in-place
// poison recovery (Recover), the online checksum scrubber (Scrub) and
// free-space defragmentation (Vacuum). Together they turn the fail-safe
// degradation of the fault layer into a degrade→repair→resume lifecycle:
// a transient fault poisons the store read-only, Recover reopens and
// verifies it in place once the fault has passed, Scrub finds and repairs
// silent corruption before readers do, and Vacuum returns the space that
// long-lived churn leaves behind.

// Recover attempts to clear a poisoned database in place, without losing
// the process's open handle to it: the distrusted file handles are
// discarded, fresh ones are opened, WAL redo recovery re-establishes the
// last durably committed state, the catalog and caches are rebuilt from it,
// and every page slot is checksum-verified. Only if all of that succeeds is
// the sticky poison cleared — if the underlying fault persists (the disk is
// still full, the device still errors), Recover fails and the database
// stays poisoned for a later attempt.
//
// Uncommitted staged work is lost, exactly as a crash would lose it.
// Every Table handle and upper-layer engine opened before Recover is stale
// afterwards and must be discarded and re-fetched/reloaded — the serve
// layer drops its sheet handles for this reason. Concurrent commits during
// recovery fail with "pager closed"; concurrent reads may observe the
// pre-recovery state until Recover returns. Recover on a healthy database
// is permitted and simply reverts it to its last committed state. No-op
// for in-memory databases.
func (db *DB) Recover() error {
	fp := db.filePager()
	if fp == nil {
		return nil
	}
	// The flusher's commits hold the gate (db.mu shared); stop it before
	// taking db.mu exclusively, or recovery would deadlock behind its own
	// blocked flusher.
	fp.stopFlusher()
	defer fp.startFlusher()
	db.mu.Lock()
	defer db.mu.Unlock()
	fp.mu.Lock()
	err := fp.reopenLocked()
	fp.mu.Unlock()
	if err != nil {
		return fmt.Errorf("rdbms: recover: %w", err)
	}
	// Rebuild everything derived from the pre-fault state: pool frames and
	// catalog structures may reference staged pages that the reopen just
	// discarded.
	db.pool.reset()
	db.tables = make(map[string]*Table)
	db.meta = make(map[string][]byte)
	db.metaDirty = make(map[string]bool)
	db.metaDel = make(map[string]bool)
	db.metaLoc = make(map[string]metaChainLoc)
	if err := db.loadCatalog(fp); err != nil {
		return fmt.Errorf("rdbms: recover: %w", err)
	}
	// Page verification gates the poison clear: a store that recovered its
	// WAL but still holds unreadable slots is not healed.
	if err := db.VerifyChecksums(); err != nil {
		return fmt.Errorf("rdbms: recover: page verification: %w", err)
	}
	fp.clearPoison()
	fp.recoveries.Add(1)
	// Recovery counts as a generation: it may roll visible state back to
	// the last committed batch, so snapshot readers must not conflate pre-
	// and post-recovery reads.
	db.commitGen.Add(1)
	return nil
}

// PassOptions tunes one paced pass over the data file's page slots: an
// online scrub (DB.Scrub) or a hot backup (DB.Backup).
type PassOptions struct {
	// PagesPerSecond bounds the pass's read rate so a background pass does
	// not starve foreground traffic; 0 means unthrottled.
	PagesPerSecond int
	// BatchPages is how many page slots are visited per lock acquisition
	// (readers and writers are served between batches); 0 means 64.
	BatchPages int
	// Progress, when non-nil, is called after every batch with the slots
	// processed so far and the page count the pass started with. Returning
	// an error aborts the pass with that error — also the hook the soak
	// harness uses to kill the process mid-pass.
	Progress func(done, total int) error
	// Stop aborts the pass with ErrStopped when closed, including during
	// the pacing pause, so a rate-limited pass never stalls graceful
	// shutdown.
	Stop <-chan struct{}
}

// stopErr is the non-blocking poll of a Stop channel; a nil channel never
// fires.
func stopErr(stop <-chan struct{}) error {
	select {
	case <-stop:
		return ErrStopped
	default:
		return nil
	}
}

// walkSlots is the one walk over the data file's page slots, shared by
// scrub, the backup stream and verification. It visits slots [0, total) in
// batches of opts.BatchPages: visit runs under the shared pager lock, so
// readers and writers are served between batches, and after, when non-nil,
// once the lock is released, for work that must not hold it. Progress
// follows every batch, then a paced pass pauses batch/PagesPerSecond. Stop
// is polled before every batch and during the pause.
func (fp *FilePager) walkSlots(opts PassOptions, total int, visit, after func(lo, hi int) error) error {
	batch := opts.BatchPages
	if batch <= 0 {
		batch = 64
	}
	var pause time.Duration
	if opts.PagesPerSecond > 0 {
		pause = time.Second * time.Duration(batch) / time.Duration(opts.PagesPerSecond)
	}
	for lo := 0; lo < total; lo += batch {
		if err := stopErr(opts.Stop); err != nil {
			return err
		}
		hi := min(lo+batch, total)
		var err error
		fp.mu.RLock()
		if fp.closed {
			err = errors.New("rdbms: pager closed")
		} else {
			err = visit(lo, hi)
		}
		fp.mu.RUnlock()
		if err == nil && after != nil {
			err = after(lo, hi)
		}
		if err == nil && opts.Progress != nil {
			err = opts.Progress(hi, total)
		}
		if err != nil {
			return err
		}
		if pause > 0 && hi < total {
			select {
			case <-time.After(pause):
			case <-opts.Stop:
				return ErrStopped
			}
		}
	}
	return nil
}

// verifySlotsLocked checksum-reads every slot in [lo, hi) that should hold a
// current image and reports each to check (with the read error, nil when
// clean), returning how many slots it skipped and the first error check
// returns. Pages dirtied since the last checkpoint have no current on-disk
// slot yet; free and pending-free pages hold dead (often never-written)
// slots. Both are skipped. Retained clean shadow entries are NOT skipped:
// their slots were written by a past checkpoint and must verify. fp.mu must
// be held (shared suffices).
func (fp *FilePager) verifySlotsLocked(lo, hi int, check func(PageID, error) error) (int, error) {
	skip := fp.unverifiableLocked()
	skipped := 0
	for id := PageID(lo); int(id) < min(hi, fp.pages); id++ {
		if skip[id] {
			skipped++
			continue
		}
		_, err := fp.readPageFromFile(id)
		if err := check(id, err); err != nil {
			return skipped, err
		}
	}
	return skipped, nil
}

// VerifyChecksums reads every page slot in the data file that should hold a
// current image and validates its checksum, returning the first corruption
// found. Nil for in-memory databases.
func (db *DB) VerifyChecksums() error {
	fp := db.filePager()
	if fp == nil {
		return nil
	}
	return fp.walkSlots(PassOptions{}, fp.pageCount(), func(lo, hi int) error {
		_, err := fp.verifySlotsLocked(lo, hi, func(_ PageID, err error) error { return err })
		return err
	}, nil)
}

// ScrubResult reports one scrub pass.
type ScrubResult struct {
	Scanned  int      // slots read and checksum-verified clean
	Skipped  int      // dirty or free pages with no on-disk slot to verify
	Repaired []PageID // corrupt slots rewritten from a clean in-memory image
	Bad      []PageID // corrupt slots left quarantined (no repair source)
}

// Scrub walks every page slot in the data file at a bounded I/O rate while
// readers keep being served, verifying checksums. A corrupt slot is
// repaired in place when a trustworthy image exists in memory (a retained
// clean shadow entry or a clean buffer-pool frame — both hold exactly what
// the slot should hold); otherwise the page is quarantined: reads of it
// keep failing with ErrChecksum, marking that region degraded, but the
// store as a whole is not poisoned and writes continue. Progress and
// findings surface through IOStats (ScrubRuns/ScrubPages/ScrubRepaired/
// ScrubBad/QuarantinedPages). No-op for in-memory databases.
func (db *DB) Scrub(opts PassOptions) (ScrubResult, error) {
	var res ScrubResult
	fp := db.filePager()
	if fp == nil {
		return res, nil
	}
	var bad []PageID
	err := fp.walkSlots(opts, fp.pageCount(), func(lo, hi int) error {
		bad = bad[:0]
		skipped, _ := fp.verifySlotsLocked(lo, hi, func(id PageID, err error) error {
			if err != nil {
				bad = append(bad, id)
			} else {
				res.Scanned++
			}
			return nil
		})
		res.Skipped += skipped
		return nil
	}, func(lo, hi int) error {
		for _, id := range bad {
			// A clean pool frame is the fallback repair source. Its copy must
			// be taken before fp.mu: markDirty holds the pool lock while
			// calling back into the pager.
			fp.repairOrQuarantine(id, db.pool.peek(id), &res)
		}
		fp.scrubPages.Add(int64(hi - lo))
		return nil
	})
	if err != nil {
		return res, err
	}
	fp.scrubRuns.Add(1)
	return res, nil
}

// repairOrQuarantine handles one slot the scan found corrupt: re-check
// under the exclusive lock (it may have been rewritten or freed since),
// then rewrite it from a clean in-memory image if one exists, else
// quarantine it. Repair failures never poison — the slot was already
// unreadable, and the store keeps running degraded.
func (fp *FilePager) repairOrQuarantine(id PageID, poolCopy *page, res *ScrubResult) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if fp.closed || int(id) >= fp.pages || fp.unverifiableLocked()[id] {
		res.Skipped++
		return
	}
	if _, err := fp.readPageFromFile(id); err == nil {
		// A concurrent checkpoint healed it between the scan and now.
		delete(fp.quarantined, id)
		res.Scanned++
		return
	}
	// Both sources are checkpoint-consistent for a non-dirty page: the
	// retained shadow entry is the image the last checkpoint wrote, and a
	// clean pool frame was loaded from (or written back as) that same image.
	src := fp.shadow[id]
	if src == nil {
		src = poolCopy
	}
	if src != nil {
		if err := fp.writePageToFile(id, src); err == nil {
			if err := fp.f.Sync(); err == nil {
				if _, err := fp.readPageFromFile(id); err == nil {
					delete(fp.quarantined, id)
					res.Repaired = append(res.Repaired, id)
					fp.scrubRepaired.Add(1)
					return
				}
			}
		}
	}
	if !fp.quarantined[id] {
		fp.quarantined[id] = true
		fp.scrubBad.Add(1)
	}
	res.Bad = append(res.Bad, id)
}

// VacuumResult reports one defragmentation pass.
type VacuumResult struct {
	PagesBefore    int   // data-file pages before the pass
	PagesAfter     int   // data-file pages after truncation
	PagesMoved     int   // meta-chain pages relocated into lower free slots
	BytesReclaimed int64 // bytes returned to the filesystem by the truncate
}

// Vacuum defragments the data file: it relocates trailing live meta-chain
// pages (the catalog manifest chain and every out-of-line metadata value
// chain — long-lived databases interleave these with tuple pages) into the
// lowest free slots, then truncates the file past the trailing free pages,
// returning the bytes to the filesystem. Heap pages are pinned — tuple RIDs
// are persisted in chunk pointers and upper-layer positional maps — so only
// meta pages move; dropping a large table followed by Vacuum reclaims the
// table's space even when manifest chains were allocated above it.
//
// The pass is crash-safe: relocation commits through the ordinary WAL
// checkpoint path into slots the durable manifest considers free, the
// shrunken page count and free list are committed before the physical
// truncate, and a crash at any point leaves either the old or the new state
// (at worst a longer-than-needed file, which the next Vacuum trims).
// Vacuum takes the database exclusively for the duration of the pass.
// No-op for in-memory databases; fails on a poisoned database.
func (db *DB) Vacuum() (VacuumResult, error) {
	fp := db.filePager()
	if fp == nil {
		return VacuumResult{}, nil
	}
	if err := fp.poisonedErr(); err != nil {
		return VacuumResult{}, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	// A hot backup's walker addresses slots by the page count it pinned;
	// relocation and truncation underneath it would stream garbage. Backup
	// setup also holds db.mu, so this check is race-free.
	fp.mu.RLock()
	backupActive := fp.backupActive
	fp.mu.RUnlock()
	if backupActive {
		return VacuumResult{}, errors.New("rdbms: vacuum refused: a backup is in progress")
	}
	res := VacuumResult{PagesBefore: fp.pageCount()}
	// Flush everything first so the overlay is clean, pending frees are
	// promoted and the durable manifest matches memory: relocation below
	// may only target slots this manifest considers free.
	if err := db.commitCheckpointLocked(fp); err != nil {
		return res, err
	}
	moved, err := db.relocateMetaLocked(fp)
	if err != nil {
		return res, err
	}
	res.PagesMoved = moved
	// The old homes of relocated pages become free once the manifest that
	// no longer references them is staged — which is exactly what the
	// final checkpoint below does, mirroring the FlushWAL ordering.
	fp.promotePendingFree()
	reclaimed := fp.truncateTail()
	if err := db.commitCheckpointLocked(fp); err != nil {
		return res, err
	}
	if reclaimed > 0 {
		// Physical truncate strictly after the shrunken page count and
		// filtered free list are durable: a crash in between leaves a
		// longer file whose tail slots nothing references.
		if err := fp.truncateDataFile(); err != nil {
			return res, err
		}
	}
	res.PagesAfter = fp.pageCount()
	res.BytesReclaimed = int64(reclaimed) * pageSlotSize
	fp.vacuumRuns.Add(1)
	fp.vacuumPagesMoved.Add(int64(moved))
	fp.vacuumBytesFreed.Add(res.BytesReclaimed)
	return res, nil
}

// relocateMetaLocked moves meta-chain pages from the top of the file into
// lower free slots: highest live meta page ↔ lowest free slot, while the
// move shrinks the file's live extent. The page image is copied into the
// target slot through the shadow overlay, the owning chain is repointed, and
// the old page is queued for reclamation. A catalog-chain page carries the
// id of its successor: the caller's next writeMeta compares every link with
// the repointed chain and restages the predecessor of a page that moved.
// db.mu must be held exclusively; the caller commits the moves.
func (db *DB) relocateMetaLocked(fp *FilePager) (int, error) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	free := append([]PageID(nil), fp.freeList...)
	sort.Slice(free, func(i, j int) bool { return free[i] < free[j] })
	// Owner map: which chain slice holds each live meta page, so a move can
	// repoint it in place. Heap pages never appear here — they are pinned
	// by persisted RIDs.
	type owner struct {
		chain []PageID
		idx   int
	}
	owners := make(map[PageID]owner)
	for i, id := range fp.metaPages {
		owners[id] = owner{fp.metaPages, i}
	}
	for _, loc := range db.metaLoc {
		for i, id := range loc.pages {
			owners[id] = owner{loc.pages, i}
		}
	}
	live := make([]PageID, 0, len(owners))
	for id := range owners {
		live = append(live, id)
	}
	sort.Slice(live, func(i, j int) bool { return live[i] > live[j] })
	moved := 0
	fi := 0
	for _, hi := range live {
		if fi >= len(free) || free[fi] >= hi {
			break
		}
		img := fp.shadow[hi]
		if img == nil {
			var err error
			img, err = fp.readPageFromFile(hi)
			if err != nil {
				// An unreadable (e.g. quarantined) meta page stays where it
				// is; the chain remains intact and the scrubber owns it.
				continue
			}
		}
		lo := free[fi]
		fi++
		cp := &page{}
		*cp = *img
		fp.stageLocked(lo, cp)
		own := owners[hi]
		own.chain[own.idx] = lo
		if own.idx == 0 && len(fp.metaPages) > 0 && fp.metaPages[0] == lo {
			fp.metaHead = lo
		}
		fp.pendingFree = append(fp.pendingFree, hi)
		moved++
	}
	if moved > 0 {
		// Drop the consumed targets from the free list, and keep it sorted
		// descending so allocLocked (which pops from the end) fills the
		// lowest holes first from now on.
		consumed := make(map[PageID]bool, fi)
		for _, id := range free[:fi] {
			consumed[id] = true
		}
		nf := fp.freeList[:0]
		for _, id := range fp.freeList {
			if !consumed[id] {
				nf = append(nf, id)
			}
		}
		fp.freeList = nf
	}
	sort.Slice(fp.freeList, func(i, j int) bool { return fp.freeList[i] > fp.freeList[j] })
	return moved, nil
}

// truncateTail shrinks the logical page count past trailing free pages and
// filters them off the free list, returning how many pages were reclaimed.
// It stops at a free page the log still holds a record of (see
// forgetPageLocked): that page keeps its slot until the next checkpoint has
// written it. The caller must commit the new count and free list durably
// before physically truncating the file.
func (fp *FilePager) truncateTail() int {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	freed := make(map[PageID]bool, len(fp.freeList))
	for _, id := range fp.freeList {
		freed[id] = true
	}
	n := 0
	for fp.pages > 0 && freed[PageID(fp.pages-1)] && !fp.ckptDirty[PageID(fp.pages-1)] {
		fp.pages--
		n++
	}
	if n == 0 {
		return 0
	}
	nf := fp.freeList[:0]
	for _, id := range fp.freeList {
		if int(id) < fp.pages {
			nf = append(nf, id)
		}
	}
	fp.freeList = nf
	for id := range fp.shadow {
		if int(id) >= fp.pages {
			fp.forgetPageLocked(id)
		}
	}
	return n
}

// truncateDataFile returns the file tail past the last live page slot to
// the filesystem. A truncate failure leaves a consistent (merely longer)
// file and does not poison; a failed fsync after a successful truncate
// does — the handle's durable state is unknown from then on.
func (fp *FilePager) truncateDataFile() error {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	size := fileHeaderSize + int64(fp.pages)*pageSlotSize
	if err := fp.f.Truncate(size); err != nil {
		return fmt.Errorf("rdbms: data file truncate: %w", err)
	}
	if err := fp.f.Sync(); err != nil {
		return fp.poison(fmt.Errorf("rdbms: data file fsync after truncate: %w", err))
	}
	return nil
}

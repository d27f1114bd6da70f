package rdbms

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// IOStats counts I/O through the buffer pool. The paper's access experiments
// report wall-clock time on PostgreSQL; our substrate exposes both time and
// these logical I/O counters so benches can report a machine-independent
// signal alongside timings. The Disk*/WAL* fields count the pager's file
// I/O, on an in-memory database's files as on disk.
type IOStats struct {
	Writes int64 // page write-backs (evictions and flushes of dirty pages)
	// Read-path counters (the scrolling workload's hot signal).
	PoolHits   int64 // fetches served from a resident frame
	PoolMisses int64 // fetches that had to go to the pager
	PagesRead  int64 // pages actually loaded from the pager into the pool
	// File I/O of the pager.
	DiskReads   int64 // page reads from the data file
	DiskWrites  int64 // page writes to the data file (checkpoint, recovery)
	WALAppends  int64 // page records (images and deltas) appended to the write-ahead log
	WALDeltas   int64 // of those, delta records: the byte ranges that changed, not the image
	WALSyncs    int64 // fsyncs of the write-ahead log (one per commit batch)
	WALBytes    int64 // bytes appended to the write-ahead log
	Checkpoints int64 // data-file checkpoints (manual and automatic)
	// CheckpointPages counts data-file page writes performed by checkpoints.
	// Checkpoints are incremental — only pages dirtied since the previous
	// checkpoint are written — so this grows with what changed, not with the
	// overlay size (the incremental-checkpoint signal
	// TestMaintenanceCheckpointVacuumScrub asserts).
	CheckpointPages int64
	FreePages       int64 // pages currently on the free list, awaiting reuse
	ShadowPages     int64 // pages resident in the in-memory overlay (dirty + retained clean cache)
	DirtyPages      int64 // pages dirtied since the last checkpoint (next checkpoint's write set)
	// WAL segmentation counters (the long-lived-operations signal): the
	// log rotates into bounded segments and checkpoints compact them away,
	// so disk usage stays bounded over months of commits.
	WALSegments  int64 // live WAL segments (active + sealed)
	WALRotations int64 // segment rotations since open
	WALCompacted int64 // sealed segment files deleted by checkpoints
	WALDiskBytes int64 // current WAL footprint on disk (all live segments)
	// Manifest persistence counters (the incremental-commit signal): how
	// many bytes of catalog/metadata manifest were staged into meta page
	// chains, and how many out-of-line metadata values (manifest segments)
	// were rewritten. With dirty-tracked segmented manifests these grow
	// with what changed, not with sheet size.
	ManifestBytes    int64 // manifest bytes staged (changed catalog root pages + rewritten values)
	ManifestSegments int64 // out-of-line metadata values rewritten
	// Self-healing counters (the degrade→repair→resume lifecycle): online
	// scrub progress and findings, vacuum reclamation, and in-place
	// poison recoveries.
	ScrubRuns        int64 // completed scrub passes
	ScrubPages       int64 // page slots visited by the scrubber
	ScrubRepaired    int64 // corrupt slots rewritten from a clean in-memory image
	ScrubBad         int64 // corrupt slots quarantined (unrepairable at scrub time)
	QuarantinedPages int64 // slots currently quarantined (degraded regions)
	Vacuums          int64 // completed vacuum passes
	VacuumPagesMoved int64 // meta-chain pages relocated into lower free slots
	VacuumBytesFreed int64 // data-file bytes returned by vacuum truncation
	Recoveries       int64 // successful in-place poison recoveries (DB.Recover)
	// Disaster-recovery counters (the survive-losing-the-file signal):
	// online hot backups streamed, WAL segments preserved into the archive,
	// and the durable generation backups pin and PITR targets.
	Backups      int64 // completed online backups (DB.Backup)
	BackupPages  int64 // live page slots streamed by backups
	BackupBytes  int64 // bytes written to backup streams
	WALArchived  int64 // WAL segments copied into the archive directory
	ArchiveBytes int64 // bytes copied into the archive directory
	DurableGen   int64 // current durable generation (see DB.DurableGen)
}

// Counters lists every IOStats field in declaration order — the one field
// table. The serve stats codec ships exactly this list, so a new counter is
// added to the struct and here, filled where it is counted and printed where
// it is shown; nothing in between names it.
func (s *IOStats) Counters() []*int64 {
	return []*int64{
		&s.Writes, &s.PoolHits, &s.PoolMisses, &s.PagesRead,
		&s.DiskReads, &s.DiskWrites, &s.WALAppends, &s.WALDeltas, &s.WALSyncs, &s.WALBytes,
		&s.Checkpoints, &s.CheckpointPages, &s.FreePages, &s.ShadowPages, &s.DirtyPages,
		&s.WALSegments, &s.WALRotations, &s.WALCompacted, &s.WALDiskBytes,
		&s.ManifestBytes, &s.ManifestSegments,
		&s.ScrubRuns, &s.ScrubPages, &s.ScrubRepaired, &s.ScrubBad, &s.QuarantinedPages,
		&s.Vacuums, &s.VacuumPagesMoved, &s.VacuumBytesFreed, &s.Recoveries,
		&s.Backups, &s.BackupPages, &s.BackupBytes, &s.WALArchived, &s.ArchiveBytes,
		&s.DurableGen,
	}
}

// BufferPool caches page frames over the pager. A frame is the pool's own
// copy of a page: the eviction or flush of a dirty frame writes it back,
// which is what stages the page for the next WAL commit.
//
// Concurrency: fetches from resident frames take only a read lock and flip a
// per-frame reference bit, so concurrent range scans do not serialize on the
// pool. Misses load the page from the pager *outside* the pool lock (the
// pager allows parallel reads), then race to install the frame; eviction uses
// a second-chance (CLOCK) sweep over the LRU list instead of exact
// move-to-front, which is what makes the hit path mutation-free. Writers
// (markDirty, flushDirty, discard) take the exclusive lock and must not run
// concurrently with readers of the same table, matching the single-writer
// contract documented on Table.
type BufferPool struct {
	mu       sync.RWMutex
	capacity int
	disk     *FilePager
	frames   map[PageID]*list.Element // -> *frame
	lru      *list.List

	hits      atomic.Int64
	misses    atomic.Int64
	pagesRead atomic.Int64
	writes    atomic.Int64
}

type frame struct {
	id    PageID
	page  *page
	dirty bool
	// used is the CLOCK reference bit, set by lock-free(ish) hits and
	// cleared by the eviction sweep.
	used atomic.Bool
}

// newBufferPool creates a pool caching up to capacity pages.
func newBufferPool(disk *FilePager, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	return &BufferPool{
		capacity: capacity,
		disk:     disk,
		frames:   make(map[PageID]*list.Element),
		lru:      list.New(),
	}
}

// fetch returns the page, loading it into the pool if absent. An unknown id,
// an I/O failure or a checksum mismatch is this fetch's own error, naming
// the page; nothing of it outlives the call. Safe for concurrent readers.
func (b *BufferPool) fetch(id PageID) (*page, error) {
	b.mu.RLock()
	if e, ok := b.frames[id]; ok {
		f := e.Value.(*frame)
		f.used.Store(true)
		b.mu.RUnlock()
		b.hits.Add(1)
		return f.page, nil
	}
	b.mu.RUnlock()
	b.misses.Add(1)
	// Load outside the pool lock: the pager supports parallel reads, so
	// concurrent cold scans overlap their file I/O instead of serializing.
	p, err := b.disk.fetch(id)
	if err != nil {
		return nil, err
	}
	b.pagesRead.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	if e, ok := b.frames[id]; ok {
		// A concurrent loader won the race; use its frame.
		f := e.Value.(*frame)
		f.used.Store(true)
		return f.page, nil
	}
	b.evictLocked()
	e := b.lru.PushFront(&frame{id: id, page: p})
	b.frames[id] = e
	return p, nil
}

// evictLocked makes room for one more frame with a second-chance sweep from
// the cold end: recently referenced frames get their bit cleared and move to
// the front; the first unreferenced frame is evicted (written back when
// dirty). b.mu must be held exclusively.
func (b *BufferPool) evictLocked() {
	for b.lru.Len() >= b.capacity {
		tail := b.lru.Back()
		if tail == nil {
			return
		}
		f := tail.Value.(*frame)
		if f.used.Swap(false) {
			b.lru.MoveToFront(tail)
			continue
		}
		if f.dirty {
			b.writes.Add(1)
			b.disk.writeBack(f.id, f.page)
		}
		delete(b.frames, f.id)
		b.lru.Remove(tail)
	}
}

// markDirty records that the page was modified while cached.
func (b *BufferPool) markDirty(id PageID, p *page) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e, ok := b.frames[id]; ok {
		e.Value.(*frame).dirty = true
		return
	}
	// Write-through for uncached pages.
	b.writes.Add(1)
	b.disk.writeBack(id, p)
}

// flushDirty writes every dirty frame back to the pager and marks it clean.
// Frames stay cached. Used by the durability paths (WAL commit, checkpoint).
func (b *BufferPool) flushDirty() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for e := b.lru.Back(); e != nil; e = e.Prev() {
		if f := e.Value.(*frame); f.dirty {
			b.disk.writeBack(f.id, f.page)
			f.dirty = false
			b.writes.Add(1)
		}
	}
}

// hasDirty reports whether any frame awaits write-back.
func (b *BufferPool) hasDirty() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for e := b.lru.Back(); e != nil; e = e.Prev() {
		if e.Value.(*frame).dirty {
			return true
		}
	}
	return false
}

// discard drops the frames for the given pages without writing them back.
// Used when pages are freed: their contents are dead, and a stale frame must
// not shadow a future reallocation of the same page id.
func (b *BufferPool) discard(ids []PageID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, id := range ids {
		if e, ok := b.frames[id]; ok {
			delete(b.frames, id)
			b.lru.Remove(e)
		}
	}
}

// peek returns a copy of the page's resident frame when it is cached and
// clean, else nil. The scrubber uses it as a repair source: for a page with
// no pending checkpoint write, a clean frame holds exactly the content its
// data-file slot should hold.
func (b *BufferPool) peek(id PageID) *page {
	b.mu.RLock()
	defer b.mu.RUnlock()
	e, ok := b.frames[id]
	if !ok {
		return nil
	}
	f := e.Value.(*frame)
	if f.dirty {
		return nil
	}
	cp := &page{}
	*cp = *f.page
	return cp
}

// reset drops every frame without write-back. The recovery path uses it:
// cached frames may hold pre-fault staged state that the reopen just
// discarded.
func (b *BufferPool) reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.frames = make(map[PageID]*list.Element)
	b.lru = list.New()
}

// Stats returns a snapshot of the I/O counters.
func (b *BufferPool) Stats() IOStats {
	s := IOStats{
		Writes:     b.writes.Load(),
		PoolHits:   b.hits.Load(),
		PoolMisses: b.misses.Load(),
		PagesRead:  b.pagesRead.Load(),
	}
	b.disk.fillIOStats(&s)
	return s
}

// ResetStats zeroes the I/O counters (used between benchmark phases).
func (b *BufferPool) ResetStats() {
	b.hits.Store(0)
	b.misses.Store(0)
	b.pagesRead.Store(0)
	b.writes.Store(0)
	b.disk.resetIOCounters()
}

package rdbms

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// IOStats counts I/O through the buffer pool. The paper's access experiments
// report wall-clock time on PostgreSQL; our substrate exposes both time and
// these logical I/O counters so benches can report a machine-independent
// signal alongside timings. With a file-backed pager the Disk*/WAL* fields
// additionally count real file I/O.
type IOStats struct {
	Writes int64 // page write-backs (evictions and flushes of dirty pages)
	// Read-path counters (the scrolling workload's hot signal).
	PoolHits   int64 // fetches served from a resident frame
	PoolMisses int64 // fetches that had to go to the pager
	PagesRead  int64 // pages actually loaded from the pager into the pool
	// Real file I/O, populated only by the file-backed pager (zero in the
	// in-memory simulator).
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

// Pager is the stable-storage layer beneath the buffer pool: a growable
// array of 8 KiB pages. Two implementations exist: MemPager, the original
// in-memory simulated disk (machine-independent logical I/O for the paper's
// experiments), and FilePager, a durable single-file store with per-page
// checksums and a write-ahead log. Both are safe for concurrent fetches;
// mutations (alloc, free, write-back) remain single-writer per table, as
// documented on Table.
type Pager interface {
	// alloc reserves a zero-initialized page and returns its id, reusing a
	// freed page when the free list is non-empty.
	alloc() PageID
	// fetch returns the page, or (nil, nil) when the id is unknown. The
	// in-memory pager returns its live page object; the file pager returns
	// the newest version (pending write-back or read from the data file).
	// fetch may be called from concurrent readers.
	fetch(id PageID) (*page, error)
	// writeBack persists the modified frame contents. The in-memory pager
	// aliases frames, so this is a no-op; the file pager stages the page
	// for the next WAL commit.
	writeBack(id PageID, p *page) error
	// pageCount returns the number of allocated pages.
	pageCount() int
	// free returns pages to the allocator for reuse (dropped or truncated
	// heaps). Callers must first discard any buffer-pool frames for them.
	free(ids []PageID)
}

// MemPager is the in-memory simulated disk: pages live on the Go heap,
// nothing survives process exit. It remains the default so tests and the
// experiment harness keep their machine-independent logical-I/O mode.
type MemPager struct {
	mu       sync.RWMutex
	pages    []*page
	freeList []PageID
}

func (d *MemPager) alloc() PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := len(d.freeList); n > 0 {
		id := d.freeList[n-1]
		d.freeList = d.freeList[:n-1]
		p := d.pages[id]
		*p = page{}
		p.init()
		return id
	}
	p := &page{}
	p.init()
	d.pages = append(d.pages, p)
	return PageID(len(d.pages) - 1)
}

func (d *MemPager) fetch(id PageID) (*page, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) >= len(d.pages) {
		return nil, nil
	}
	return d.pages[id], nil
}

// writeBack is a no-op: buffer-pool frames alias the stored pages.
func (d *MemPager) writeBack(PageID, *page) error { return nil }

func (d *MemPager) pageCount() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.pages)
}

func (d *MemPager) free(ids []PageID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.freeList = append(d.freeList, ids...)
}

// BufferPool caches page frames. With the in-memory pager frames alias the
// pager's pages, so "eviction" only drops the cache entry and counts a write
// when the frame was dirtied; with the file-backed pager the eviction
// write-back is what stages dirty pages for the WAL.
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
	disk     Pager
	frames   map[PageID]*list.Element // -> *frame
	lru      *list.List

	hits      atomic.Int64
	misses    atomic.Int64
	pagesRead atomic.Int64
	writes    atomic.Int64

	errMu   sync.Mutex
	lastErr error
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
func newBufferPool(disk Pager, capacity int) *BufferPool {
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

// fetch returns the page, loading it into the pool if absent. It returns
// nil for unknown ids and for I/O or checksum failures; the failure is
// retained and surfaced by Err. Safe for concurrent readers.
func (b *BufferPool) fetch(id PageID) *page {
	b.mu.RLock()
	if e, ok := b.frames[id]; ok {
		f := e.Value.(*frame)
		f.used.Store(true)
		b.mu.RUnlock()
		b.hits.Add(1)
		return f.page
	}
	b.mu.RUnlock()
	b.misses.Add(1)
	// Load outside the pool lock: the pager supports parallel reads, so
	// concurrent cold scans overlap their file I/O instead of serializing.
	p, err := b.disk.fetch(id)
	if err != nil {
		b.setErr(err)
		return nil
	}
	if p == nil {
		return nil
	}
	b.pagesRead.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	if e, ok := b.frames[id]; ok {
		// A concurrent loader won the race; use its frame.
		f := e.Value.(*frame)
		f.used.Store(true)
		return f.page
	}
	b.evictLocked()
	e := b.lru.PushFront(&frame{id: id, page: p})
	b.frames[id] = e
	return p
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
			if err := b.disk.writeBack(f.id, f.page); err != nil {
				b.setErr(err)
			}
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
	if err := b.disk.writeBack(id, p); err != nil {
		b.setErr(err)
	}
}

// flushDirty writes every dirty frame back to the pager and marks it clean.
// Frames stay cached. Used by the durability paths (WAL commit, checkpoint).
func (b *BufferPool) flushDirty() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for e := b.lru.Back(); e != nil; e = e.Prev() {
		f := e.Value.(*frame)
		if !f.dirty {
			continue
		}
		if err := b.disk.writeBack(f.id, f.page); err != nil {
			return err
		}
		f.dirty = false
		b.writes.Add(1)
	}
	return nil
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

// reset drops every frame (without write-back) and clears the sticky error.
// The recovery path uses it: cached frames may hold pre-fault staged state
// that the reopen just discarded.
func (b *BufferPool) reset() {
	b.mu.Lock()
	b.frames = make(map[PageID]*list.Element)
	b.lru = list.New()
	b.mu.Unlock()
	b.errMu.Lock()
	b.lastErr = nil
	b.errMu.Unlock()
}

func (b *BufferPool) setErr(err error) {
	b.errMu.Lock()
	if b.lastErr == nil {
		b.lastErr = err
	}
	b.errMu.Unlock()
}

// Err returns the first fetch or write-back failure (nil when none).
// Checksum mismatches on the file-backed pager surface here.
func (b *BufferPool) Err() error {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	return b.lastErr
}

// Stats returns a snapshot of the I/O counters.
func (b *BufferPool) Stats() IOStats {
	s := IOStats{
		Writes:     b.writes.Load(),
		PoolHits:   b.hits.Load(),
		PoolMisses: b.misses.Load(),
		PagesRead:  b.pagesRead.Load(),
	}
	if fp, ok := b.disk.(*FilePager); ok {
		fp.fillIOStats(&s)
	}
	return s
}

// ResetStats zeroes the I/O counters (used between benchmark phases).
func (b *BufferPool) ResetStats() {
	b.hits.Store(0)
	b.misses.Store(0)
	b.pagesRead.Store(0)
	b.writes.Store(0)
	if fp, ok := b.disk.(*FilePager); ok {
		fp.resetIOCounters()
	}
}

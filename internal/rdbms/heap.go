package rdbms

import (
	"cmp"
	"fmt"
	"slices"
)

// Tuple storage prefixes every stored record with a one-byte kind so rows
// larger than a page can be chunked across pages (the moral equivalent of
// PostgreSQL's TOAST):
//
//	tupInline — the complete row encoding follows.
//	tupHead   — first chunk of an oversized row: 6-byte next-RID, then data.
//	tupMid    — continuation chunk: 6-byte next-RID (or the end sentinel),
//	            then data. Never a row start; scans skip it.
const (
	tupInline byte = iota
	tupHead
	tupMid
)

// chunkPtrSize encodes a continuation RID: 4-byte page + 2-byte slot.
const chunkPtrSize = 6

// endChunk marks the last chunk of a chain.
var endChunk = RID{Page: ^PageID(0), Slot: ^uint16(0)}

// maxInline is the largest stored record payload that fits a fresh page.
const maxInline = PageSize - pageHeaderSize - slotSize - TupleHeaderSize

// heapFile is an unordered collection of tuples across pages, the physical
// body of one table.
type heapFile struct {
	disk  *FilePager
	pool  *BufferPool
	pages []PageID // pages owned by this heap, in allocation order
	// freeHint is the index into pages from which to try inserting.
	freeHint int
	tuples   int
	// free[i] is pages[i]'s potentialFree() as the write path last saw it (-1
	// until it has fetched the page) and index maps a page id to its place in
	// pages, so an insert fetches no page known to be too full and a delete
	// walks no list. Neither is persisted; sidecars builds them from pages on
	// the first write, and only the table's single writer touches them.
	free  []int32
	index map[PageID]int
	// enc is insert's and update's encoding buffer, the writer's alone like
	// free and index: the page and insertPayload copy what they keep.
	enc []byte
}

func (h *heapFile) sidecars() {
	if h.index != nil {
		return
	}
	h.index = make(map[PageID]int, len(h.pages))
	h.free = make([]int32, len(h.pages))
	for i, id := range h.pages {
		h.index[id], h.free[i] = i, -1
	}
}

// noteFree records the room left on a page the write path just changed and
// returns the page's place in pages (len(pages) for a page of another heap).
func (h *heapFile) noteFree(id PageID, p *page) int {
	h.sidecars()
	i, ok := h.index[id]
	if !ok {
		return len(h.pages)
	}
	h.free[i] = int32(p.potentialFree())
	return i
}

func newHeapFile(disk *FilePager, pool *BufferPool) *heapFile {
	return &heapFile{disk: disk, pool: pool}
}

// pageReadErr formats an unreadable-page failure, wrapping the fetch's own
// error (a checksum mismatch, an injected read fault) so callers can
// errors.Is against sentinels like ErrChecksum.
func pageReadErr(what string, id PageID, cause error) error {
	return fmt.Errorf("rdbms: cannot read %s %d: %w", what, id, cause)
}

// insertRaw places one already-framed record and returns its RID.
func (h *heapFile) insertRaw(payload []byte) (RID, error) {
	h.sidecars()
	need := int32(len(payload) + TupleHeaderSize + slotSize)
	for i := h.freeHint; i < len(h.pages); i++ {
		if h.free[i] >= 0 && h.free[i] < need {
			continue
		}
		id := h.pages[i]
		p, err := h.pool.fetch(id)
		if err != nil {
			// An unreadable page (e.g. a checksum mismatch) takes no
			// insert: it lands on a later or fresh page, and the page's
			// own reads report the failure.
			continue
		}
		if h.free[i] < 0 {
			h.free[i] = int32(p.potentialFree())
		}
		// An insert takes exactly need bytes of that room, or fails.
		if slot, ok := p.insert(payload); ok {
			h.free[i] -= need
			h.pool.markDirty(id, p)
			h.freeHint = i
			return RID{Page: id, Slot: slot}, nil
		}
		h.free[i] = int32(p.potentialFree()) // the entry read high: correct it
	}
	id := h.disk.alloc()
	h.index[id] = len(h.pages)
	h.pages = append(h.pages, id)
	h.free = append(h.free, PageSize-pageHeaderSize-need)
	h.freeHint = len(h.pages) - 1
	p, err := h.pool.fetch(id)
	if err != nil {
		return RID{}, pageReadErr("freshly allocated page", id, err)
	}
	slot, ok := p.insert(payload)
	if !ok {
		return RID{}, fmt.Errorf("rdbms: fresh page cannot fit %d-byte record", len(payload))
	}
	h.pool.markDirty(id, p)
	return RID{Page: id, Slot: slot}, nil
}

func putChunkPtr(dst []byte, rid RID) {
	dst[0] = byte(rid.Page)
	dst[1] = byte(rid.Page >> 8)
	dst[2] = byte(rid.Page >> 16)
	dst[3] = byte(rid.Page >> 24)
	dst[4] = byte(rid.Slot)
	dst[5] = byte(rid.Slot >> 8)
}

func getChunkPtr(src []byte) RID {
	return RID{
		Page: PageID(src[0]) | PageID(src[1])<<8 | PageID(src[2])<<16 | PageID(src[3])<<24,
		Slot: uint16(src[4]) | uint16(src[5])<<8,
	}
}

// insert stores the row and returns its RID. Rows whose encoding exceeds a
// page are chunked across pages; the returned RID addresses the head chunk.
func (h *heapFile) insert(r Row) (RID, error) {
	h.enc = encodeRow(h.enc[:0], r)
	rid, err := h.insertPayload(h.enc)
	if err != nil {
		return RID{}, err
	}
	h.tuples++
	return rid, nil
}

func (h *heapFile) insertPayload(payload []byte) (RID, error) {
	if len(payload)+1 <= maxInline {
		return h.insertRaw(append([]byte{tupInline}, payload...))
	}
	// Chunk: build the chain back-to-front so each chunk knows its
	// successor's RID.
	const chunkData = maxInline - 1 - chunkPtrSize
	nChunks := (len(payload) + chunkData - 1) / chunkData
	next := endChunk
	var rid RID
	for i := nChunks - 1; i >= 0; i-- {
		lo := i * chunkData
		hi := lo + chunkData
		if hi > len(payload) {
			hi = len(payload)
		}
		kind := tupMid
		if i == 0 {
			kind = tupHead
		}
		rec := make([]byte, 1+chunkPtrSize+hi-lo)
		rec[0] = kind
		putChunkPtr(rec[1:], next)
		copy(rec[1+chunkPtrSize:], payload[lo:hi])
		var err error
		rid, err = h.insertRaw(rec)
		if err != nil {
			return RID{}, err
		}
		next = rid
	}
	return rid, nil
}

// payload returns the row encoding of the stored record buf, reassembling a
// chained row whole; a tombstone or a continuation chunk starts no row.
func (h *heapFile) payload(buf []byte) ([]byte, error) {
	switch {
	case len(buf) == 0 || buf[0] > tupHead:
		return nil, fmt.Errorf("rdbms: no row starts here")
	case buf[0] == tupHead:
		return h.appendChain(nil, buf, nil)
	}
	return buf[1:], nil
}

// appendChain appends to dst the row encoding of an oversized row whose
// first chunk is head (a tupHead record), following its chunk chain only
// until the last attribute proj names is whole (an empty proj: to its end).
// A datum may straddle a chunk boundary; the chunks past the stop go unread,
// as decodeRowColsInto leaves the attributes past its projection unparsed.
func (h *heapFile) appendChain(dst, head []byte, proj []int) ([]byte, error) {
	start := len(dst)
	dst = append(dst, head[1+chunkPtrSize:]...)
	// The chain may stop once its first want attributes are whole: i of them
	// are, ending at dst[off]. A header that does not parse reads the chain
	// whole, for the decoder to report.
	whole := func() bool { return false }
	if n, rest, err := rowHeader(dst[start:]); err == nil && len(proj) > 0 {
		want, i, off := min(n, proj[len(proj)-1]+1), 0, len(dst)-len(rest)
		whole = func() bool {
			count, size, _ := walkAttrs(dst[off:], want-i)
			i, off = i+count, off+size
			return i == want
		}
	}
	for next := getChunkPtr(head[1:]); next != endChunk && !whole(); {
		np, err := h.pool.fetch(next.Page)
		if err != nil {
			return dst, pageReadErr("chunk page", next.Page, err)
		}
		nb := np.read(next.Slot)
		if len(nb) == 0 || nb[0] != tupMid {
			return dst, fmt.Errorf("rdbms: broken chunk chain at %v", next)
		}
		dst = append(dst, nb[1+chunkPtrSize:]...)
		next = getChunkPtr(nb[1:])
	}
	return dst, nil
}

// getMany is the batched read path: it visits every rid of the batch while
// fetching each distinct heap page from the buffer pool once (the RIDs are
// processed in page order, not input order), and decodes only the attributes
// in proj (sorted ascending). fn receives each rid's
// position in the input slice plus the projected values; vals is a scratch
// row reused between calls, so callers must copy datums they keep. An
// oversized (chunked) row is reassembled only up to the chunk that holds its
// last projected attribute: a wide column tuple's first tile reads one chunk,
// not its whole chain. A tombstoned or unreadable rid aborts with an error —
// batch callers treat every rid as a live positional-map pointer.
func (h *heapFile) getMany(rids []RID, proj []int, fn func(i int, vals Row) error) error {
	if len(rids) == 0 {
		return nil
	}
	order := make([]int32, len(rids))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		ra, rb := rids[a], rids[b]
		return cmp.Or(cmp.Compare(ra.Page, rb.Page), cmp.Compare(ra.Slot, rb.Slot))
	})
	var (
		cur    *page
		curID  PageID
		vals   Row
		chunks []byte // reassembly buffer for oversized rows
	)
	for _, oi := range order {
		rid := rids[oi]
		if cur == nil || rid.Page != curID {
			var err error
			if cur, err = h.pool.fetch(rid.Page); err != nil {
				return pageReadErr("page", rid.Page, err)
			}
			curID = rid.Page
		}
		buf := cur.read(rid.Slot)
		if len(buf) == 0 {
			return fmt.Errorf("rdbms: missing tuple %v", rid)
		}
		var payload []byte
		switch buf[0] {
		case tupInline:
			payload = buf[1:]
		case tupHead:
			var err error
			if chunks, err = h.appendChain(chunks[:0], buf, proj); err != nil {
				return err
			}
			payload = chunks
		default:
			return fmt.Errorf("rdbms: rid %v addresses a continuation chunk", rid)
		}
		var err error
		vals, err = decodeRowColsInto(payload, proj, vals)
		if err != nil {
			return err
		}
		if err := fn(int(oi), vals); err != nil {
			return err
		}
	}
	return nil
}

// get decodes the row at rid into dst (see decodeRow). A rid that starts no
// row (a tombstone, a continuation chunk, a bad slot) is an error, and so is
// an unreadable page, with that page's own cause.
func (h *heapFile) get(rid RID, dst Row) (Row, error) {
	p, err := h.pool.fetch(rid.Page)
	if err != nil {
		return nil, pageReadErr("page", rid.Page, err)
	}
	buf, err := h.payload(p.read(rid.Slot))
	if err != nil {
		return nil, fmt.Errorf("rdbms: tuple %v: %w", rid, err)
	}
	return decodeRow(buf, dst)
}

// del tombstones the tuple at rid, including every chunk of an oversized
// row. It reads the whole chain before it tombstones anything, so a chunk
// page it cannot read fails the delete with nothing changed.
func (h *heapFile) del(rid RID) error {
	p, err := h.pool.fetch(rid.Page)
	if err != nil {
		return pageReadErr("page", rid.Page, err)
	}
	buf := p.read(rid.Slot)
	if len(buf) == 0 || buf[0] > tupHead {
		return fmt.Errorf("rdbms: no tuple at %v", rid)
	}
	chain, pages := []RID{rid}, []*page{p}
	for buf[0] != tupInline {
		next := getChunkPtr(buf[1:])
		if next == endChunk {
			break
		}
		if p, err = h.pool.fetch(next.Page); err != nil {
			return pageReadErr("chunk page", next.Page, err)
		}
		if buf = p.read(next.Slot); len(buf) == 0 || buf[0] != tupMid {
			return fmt.Errorf("rdbms: broken chunk chain at %v", next)
		}
		chain, pages = append(chain, next), append(pages, p)
	}
	// Each page is fetched again as it is changed: a long chain may have
	// evicted the frame the walk above read. Should that re-read fail, the
	// page the walk read is still current, since only this loop has changed
	// the chain's pages since and it hands each change on to pages, so the
	// delete never stops halfway.
	for i, c := range chain {
		if p, err = h.pool.fetch(c.Page); err != nil {
			p = pages[i]
		}
		p.del(c.Slot)
		h.pool.markDirty(c.Page, p)
		h.freeHint = min(h.freeHint, h.noteFree(c.Page, p))
		for j := i + 1; j < len(chain); j++ {
			if chain[j].Page == c.Page {
				pages[j] = p
			}
		}
	}
	h.tuples--
	return nil
}

// update rewrites the tuple under its RID when the existing record is inline
// and its page has room for the new encoding, otherwise by delete+insert
// (returning the new RID).
func (h *heapFile) update(rid RID, r Row) (RID, error) {
	h.enc = encodeRow(append(h.enc[:0], tupInline), r)
	payload := h.enc[1:]
	p, err := h.pool.fetch(rid.Page)
	if err != nil {
		return RID{}, pageReadErr("page", rid.Page, err)
	}
	if len(payload)+1 <= maxInline {
		if buf := p.read(rid.Slot); len(buf) > 0 && buf[0] == tupInline {
			was := len(buf)
			if p.replace(rid.Slot, h.enc) {
				if was != len(payload)+1 {
					h.noteFree(rid.Page, p)
				}
				h.pool.markDirty(rid.Page, p)
				return rid, nil
			}
		}
	}
	if err := h.del(rid); err != nil {
		return RID{}, fmt.Errorf("rdbms: update of %v: %w", rid, err)
	}
	newRID, err := h.insertPayload(payload)
	if err != nil {
		return RID{}, err
	}
	h.tuples++
	return newRID, nil
}

// scan calls fn for every live tuple in page order, skipping continuation
// chunks. Returning false stops the scan. An unreadable page, a broken chunk
// chain or a tuple that does not decode ends it with an error: a caller that
// rebuilds state from the heap must not take a partial scan for the whole.
func (h *heapFile) scan(fn func(RID, Row) bool) error {
	for _, id := range h.pages {
		p, err := h.pool.fetch(id)
		if err != nil {
			return pageReadErr("heap page", id, err)
		}
		n := p.slotCount()
		for s := 0; s < n; s++ {
			buf := p.read(uint16(s))
			if len(buf) == 0 || buf[0] == tupMid {
				continue
			}
			rid := RID{Page: id, Slot: uint16(s)}
			payload, err := h.payload(buf)
			var row Row
			if err == nil {
				row, err = decodeRow(payload, nil)
			}
			if err != nil {
				return fmt.Errorf("rdbms: tuple %v: %w", rid, err)
			}
			if !fn(rid, row) {
				return nil
			}
		}
	}
	return nil
}

// storageBytes returns the heap's on-disk footprint: full pages, matching
// how PostgreSQL storage is measured in the paper (relation size, not live
// tuple bytes).
func (h *heapFile) storageBytes() int64 {
	return int64(len(h.pages)) * PageSize
}

// liveBytes returns bytes occupied by live tuples including headers.
func (h *heapFile) liveBytes() int64 {
	var n int64
	for _, id := range h.pages {
		if p, err := h.pool.fetch(id); err == nil {
			n += int64(p.liveBytes())
		}
	}
	return n
}

func (h *heapFile) tupleCount() int { return h.tuples }

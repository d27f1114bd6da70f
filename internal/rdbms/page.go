package rdbms

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the fixed page size, matching PostgreSQL's 8 KiB blocks and
// the paper's per-table constant s1 = 8 KB (a table occupies at least one
// page).
const PageSize = 8192

// TupleHeaderSize emulates the fixed per-tuple overhead of a row store
// (PostgreSQL: 23-byte heap tuple header + padding + 4-byte line pointer,
// which the paper measures as ~50 bytes of per-row overhead including
// alignment and the item identifier). Every stored tuple pays this in
// addition to its encoded payload.
const TupleHeaderSize = 46

// slotSize is the line-pointer size in the slot directory.
const slotSize = 4

// pageHeaderSize: [0:2] slot count, [2:4] free-space upper bound.
const pageHeaderSize = 8

// PageID identifies a page within a pager.
type PageID uint32

// RID is a tuple identifier: page plus slot. It is the "tuple pointer"
// stored in positional-mapping leaves.
type RID struct {
	Page PageID
	Slot uint16
}

// String renders the RID for diagnostics.
func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }

// page is a slotted page. Layout:
//
//	header | slot directory (grows down the low addresses) | free | tuples (grow from the end)
//
// Each slot holds the tuple's offset and length (uint16 each). A slot with
// length 0 is a tombstone; its number is not reused so RIDs stay stable.
type page struct {
	buf [PageSize]byte
}

func (p *page) slotCount() int     { return int(binary.LittleEndian.Uint16(p.buf[0:2])) }
func (p *page) setSlotCount(n int) { binary.LittleEndian.PutUint16(p.buf[0:2], uint16(n)) }
func (p *page) upper() int         { return int(binary.LittleEndian.Uint16(p.buf[2:4])) }
func (p *page) setUpper(u int)     { binary.LittleEndian.PutUint16(p.buf[2:4], uint16(u)) }
func (p *page) slotPos(i int) int  { return pageHeaderSize + i*slotSize }
func (p *page) slotOff(i int) int  { return int(binary.LittleEndian.Uint16(p.buf[p.slotPos(i):])) }
func (p *page) slotLen(i int) int  { return int(binary.LittleEndian.Uint16(p.buf[p.slotPos(i)+2:])) }
func (p *page) setSlot(i, off, length int) {
	binary.LittleEndian.PutUint16(p.buf[p.slotPos(i):], uint16(off))
	binary.LittleEndian.PutUint16(p.buf[p.slotPos(i)+2:], uint16(length))
}

func (p *page) init() { p.setSlotCount(0); p.setUpper(PageSize) }

// freeSpace returns the bytes available for one more tuple (including its
// slot and header).
func (p *page) freeSpace() int {
	return p.upper() - (pageHeaderSize + p.slotCount()*slotSize)
}

// canFit reports whether a payload of n bytes (plus header and slot) fits.
func (p *page) canFit(n int) bool {
	return p.freeSpace() >= n+TupleHeaderSize+slotSize
}

// potentialFree returns the space that would be available after compaction.
func (p *page) potentialFree() int {
	return PageSize - pageHeaderSize - p.slotCount()*slotSize - p.liveBytes()
}

// compact rewrites live tuples to the end of the page, reclaiming space of
// tombstoned tuples. Slot numbers (and hence RIDs) are preserved.
func (p *page) compact() {
	var tmp [PageSize]byte
	upper := PageSize
	for i := 0; i < p.slotCount(); i++ {
		length := p.slotLen(i)
		if length == 0 {
			continue
		}
		off := p.slotOff(i)
		upper -= length
		copy(tmp[upper:], p.buf[off:off+length])
		p.setSlot(i, upper, length)
	}
	copy(p.buf[upper:], tmp[upper:])
	p.setUpper(upper)
}

// insert stores the payload and returns the slot number.
func (p *page) insert(payload []byte) (uint16, bool) {
	need := len(payload) + TupleHeaderSize
	if need > PageSize {
		return 0, false
	}
	if !p.canFit(len(payload)) {
		if p.potentialFree() < need+slotSize {
			return 0, false
		}
		p.compact()
	}
	upper := p.upper() - need
	// The header bytes are left zeroed (they emulate visibility metadata).
	copy(p.buf[upper+TupleHeaderSize:], payload)
	slot := p.slotCount()
	p.setSlot(slot, upper, need)
	p.setSlotCount(slot + 1)
	p.setUpper(upper)
	return uint16(slot), true
}

// read returns the payload of the slot, or nil when tombstoned/absent.
func (p *page) read(slot uint16) []byte {
	i := int(slot)
	if i >= p.slotCount() {
		return nil
	}
	length := p.slotLen(i)
	if length == 0 {
		return nil
	}
	off := p.slotOff(i)
	return p.buf[off+TupleHeaderSize : off+length]
}

// del tombstones the slot. Space is reclaimed by compact.
func (p *page) del(slot uint16) bool {
	i := int(slot)
	if i >= p.slotCount() || p.slotLen(i) == 0 {
		return false
	}
	p.setSlot(i, 0, 0)
	return true
}

// replace rewrites the slot's tuple under the same slot number: over the old
// bytes when it is no longer than they are, else elsewhere on the page
// (compacting first if it must) when the page's reclaimable space plus the
// old tuple covers it. A row that grows keeps its RID as long as its page
// has the room.
func (p *page) replace(slot uint16, payload []byte) bool {
	i := int(slot)
	if i >= p.slotCount() || p.slotLen(i) == 0 {
		return false
	}
	off, old, need := p.slotOff(i), p.slotLen(i), len(payload)+TupleHeaderSize
	if need > old {
		if p.potentialFree()+old < need {
			return false
		}
		p.setSlot(i, 0, 0)
		if p.freeSpace() < need {
			p.compact()
		}
		off = p.upper() - need
		p.setUpper(off)
	}
	copy(p.buf[off+TupleHeaderSize:], payload)
	// A shorter tuple records its own length so liveBytes stays accurate.
	p.setSlot(i, off, need)
	return true
}

// liveBytes returns bytes used by live tuples including headers.
func (p *page) liveBytes() int {
	n := 0
	for i := 0; i < p.slotCount(); i++ {
		n += p.slotLen(i)
	}
	return n
}

// liveTuples returns the number of live tuples.
func (p *page) liveTuples() int {
	n := 0
	for i := 0; i < p.slotCount(); i++ {
		if p.slotLen(i) > 0 {
			n++
		}
	}
	return n
}

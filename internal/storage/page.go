package storage

import (
	"encoding/binary"
	"fmt"
)

// Slotted page layout
//
//	offset 0: next PageID  (4 bytes) — heap file chain
//	offset 4: numSlots     (2 bytes)
//	offset 6: freeEnd      (2 bytes) — records grow down from here
//	offset 8: slot array, 4 bytes per slot: offset(2) length(2)
//	...free space...
//	records packed at the end of the page
//
// A slot with offset == tombstoneOffset is deleted. A slot with length
// == largeLength holds a largeStubSize-byte stub pointing at an
// overflow-page chain (see heapfile.go).

const (
	pageHeaderSize  = 8
	slotSize        = 4
	tombstoneOffset = 0xFFFF
	largeLength     = 0xFFFF
	largeStubSize   = 8 // firstOverflowPage(4) + totalLen(4)
)

// MaxInlineRecord is the largest record storable without overflow pages.
const MaxInlineRecord = PageSize - pageHeaderSize - slotSize

// Page wraps a PageSize byte buffer with slotted-record accessors.
// It does not own the buffer; the buffer pool does. A Page taken from
// a PinnedPage tells the pin which bytes each mutator changed, which is
// what lets the pool log a change instead of the page; every method
// that writes buf must mark what it wrote.
type Page struct {
	buf []byte
	pin *PinnedPage // nil for a bare buffer (AsPage)
}

// mark notes that bytes [off, off+n) of the page changed.
func (p *Page) mark(off, n int) {
	if p.pin != nil {
		p.pin.mark(off, n)
	}
}

// AsPage interprets buf as a slotted page. buf must be PageSize long.
func AsPage(buf []byte) *Page {
	if len(buf) != PageSize {
		panic(fmt.Sprintf("storage: AsPage on %d-byte buffer", len(buf)))
	}
	return &Page{buf: buf}
}

// Init formats the buffer as an empty slotted page.
func (p *Page) Init() {
	binary.LittleEndian.PutUint32(p.buf[0:], uint32(InvalidPageID))
	binary.LittleEndian.PutUint16(p.buf[4:], 0)
	binary.LittleEndian.PutUint16(p.buf[6:], PageSize)
	p.mark(0, pageHeaderSize)
}

// Next returns the next page in the heap-file chain. A zero link reads
// as end-of-chain: page 0 is the meta page and can never be a chain
// successor, and an all-zero page is the legitimate on-disk state of a
// page that was allocated but never written before a crash (recovery
// heals torn extensions to zeroed frames).
func (p *Page) Next() PageID {
	next := PageID(binary.LittleEndian.Uint32(p.buf[0:]))
	if next == 0 {
		return InvalidPageID
	}
	return next
}

// SetNext links the page to the next page in the chain.
func (p *Page) SetNext(id PageID) {
	binary.LittleEndian.PutUint32(p.buf[0:], uint32(id))
	p.mark(0, 4)
}

// NumSlots returns the number of slots ever allocated on the page
// (including tombstones).
func (p *Page) NumSlots() int {
	return int(binary.LittleEndian.Uint16(p.buf[4:]))
}

func (p *Page) setNumSlots(n int) {
	binary.LittleEndian.PutUint16(p.buf[4:], uint16(n))
}

func (p *Page) freeEnd() int {
	return int(binary.LittleEndian.Uint16(p.buf[6:]))
}

func (p *Page) setFreeEnd(n int) {
	binary.LittleEndian.PutUint16(p.buf[6:], uint16(n))
}

func (p *Page) slot(i int) (offset, length int) {
	base := pageHeaderSize + i*slotSize
	return int(binary.LittleEndian.Uint16(p.buf[base:])),
		int(binary.LittleEndian.Uint16(p.buf[base+2:]))
}

func (p *Page) setSlot(i, offset, length int) {
	base := pageHeaderSize + i*slotSize
	binary.LittleEndian.PutUint16(p.buf[base:], uint16(offset))
	binary.LittleEndian.PutUint16(p.buf[base+2:], uint16(length))
	p.mark(base, slotSize)
}

// appendSlot publishes a record already written at [start, start+n)
// as the page's next slot, with the given slot length.
func (p *Page) appendSlot(start, n, length int) int {
	slotNum := p.NumSlots()
	p.mark(start, n)
	p.setSlot(slotNum, start, length)
	p.setNumSlots(slotNum + 1)
	p.setFreeEnd(start)
	p.mark(4, 4) // numSlots + freeEnd
	return slotNum
}

// FreeSpace returns the bytes available for a new record plus its slot.
func (p *Page) FreeSpace() int {
	slotArrayEnd := pageHeaderSize + p.NumSlots()*slotSize
	free := p.freeEnd() - slotArrayEnd
	if free < 0 {
		return 0
	}
	return free
}

// CanFit reports whether a record of n bytes fits on the page.
func (p *Page) CanFit(n int) bool {
	return p.FreeSpace() >= n+slotSize
}

// Insert stores rec on the page and returns its slot number.
func (p *Page) Insert(rec []byte) (int, error) {
	if len(rec) >= largeLength {
		return 0, fmt.Errorf("storage: record of %d bytes exceeds the inline limit", len(rec))
	}
	if !p.CanFit(len(rec)) {
		return 0, fmt.Errorf("storage: page full (%d bytes free, need %d)", p.FreeSpace(), len(rec)+slotSize)
	}
	end := p.freeEnd()
	start := end - len(rec)
	copy(p.buf[start:end], rec)
	return p.appendSlot(start, len(rec), len(rec)), nil
}

// insertLargeStub stores an overflow stub for a large record and marks
// the slot with the large-record length sentinel.
func (p *Page) insertLargeStub(first PageID, totalLen uint32) (int, error) {
	if !p.CanFit(largeStubSize) {
		return 0, fmt.Errorf("storage: page full for large-record stub")
	}
	end := p.freeEnd()
	start := end - largeStubSize
	binary.LittleEndian.PutUint32(p.buf[start:], uint32(first))
	binary.LittleEndian.PutUint32(p.buf[start+4:], totalLen)
	return p.appendSlot(start, largeStubSize, largeLength), nil
}

// Record returns the record bytes at slot i (aliasing the page buffer),
// or (nil, false) if the slot is a tombstone. Large records return
// isLarge = true and the stub contents.
func (p *Page) Record(i int) (rec []byte, isLarge bool, first PageID, totalLen uint32, ok bool) {
	if i < 0 || i >= p.NumSlots() {
		return nil, false, InvalidPageID, 0, false
	}
	off, length := p.slot(i)
	return p.recordAt(off, length)
}

// recordAt resolves a slot entry (offset, length) to its record, as
// Record does.
func (p *Page) recordAt(off, length int) (rec []byte, isLarge bool, first PageID, totalLen uint32, ok bool) {
	if off == tombstoneOffset {
		return nil, false, InvalidPageID, 0, false
	}
	if length == largeLength {
		first = PageID(binary.LittleEndian.Uint32(p.buf[off:]))
		totalLen = binary.LittleEndian.Uint32(p.buf[off+4:])
		return nil, true, first, totalLen, true
	}
	return p.buf[off : off+length], false, InvalidPageID, 0, true
}

// Delete tombstones slot i. It reports whether a live record was
// deleted, and returns overflow-chain information for large records so
// the caller can free the chain. Deleted space is not compacted; the
// paper's workloads are append-only, and compaction is left to a
// rebuild.
func (p *Page) Delete(i int) (wasLarge bool, first PageID, ok bool) {
	if i < 0 || i >= p.NumSlots() {
		return false, InvalidPageID, false
	}
	off, length := p.slot(i)
	if off == tombstoneOffset {
		return false, InvalidPageID, false
	}
	if length == largeLength {
		first = PageID(binary.LittleEndian.Uint32(p.buf[off:]))
		wasLarge = true
	}
	p.setSlot(i, tombstoneOffset, 0)
	return wasLarge, first, true
}

package storage

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
)

// RID identifies a record: the page that holds it and its slot number.
type RID struct {
	Page PageID
	Slot uint16
}

// String renders the RID as "page.slot".
func (r RID) String() string { return fmt.Sprintf("%d.%d", r.Page, r.Slot) }

// Overflow page layout (for records larger than MaxInlineRecord):
//
//	offset 0: next PageID (4 bytes)
//	offset 4: used        (2 bytes)
//	offset 6: payload
const (
	overflowHeaderSize = 6
	overflowCapacity   = PageSize - overflowHeaderSize
)

// HeapFile is an unordered collection of records stored in a chain of
// slotted pages. Records larger than MaxInlineRecord spill into
// overflow-page chains, which keeps the paper's 10,000-byte ByteArray
// tuples storable on 8 KiB pages.
type HeapFile struct {
	pool  *BufferPool
	disk  *DiskManager
	first PageID

	// mu serializes mutators: each holds it from finding its page to
	// unpinning it, so two sessions inserting into one table cannot both
	// see room for one slot, or chain two new pages after the same one.
	mu   sync.Mutex
	last PageID // cached hint for fast appends; revalidated on use
}

// CreateHeapFile allocates a new, empty heap file and returns it. The
// returned FirstPage must be recorded (e.g. in the catalog) to reopen
// the file later.
func CreateHeapFile(disk *DiskManager, pool *BufferPool) (*HeapFile, error) {
	pp, err := pool.Allocate()
	if err != nil {
		return nil, fmt.Errorf("storage: create heap file: %w", err)
	}
	first := pp.ID()
	pp.Unpin(true)
	return &HeapFile{pool: pool, disk: disk, first: first, last: first}, nil
}

// OpenHeapFile reopens a heap file by its first page.
func OpenHeapFile(disk *DiskManager, pool *BufferPool, first PageID) *HeapFile {
	return &HeapFile{pool: pool, disk: disk, first: first, last: first}
}

// FirstPage returns the head of the page chain (the file's identity).
func (h *HeapFile) FirstPage() PageID { return h.first }

// Insert stores rec and returns its RID. rec is copied.
func (h *HeapFile) Insert(rec []byte) (RID, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(rec) > MaxInlineRecord {
		return h.insertLarge(rec)
	}
	pp, err := h.lastPageWithRoom(len(rec) + slotSize)
	if err != nil {
		return RID{}, err
	}
	slot, err := pp.Page().Insert(rec)
	if err != nil {
		pp.Unpin(false)
		return RID{}, err
	}
	rid := RID{Page: pp.ID(), Slot: uint16(slot)}
	pp.Unpin(true)
	return rid, nil
}

func (h *HeapFile) insertLarge(rec []byte) (RID, error) {
	// Write the overflow chain first, then the stub.
	var first, prev PageID = InvalidPageID, InvalidPageID
	for off := 0; off < len(rec); {
		pp, err := h.pool.Allocate()
		if err != nil {
			return RID{}, fmt.Errorf("storage: allocate overflow page: %w", err)
		}
		buf := pp.Data()
		binary.LittleEndian.PutUint32(buf[0:], uint32(InvalidPageID))
		n := len(rec) - off
		if n > overflowCapacity {
			n = overflowCapacity
		}
		binary.LittleEndian.PutUint16(buf[4:], uint16(n))
		copy(buf[overflowHeaderSize:], rec[off:off+n])
		id := pp.ID()
		pp.Unpin(true)
		if first == InvalidPageID {
			first = id
		} else {
			// Link the previous overflow page to this one.
			prevPP, err := h.pool.Fetch(prev)
			if err != nil {
				return RID{}, err
			}
			prevPP.Page().SetNext(id) // same offset on both page kinds
			prevPP.Unpin(true)
		}
		prev = id
		off += n
	}
	pp, err := h.lastPageWithRoom(largeStubSize + slotSize)
	if err != nil {
		return RID{}, err
	}
	slot, err := pp.Page().insertLargeStub(first, uint32(len(rec)))
	if err != nil {
		pp.Unpin(false)
		return RID{}, err
	}
	rid := RID{Page: pp.ID(), Slot: uint16(slot)}
	pp.Unpin(true)
	return rid, nil
}

// lastPageWithRoom returns a pinned page with at least need bytes free,
// appending a new page to the chain if necessary. Called with h.mu held.
func (h *HeapFile) lastPageWithRoom(need int) (*PinnedPage, error) {
	// Start from the cached last-page hint and walk forward.
	id := h.last
	if id == InvalidPageID {
		id = h.first
	}
	for {
		pp, err := h.pool.Fetch(id)
		if err != nil {
			return nil, err
		}
		pg := pp.Page()
		next := pg.Next()
		if next == InvalidPageID {
			h.last = id
			if pg.FreeSpace() >= need {
				return pp, nil
			}
			// Chain a new page.
			newPP, err := h.pool.Allocate()
			if err != nil {
				pp.Unpin(false)
				return nil, err
			}
			pg.SetNext(newPP.ID())
			pp.Unpin(true)
			h.last = newPP.ID()
			return newPP, nil
		}
		pp.Unpin(false)
		id = next
	}
}

// Get returns a copy of the record at rid, or ok=false if the record
// was deleted or never existed.
func (h *HeapFile) Get(rid RID) ([]byte, bool, error) {
	pp, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return nil, false, err
	}
	defer pp.Unpin(false)
	rec, isLarge, first, totalLen, ok := pp.Page().Record(int(rid.Slot))
	if !ok {
		return nil, false, nil
	}
	if !isLarge {
		out := make([]byte, len(rec))
		copy(out, rec)
		return out, true, nil
	}
	out, err := h.readOverflow(nil, first, totalLen)
	if err != nil {
		return nil, false, err
	}
	return out, true, nil
}

// readOverflow appends the totalLen-byte record stored in the overflow
// chain that starts at first to dst.
func (h *HeapFile) readOverflow(dst []byte, first PageID, totalLen uint32) ([]byte, error) {
	out := slices.Grow(dst, int(totalLen))
	id := first
	for id != InvalidPageID {
		pp, err := h.pool.Fetch(id)
		if err != nil {
			return nil, err
		}
		buf := pp.Data()
		next := PageID(binary.LittleEndian.Uint32(buf[0:]))
		used := int(binary.LittleEndian.Uint16(buf[4:]))
		if used > overflowCapacity {
			pp.Unpin(false)
			return nil, fmt.Errorf("storage: corrupt overflow page %d (used=%d)", id, used)
		}
		out = append(out, buf[overflowHeaderSize:overflowHeaderSize+used]...)
		pp.Unpin(false)
		id = next
	}
	if n := len(out) - len(dst); n != int(totalLen) {
		return nil, fmt.Errorf("storage: overflow chain yielded %d bytes, want %d", n, totalLen)
	}
	return out, nil
}

// Delete removes the record at rid, freeing any overflow chain. It
// reports whether a live record was deleted.
func (h *HeapFile) Delete(rid RID) (bool, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	pp, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return false, err
	}
	wasLarge, first, ok := pp.Page().Delete(int(rid.Slot))
	pp.Unpin(ok)
	if !ok {
		return false, nil
	}
	if wasLarge {
		if err := h.freeOverflow(first); err != nil {
			return true, err
		}
	}
	return true, nil
}

func (h *HeapFile) freeOverflow(first PageID) error {
	id := first
	for id != InvalidPageID {
		pp, err := h.pool.Fetch(id)
		if err != nil {
			return err
		}
		next := PageID(binary.LittleEndian.Uint32(pp.Data()[0:]))
		pp.Unpin(false)
		h.pool.Drop(id)
		if err := h.disk.Free(id); err != nil {
			return err
		}
		id = next
	}
	return nil
}

// Destroy frees every page of the heap file, including overflow chains.
// The heap file must not be used afterwards.
func (h *HeapFile) Destroy() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	id := h.first
	for id != InvalidPageID {
		pp, err := h.pool.Fetch(id)
		if err != nil {
			return err
		}
		pg := pp.Page()
		next := pg.Next()
		// Free overflow chains of live large records on this page.
		for slot := 0; slot < pg.NumSlots(); slot++ {
			_, isLarge, first, _, ok := pg.Record(slot)
			if ok && isLarge {
				if err := h.freeOverflow(first); err != nil {
					pp.Unpin(false)
					return err
				}
			}
		}
		pp.Unpin(false)
		h.pool.Drop(id)
		if err := h.disk.Free(id); err != nil {
			return err
		}
		id = next
	}
	h.first = InvalidPageID
	h.last = InvalidPageID
	return nil
}

// HeapStats summarizes a heap file's size for planner estimates.
type HeapStats struct {
	// Pages is the number of primary (non-overflow) pages in the chain.
	Pages int
	// Records is the number of live records.
	Records int64
}

// Stats walks the page chain and counts pages and live records. It is
// O(pages) and intended for EXPLAIN-time estimation, not per-row use.
func (h *HeapFile) Stats() (HeapStats, error) {
	var st HeapStats
	id := h.first
	for id != InvalidPageID {
		pp, err := h.pool.Fetch(id)
		if err != nil {
			return st, err
		}
		pg := pp.Page()
		st.Pages++
		h.mu.Lock() // against an Insert into this page
		for slot := 0; slot < pg.NumSlots(); slot++ {
			if _, _, _, _, ok := pg.Record(slot); ok {
				st.Records++
			}
		}
		next := pg.Next()
		h.mu.Unlock()
		pp.Unpin(false)
		id = next
	}
	return st, nil
}

// Scan returns an iterator over all live records in the file. A caller
// that can stop before the end must Close it.
func (h *HeapFile) Scan() *Scanner {
	return &Scanner{hf: h, page: h.first}
}

// Scanner iterates a heap file page by page, slot by slot. It holds at
// most one pin: it fetches a page once and reads every slot from the
// pinned frame, and it releases the pin when it moves to the next
// page, at the end of the file, on an error and at Close.
//
// A scanner reads a page's slot array and chain link once, under the
// heap file's mutex, so a concurrent Insert into the same page is
// ordered before or after the scan of it, never in the middle. The
// record bytes behind those slots it then reads without the mutex:
// a record is written before its slot is published and never moves
// (there is no compaction; Delete only tombstones the slot).
//
// Next allocates nothing. It leaves a view of the current record,
// which points into the pinned frame (or, for a record stored in
// overflow pages, into a buffer the scanner reuses) and is valid until
// the next Next or Close. The view is never handed out: AppendRecord
// and Record copy it, so no caller can write into a buffer-pool page.
type Scanner struct {
	hf    *HeapFile
	page  PageID
	pp    PinnedPage // the pin on page; pp.frame is nil between pages
	slots []byte     // page's slot array, copied under hf.mu
	next  PageID     // page's chain link, copied with slots
	slot  int
	err   error

	rid   RID
	rec   []byte // view of the current record
	large []byte // the last overflow record, reassembled
}

// Next advances to the next live record. It returns false at the end
// of the file or on error (check Err).
func (s *Scanner) Next() bool {
	for s.page != InvalidPageID {
		if s.pp.frame == nil {
			if err := s.pin(); err != nil {
				return s.fail(err)
			}
		}
		pg := s.pp.Page()
		for s.slot*slotSize < len(s.slots) {
			e := s.slots[s.slot*slotSize:]
			rec, isLarge, first, totalLen, ok := pg.recordAt(
				int(binary.LittleEndian.Uint16(e)), int(binary.LittleEndian.Uint16(e[2:])))
			s.slot++
			if !ok {
				continue
			}
			s.rid = RID{Page: s.page, Slot: uint16(s.slot - 1)}
			if isLarge {
				// The overflow chain needs frames of its own; the next
				// record fetches this page again.
				s.unpin()
				out, err := s.hf.readOverflow(s.large[:0], first, totalLen)
				if err != nil {
					return s.fail(err)
				}
				s.large = out
				s.rec = out
				return true
			}
			s.rec = rec
			return true
		}
		next := s.next
		s.unpin()
		s.page = next
		s.slot = 0
	}
	return false
}

// pin fetches the scanner's page and snapshots its slot array and
// chain link under the heap file's mutex.
func (s *Scanner) pin() error {
	if err := s.hf.pool.fetchInto(&s.pp, s.page); err != nil {
		return err
	}
	pg := s.pp.Page()
	s.hf.mu.Lock()
	n := pg.NumSlots()
	end := pageHeaderSize + n*slotSize
	if end <= PageSize {
		s.slots = append(s.slots[:0], pg.buf[pageHeaderSize:end]...)
		s.next = pg.Next()
	}
	s.hf.mu.Unlock()
	if end > PageSize {
		return fmt.Errorf("storage: corrupt page %d (%d slots)", s.page, n)
	}
	return nil
}

// Close ends the scan and releases its pin. It may be called more than
// once, and after Next has returned false.
func (s *Scanner) Close() {
	s.unpin()
	s.page = InvalidPageID
}

func (s *Scanner) unpin() {
	if s.pp.frame != nil {
		s.pp.Unpin(false)
	}
	s.rec = nil
}

func (s *Scanner) fail(err error) bool {
	s.err = err
	s.Close()
	return false
}

// AppendRecord appends the current record to dst and returns the
// extended slice. The bytes are the caller's: a scan that reuses dst
// for every record copies each record exactly once.
func (s *Scanner) AppendRecord(dst []byte) []byte { return append(dst, s.rec...) }

// Record returns a copy of the current record that the caller owns.
func (s *Scanner) Record() []byte { return s.AppendRecord(make([]byte, 0, len(s.rec))) }

// RID returns the current record's RID.
func (s *Scanner) RID() RID { return s.rid }

// Err returns the first error encountered during the scan, if any.
func (s *Scanner) Err() error { return s.err }

package storage

import (
	"fmt"
	"sync"

	"predator/internal/obs"
)

// Process-wide buffer-pool metrics (all pools report into them; the
// per-pool Stats() snapshot remains for per-engine views).
var (
	obsPoolHits      = obs.Default.Counter("predator_storage_bufferpool_hits_total")
	obsPoolMisses    = obs.Default.Counter("predator_storage_bufferpool_misses_total")
	obsPoolEvictions = obs.Default.Counter("predator_storage_bufferpool_evictions_total")
)

// BufferPool caches pages in memory with LRU replacement and pin
// counting. All page access in the engine goes through the pool; the
// Fig. 4 calibration measures exactly this path.
//
// The pool enforces the WAL-before-data ordering for pages it caches:
// a dirty page's change is appended to the log when its writer
// releases the pin, even if a scan still holds the page pinned (and
// again before eviction or FlushAll if it was re-dirtied), so no dirty
// page can reach the data file ahead of its log record, and a
// statement-boundary Commit captures every page the statement touched
// even if it is still only in memory.
//
// An evicted frame is reused, zeroed, for the next miss or Allocate,
// so a scan over a table larger than the pool allocates no pages. Only
// an eviction victim is reused: it is unpinned, so no holder can see
// the reuse, while a frame detached under a pin (Drop, a reused page
// ID) is left to its holders.
//
// What is appended is decided per unpin, with no option: the byte
// ranges the pin's holder marked (Page.Insert/Delete/SetNext/Init mark
// what they write), as a delta, when the frame has a base — its full
// image or its allocation record is in the live log generation — and
// every change since was marked; otherwise the whole page, which gives
// the frame its base. A holder that wrote through Data(), or marked
// nothing, gets the image: forgetting to mark is slow, never wrong. A
// frame loses its base with the frame (eviction) or with the
// generation (checkpoint, RebuildWAL), so every delta chain in a
// generation starts with an image. Marks are offsets, not copies: a
// frame costs no more memory than its page.
type BufferPool struct {
	mu       sync.Mutex
	disk     *DiskManager
	capacity int
	frames   map[PageID]*frame
	lru      lruList // unpinned resident frames

	stats BufferStats
}

// BufferStats reports cache behaviour.
type BufferStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

type frame struct {
	id      PageID
	buf     [PageSize]byte
	pins    int
	dirty   bool
	logged  bool // dirty contents are already in the WAL
	dropped bool // detached from the pool; discard at unpin

	// The frame's links in the pool's LRU list, which holds it iff it
	// is unpinned and resident.
	prev, next *frame
	inLRU      bool

	// What the next log record of this frame must carry.
	base    uint64      // log generation holding the page's image; 0 = none
	pending []pageRange // marked changes since the last record
	full    bool        // unmarked changes since the last record: log the image
}

// Marks a pin or a frame collects before giving up and logging the
// whole page. An insert into a fresh page makes four.
const (
	maxPinMarks     = 6
	maxPendingMarks = 64
)

// PinnedPage is a handle to a pinned buffer frame. Callers must call
// Unpin exactly once; Data is invalid afterwards.
type PinnedPage struct {
	pool  *BufferPool
	frame *frame

	// The byte ranges this holder changed through Page(); raw means it
	// may have changed any (Data() was handed out, or marks overflowed).
	marks  [maxPinMarks]pageRange
	nmarks int
	raw    bool
}

// ID returns the pinned page's ID.
func (pp *PinnedPage) ID() PageID { return pp.frame.id }

// Data returns the page buffer. Mutating it requires marking the page
// dirty at Unpin time, and is logged as a whole page.
func (pp *PinnedPage) Data() []byte {
	pp.raw = true
	return pp.frame.buf[:]
}

// Page returns a slotted-page view of the buffer whose mutators mark
// what they change, so a dirty Unpin can log just that.
func (pp *PinnedPage) Page() *Page { return &Page{buf: pp.frame.buf[:], pin: pp} }

// mark records that the holder changed bytes [off, off+n).
func (pp *PinnedPage) mark(off, n int) {
	if n == 0 {
		return
	}
	if pp.nmarks == len(pp.marks) {
		pp.raw = true
		return
	}
	pp.marks[pp.nmarks] = pageRange{off: uint16(off), n: uint16(n)}
	pp.nmarks++
}

// Unpin releases the pin. If dirty is true the page will be written
// back before eviction (or at FlushAll).
func (pp *PinnedPage) Unpin(dirty bool) {
	pp.pool.unpin(pp, dirty)
	pp.frame = nil
}

// NewBufferPool creates a pool caching up to capacity pages.
func NewBufferPool(disk *DiskManager, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	return &BufferPool{
		disk:     disk,
		capacity: capacity,
		frames:   make(map[PageID]*frame, capacity),
	}
}

// Fetch pins the page with the given ID, reading it from disk on a miss.
func (bp *BufferPool) Fetch(id PageID) (*PinnedPage, error) {
	pp := new(PinnedPage)
	if err := bp.fetchInto(pp, id); err != nil {
		return nil, err
	}
	return pp, nil
}

// fetchInto is Fetch into a handle the caller provides, so that a scan
// can pin page after page through one handle.
func (bp *BufferPool) fetchInto(pp *PinnedPage, id PageID) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f, ok := bp.frames[id]; ok {
		bp.stats.Hits++
		obsPoolHits.Inc()
		bp.pinLocked(f)
		*pp = PinnedPage{pool: bp, frame: f}
		return nil
	}
	bp.stats.Misses++
	obsPoolMisses.Inc()
	f, err := bp.allocFrameLocked(id)
	if err != nil {
		return err
	}
	if err := bp.disk.Read(id, f.buf[:]); err != nil {
		delete(bp.frames, id)
		return err
	}
	*pp = PinnedPage{pool: bp, frame: f}
	return nil
}

// Allocate creates a brand-new page (formatted as an empty slotted
// page) and returns it pinned.
func (bp *BufferPool) Allocate() (*PinnedPage, error) {
	// Read the generation first: a checkpoint between this and the
	// allocation record only costs the page an image.
	gen := bp.disk.walGeneration()
	id, err := bp.disk.Allocate()
	if err != nil {
		return nil, err
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, err := bp.allocFrameLocked(id)
	if err != nil {
		return nil, err
	}
	f.base = gen // of the allocation record: a zero image, like the new frame
	f.dirty = true
	pp := &PinnedPage{pool: bp, frame: f}
	pp.Page().Init()
	return pp, nil
}

// allocFrameLocked finds a frame for id, evicting if needed, and pins
// it. Any stale resident frame for the same ID (a freed page whose ID
// the disk manager reused) is detached first so the old cached image
// cannot shadow the new page.
func (bp *BufferPool) allocFrameLocked(id PageID) (*frame, error) {
	if old, ok := bp.frames[id]; ok {
		bp.detachLocked(old)
	}
	if len(bp.frames) < bp.capacity {
		f := &frame{id: id, pins: 1}
		bp.frames[id] = f
		return f, nil
	}
	f, err := bp.evictLocked()
	if err != nil {
		return nil, err
	}
	// The victim was unpinned, so nothing references it any more: reuse
	// it, zeroed, since Allocate hands out the all-zero page that its
	// log record describes.
	*f = frame{id: id, pins: 1, pending: f.pending[:0]}
	bp.frames[id] = f
	return f, nil
}

// evictLocked writes back and detaches the least recently used
// unpinned frame, and returns it for reuse.
func (bp *BufferPool) evictLocked() (*frame, error) {
	victim := bp.lru.front
	if victim == nil {
		return nil, fmt.Errorf("storage: buffer pool exhausted (%d pages, all pinned)", bp.capacity)
	}
	if victim.dirty {
		if err := bp.logLocked(victim); err != nil {
			return nil, err
		}
		if err := bp.disk.Write(victim.id, victim.buf[:]); err != nil {
			return nil, err
		}
	}
	bp.detachLocked(victim)
	bp.stats.Evictions++
	obsPoolEvictions.Inc()
	return victim, nil
}

// detachLocked removes a frame from the pool's index and LRU list and
// marks it dropped, so outstanding pins discard it at unpin instead of
// returning it to the LRU.
func (bp *BufferPool) detachLocked(f *frame) {
	bp.lru.remove(f)
	delete(bp.frames, f.id)
	f.dropped = true
}

// logLocked appends the frame's unlogged changes to the WAL, as a
// delta or an image (see DiskManager.logPage), if there are any.
func (bp *BufferPool) logLocked(f *frame) error {
	if f.logged {
		return nil
	}
	ranges := f.pending
	if f.full {
		ranges = nil
	}
	gen, err := bp.disk.logPage(f.id, f.buf[:], ranges, f.base)
	if err != nil {
		return err
	}
	f.markLogged(gen)
	return nil
}

// markLogged records that the log generation gen describes the
// frame's contents in full.
func (f *frame) markLogged(gen uint64) {
	f.logged = true
	f.base = gen
	f.pending = f.pending[:0]
	f.full = false
}

func (bp *BufferPool) pinLocked(f *frame) {
	bp.lru.remove(f)
	f.pins++
}

// lruList is a doubly linked list threaded through the frames
// themselves, so moving a frame in or out of it allocates nothing.
type lruList struct {
	front, back *frame // front = least recently used
}

func (l *lruList) pushBack(f *frame) {
	f.prev, f.next, f.inLRU = l.back, nil, true
	if l.back != nil {
		l.back.next = f
	} else {
		l.front = f
	}
	l.back = f
}

// remove unlinks f if it is in the list.
func (l *lruList) remove(f *frame) {
	if !f.inLRU {
		return
	}
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		l.front = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		l.back = f.prev
	}
	f.prev, f.next, f.inLRU = nil, nil, false
}

func (bp *BufferPool) unpin(pp *PinnedPage, dirty bool) {
	f := pp.frame
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f.pins <= 0 {
		panic(fmt.Sprintf("storage: unpin of unpinned page %d", f.id))
	}
	if dirty {
		f.dirty = true
		f.logged = false
		if pp.raw || pp.nmarks == 0 || len(f.pending)+pp.nmarks > maxPendingMarks {
			f.full = true
		} else if !f.full {
			f.pending = append(f.pending, pp.marks[:pp.nmarks]...)
		}
	}
	f.pins--
	if f.dropped {
		return
	}
	if f.dirty && !f.logged && (dirty || f.pins == 0) {
		// The writer is done with the page, so get its redo record
		// into the log before the statement can be acknowledged, even
		// while a scan still holds the page pinned. On failure the
		// frame stays unlogged; the next unpin, eviction or FlushAll
		// retries and surfaces the error on the write path.
		_ = bp.logLocked(f)
	}
	if f.pins == 0 {
		bp.lru.pushBack(f)
	}
}

// Drop detaches a page from the pool without writing it back, even if
// it is still pinned (outstanding pins discard the frame at unpin).
// Used when the page has been freed on disk, where keeping the stale
// image cached would corrupt a future reuse of the ID.
func (bp *BufferPool) Drop(id PageID) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f, ok := bp.frames[id]; ok {
		bp.detachLocked(f)
	}
}

// FlushAll writes every dirty resident page back to disk, logging
// still-unlogged changes first.
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, f := range bp.frames {
		if f.dirty {
			if err := bp.logLocked(f); err != nil {
				return err
			}
			if err := bp.disk.Write(f.id, f.buf[:]); err != nil {
				return err
			}
			f.dirty = false
		}
	}
	return nil
}

// DirtyImages snapshots the current contents of every dirty resident
// page. The engine's degraded-mode probe feeds these to
// DiskManager.RebuildWAL: a rebuilt log must contain an after-image of
// every page whose newest contents exist only in memory or in the
// poisoned log. Copies are returned (the pool lock is not held across
// the rebuild).
func (bp *BufferPool) DirtyImages() map[PageID][]byte {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	images := make(map[PageID][]byte)
	for _, f := range bp.frames {
		if f.dirty {
			img := make([]byte, PageSize)
			copy(img, f.buf[:])
			images[f.id] = img
		}
	}
	return images
}

// MarkAllLogged records that every dirty page's current image is in
// the (rebuilt) log — its base from here on — so unpin/eviction will
// not re-append images that RebuildWAL already persisted. Call only
// after a successful rebuild that included DirtyImages' snapshot, with
// no writers in between (the engine holds its checkpoint lock
// exclusively across both).
func (bp *BufferPool) MarkAllLogged() {
	gen := bp.disk.walGeneration()
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, f := range bp.frames {
		if f.dirty {
			f.markLogged(gen)
		}
	}
}

// Stats returns a snapshot of hit/miss/eviction counters.
func (bp *BufferPool) Stats() BufferStats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.stats
}

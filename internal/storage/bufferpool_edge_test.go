package storage

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"strings"
	"testing"
)

// TestBufferPoolStaleFrameInvalidatedOnReuse is the free/allocate
// cache-coherence regression test: after a page is freed and its ID
// reused, the pool must not serve the old cached image.
func TestBufferPoolStaleFrameInvalidatedOnReuse(t *testing.T) {
	d := newDisk(t)
	defer d.Close()
	pool := NewBufferPool(d, 8)

	pp, err := pool.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	id := pp.ID()
	copy(pp.Data(), bytes.Repeat([]byte{0xEE}, PageSize))
	pp.Unpin(true)

	// Free as the heap layer does: drop from the pool, then free on disk.
	pool.Drop(id)
	if err := d.Free(id); err != nil {
		t.Fatalf("Free: %v", err)
	}

	// The freed ID is reused; the new page must be freshly initialized,
	// not the 0xEE image.
	pp2, err := pool.Allocate()
	if err != nil {
		t.Fatalf("Allocate (reuse): %v", err)
	}
	defer pp2.Unpin(false)
	if pp2.ID() != id {
		t.Fatalf("free list did not reuse page %d (got %d)", id, pp2.ID())
	}
	if pp2.Data()[100] == 0xEE {
		t.Fatalf("reused page served the stale cached image")
	}
}

// TestBufferPoolDropWhilePinnedDetaches covers the same hazard when a
// pin is still outstanding at Drop time: the frame is detached so the
// next Fetch/Allocate of the ID gets fresh contents, and the stale pin
// discards silently at Unpin.
func TestBufferPoolDropWhilePinnedDetaches(t *testing.T) {
	d := newDisk(t)
	defer d.Close()
	pool := NewBufferPool(d, 8)

	pp, err := pool.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	id := pp.ID()
	copy(pp.Data(), bytes.Repeat([]byte{0xDD}, PageSize))

	pool.Drop(id) // freed while still pinned elsewhere
	if err := d.Free(id); err != nil {
		t.Fatalf("Free: %v", err)
	}

	pp2, err := pool.Allocate()
	if err != nil {
		t.Fatalf("Allocate (reuse): %v", err)
	}
	if pp2.ID() != id {
		t.Fatalf("expected reuse of page %d, got %d", id, pp2.ID())
	}
	if pp2.Data()[0] == 0xDD {
		t.Fatalf("reused page sees the dropped frame's contents")
	}
	pp2.Unpin(true)

	// The stale pin must unpin without resurrecting the old frame or
	// panicking, and must not displace the new frame.
	pp.Unpin(true)
	pp3, err := pool.Fetch(id)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	defer pp3.Unpin(false)
	if pp3.Data()[0] == 0xDD {
		t.Fatalf("stale frame resurfaced after old pin released")
	}
}

// TestBufferPoolEvictionWriteFailure: a dirty victim that cannot be
// written back must fail the fetch and leave the pool consistent.
func TestBufferPoolEvictionWriteFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "evictfail.db")
	d, err := OpenDisk(path)
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	pool := NewBufferPool(d, 1)

	pp, err := pool.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	id1 := pp.ID()
	pp.Unpin(true) // dirty, unpinned: the next miss must evict it
	id2, err := d.Allocate()
	if err != nil {
		t.Fatalf("Allocate id2: %v", err)
	}

	// Make the write-back fail: close the disk manager underneath.
	d.Close()
	if _, err := pool.Fetch(id2); err == nil {
		t.Fatalf("Fetch succeeded though eviction write-back must fail")
	}
	// The dirty victim must still be resident (not silently discarded).
	bp := pool
	bp.mu.Lock()
	_, resident := bp.frames[id1]
	bp.mu.Unlock()
	if !resident {
		t.Fatalf("dirty page %d discarded after failed eviction", id1)
	}
}

// TestBufferPoolExhaustedError: every frame pinned -> a further fetch
// reports pool exhaustion rather than deadlocking or evicting a pin.
func TestBufferPoolExhaustedError(t *testing.T) {
	d := newDisk(t)
	defer d.Close()
	pool := NewBufferPool(d, 2)

	var pins []*PinnedPage
	for i := 0; i < 2; i++ {
		pp, err := pool.Allocate()
		if err != nil {
			t.Fatalf("Allocate %d: %v", i, err)
		}
		pins = append(pins, pp)
	}
	id, err := d.Allocate()
	if err != nil {
		t.Fatalf("disk Allocate: %v", err)
	}
	_, err = pool.Fetch(id)
	if err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("Fetch on full pool: got %v, want exhaustion error", err)
	}
	// Releasing one pin must make the fetch succeed.
	pins[0].Unpin(false)
	pp, err := pool.Fetch(id)
	if err != nil {
		t.Fatalf("Fetch after unpin: %v", err)
	}
	pp.Unpin(false)
	pins[1].Unpin(false)
}

// TestBufferPoolFetchErrorLeavesNoOrphan: a failed read must not leave
// a half-initialized frame in the pool (a later fetch would serve it).
func TestBufferPoolFetchErrorLeavesNoOrphan(t *testing.T) {
	d := newDisk(t)
	defer d.Close()
	pool := NewBufferPool(d, 4)

	// Reads of out-of-range pages fail inside DiskManager.Read.
	if _, err := pool.Fetch(PageID(99)); err == nil {
		t.Fatalf("Fetch of invalid page succeeded")
	}
	pool.mu.Lock()
	_, orphan := pool.frames[PageID(99)]
	lruLen := 0
	for f := pool.lru.front; f != nil; f = f.next {
		lruLen++
	}
	pool.mu.Unlock()
	if orphan {
		t.Fatalf("failed Fetch left an orphaned frame")
	}
	if lruLen != 0 {
		t.Fatalf("failed Fetch left %d LRU entries", lruLen)
	}
}

// TestBufferPoolLogsDirtyPagesAtUnpin: under a durable disk manager,
// releasing the last pin of a dirty page must append exactly one record
// of its change to the WAL — the whole page for a holder that wrote
// through Data(), the marked bytes for one that went through Page() —
// so a statement-boundary Commit makes it recoverable even though the
// page is only in memory.
func TestBufferPoolLogsDirtyPagesAtUnpin(t *testing.T) {
	path := filepath.Join(t.TempDir(), "unpinlog.db")
	d := openDurable(t, path)
	pool := NewBufferPool(d, 8)

	pp, err := pool.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	id := pp.ID()
	want := bytes.Repeat([]byte{0x42}, PageSize)
	copy(pp.Data(), want)
	before := d.WALStats()
	pp.Unpin(true)
	after := d.WALStats()
	if after.Appends != before.Appends+1 || after.ImageRecords != before.ImageRecords+1 {
		t.Fatalf("unpin(dirty) after a raw write appended %d records, %d of them images; want 1 image",
			after.Appends-before.Appends, after.ImageRecords-before.ImageRecords)
	}

	// The image is the page's base: a marked change on top of it is one
	// small delta.
	pp, err = pool.Fetch(id)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	pp.Page().SetNext(7)
	binary.LittleEndian.PutUint32(want[0:], 7)
	before = after
	pp.Unpin(true)
	after = d.WALStats()
	if after.Appends != before.Appends+1 || after.DeltaRecords != before.DeltaRecords+1 || after.Bytes-before.Bytes > 32 {
		t.Fatalf("unpin(dirty) after a marked write appended %d records (%d deltas, %d bytes); want 1 delta of a few bytes",
			after.Appends-before.Appends, after.DeltaRecords-before.DeltaRecords, after.Bytes-before.Bytes)
	}

	if err := d.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	// Crash without ever flushing the pool; image and delta must come back.
	crashDisk(d)
	d2 := openDurable(t, path)
	defer d2.Close()
	got := make([]byte, PageSize)
	if err := d2.Read(id, got); err != nil {
		t.Fatalf("Read after recovery: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("dirty page lost despite unpin-time logging")
	}
}

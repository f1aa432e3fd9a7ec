package storage

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// fillHeap appends records to h until it spans at least pages primary
// pages and returns them in scan order. Record i is its decimal number
// padded to a length that varies with i, so a record read from the
// wrong frame, or from a frame that was not fully overwritten, differs.
func fillHeap(t *testing.T, h *HeapFile, pages int) [][]byte {
	t.Helper()
	var recs [][]byte
	for i := 0; ; i++ {
		if i%16 == 0 {
			st, err := h.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.Pages >= pages {
				return recs
			}
		}
		rec := append([]byte(fmt.Sprintf("%d:", i)), bytes.Repeat([]byte{byte(i)}, 100+i%300)...)
		if _, err := h.Insert(rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
}

// scanAll scans h to the end and compares every record with want.
func scanAll(h *HeapFile, want [][]byte) error {
	sc := h.Scan()
	defer sc.Close()
	n := 0
	for sc.Next() {
		if n >= len(want) {
			return fmt.Errorf("scan yielded more than %d records", len(want))
		}
		if !bytes.Equal(sc.Record(), want[n]) {
			return fmt.Errorf("record %d (%s) differs from what was inserted", n, sc.RID())
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if n != len(want) {
		return fmt.Errorf("scan yielded %d records, want %d", n, len(want))
	}
	return nil
}

// A scan fetches each page once, however many records it holds, and
// Close releases the one pin a scan stopped mid-page holds.
func TestScannerFetchesEachPageOnce(t *testing.T) {
	d, bp := newPool(t, 2)
	h, err := CreateHeapFile(d, bp)
	if err != nil {
		t.Fatal(err)
	}
	want := fillHeap(t, h, 6)
	st, err := h.Stats()
	if err != nil {
		t.Fatal(err)
	}
	before := bp.Stats()
	if err := scanAll(h, want); err != nil {
		t.Fatal(err)
	}
	after := bp.Stats()
	if fetches := after.Hits + after.Misses - before.Hits - before.Misses; fetches != uint64(st.Pages) {
		t.Errorf("scan of %d pages (%d records) made %d fetches, want one per page", st.Pages, len(want), fetches)
	}

	sc := h.Scan()
	if !sc.Next() {
		t.Fatalf("scan: %v", sc.Err())
	}
	sc.Close()
	sc.Close()
	if sc.Next() {
		t.Error("Next after Close yielded a record")
	}
	// Both frames are free again: two pages can be pinned at once.
	a, err := bp.Allocate()
	if err != nil {
		t.Fatalf("after Close: %v", err)
	}
	b, err := bp.Allocate()
	if err != nil {
		t.Fatalf("after Close, a scan still holds a pin: %v", err)
	}
	a.Unpin(false)
	b.Unpin(false)
}

// Concurrent scans of a heap five times the pool's size evict and
// reuse frames under each other; every record must still read back as
// inserted. Each scan holds at most one pin, so a pool of one frame per
// scan is the smallest that cannot run out.
func TestConcurrentScansReuseFrames(t *testing.T) {
	const scans = 4
	d, bp := newPool(t, scans)
	h, err := CreateHeapFile(d, bp)
	if err != nil {
		t.Fatal(err)
	}
	want := fillHeap(t, h, 5*scans)
	errs := make(chan error, scans)
	var wg sync.WaitGroup
	for range scans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				if err := scanAll(h, want); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if bp.Stats().Evictions == 0 {
		t.Error("no frame was evicted, so none was reused")
	}
}

// Allocate reuses the frame of the page it evicts, and must zero it:
// the log records an allocation as an all-zero image, and redo rebuilds
// the page from that.
func TestAllocateReusesEvictedFrameZeroed(t *testing.T) {
	_, bp := newPool(t, 1)
	full, err := bp.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	victim := full.frame
	copy(full.Data(), bytes.Repeat([]byte{0xA5}, PageSize))
	full.Unpin(true)

	pp, err := bp.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	defer pp.Unpin(false)
	if pp.frame != victim {
		t.Fatal("Allocate did not reuse the evicted frame")
	}
	if pg := pp.Page(); pg.NumSlots() != 0 || pg.Next() != InvalidPageID || pg.FreeSpace() != PageSize-pageHeaderSize {
		t.Errorf("new page is not an empty slotted page: %d slots, next %d, %d free", pg.NumSlots(), pg.Next(), pg.FreeSpace())
	}
	for off, b := range pp.Data()[pageHeaderSize:] {
		if b != 0 {
			t.Fatalf("new page's byte %d is %#x, want 0", pageHeaderSize+off, b)
		}
	}
}

// A writer's change reaches the log when the writer unpins, not when a
// concurrent scan that holds the same page lets go of it: the writer's
// statement commits in between, and a crash then must not lose it.
func TestWriterLogsUnderScanPin(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scanpin.db")
	d := openDurable(t, path)
	bp := NewBufferPool(d, 8)
	h, err := CreateHeapFile(d, bp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Insert([]byte("first")); err != nil {
		t.Fatal(err)
	}
	sc := h.Scan()
	if !sc.Next() {
		t.Fatalf("scan: %v", sc.Err())
	}
	before := d.WALStats()
	rid, err := h.Insert([]byte("second")) // same page, pinned by the scan
	if err != nil {
		t.Fatal(err)
	}
	if rid.Page != sc.RID().Page {
		t.Fatalf("insert went to page %d, not the scanned page %d", rid.Page, sc.RID().Page)
	}
	if after := d.WALStats(); after.Appends == before.Appends {
		t.Fatal("the insert was not logged while a scan held its page")
	}
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	crashDisk(d)
	sc.Close()

	d2 := openDurable(t, path)
	defer d2.Close()
	got, ok, err := OpenHeapFile(d2, NewBufferPool(d2, 8), h.FirstPage()).Get(rid)
	if err != nil || !ok || string(got) != "second" {
		t.Fatalf("committed insert after recovery: %q ok=%v err=%v", got, ok, err)
	}
}

// scanRecord is record i of TestScanWhileInserting: its number, a
// colon and a body whose length and bytes follow from the number.
// Every 40th record is larger than a page.
func scanRecord(i int) []byte {
	n := 50 + i%200
	if i%40 == 39 {
		n = 9000
	}
	return append([]byte(fmt.Sprintf("%d:", i)), bytes.Repeat([]byte{byte(i)}, n)...)
}

// A scan that runs while another goroutine inserts into the same heap
// sees each page's slots as of one instant: it reads the slot array
// under the heap file's mutex, and the bytes of a published record
// never change. Every record it yields must read back exactly as it
// was inserted, in insertion order. Under the race detector this also
// shows that no unlatched read of the slot array remains.
func TestScanWhileInserting(t *testing.T) {
	const records = 1500
	d, bp := newPool(t, 8)
	h, err := CreateHeapFile(d, bp)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range records {
			if _, err := h.Insert(scanRecord(i)); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
	}()
	check := func() int {
		sc := h.Scan()
		defer sc.Close()
		n := 0
		var buf []byte
		for sc.Next() {
			buf = sc.AppendRecord(buf[:0])
			if want := scanRecord(n); !bytes.Equal(buf, want) {
				t.Fatalf("record %d (%s) reads %.12q..., want %.12q...", n, sc.RID(), buf, want)
			}
			n++
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return n
	}
	scans, last := 0, 0
	for running := true; running; scans++ {
		select {
		case <-done:
			running = false
		default:
		}
		n := check()
		if n < last {
			t.Fatalf("scan %d saw %d records, an earlier one %d", scans, n, last)
		}
		last = n
	}
	if last != records {
		t.Fatalf("final scan saw %d records, want %d", last, records)
	}
	t.Logf("%d scans while inserting %d records", scans, records)
}

// The pool's LRU list is threaded through the frames: pinning a
// resident page and releasing it allocates nothing but the handle.
func TestFetchHitAllocatesOnlyTheHandle(t *testing.T) {
	_, bp := newPool(t, 4)
	pp, err := bp.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id := pp.ID()
	pp.Unpin(true)
	allocs := testing.AllocsPerRun(100, func() {
		pp, err := bp.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		pp.Unpin(false)
	})
	if allocs > 1 {
		t.Errorf("a hit Fetch and its Unpin make %.1f allocations, want 1 (the PinnedPage)", allocs)
	}
}

// A page whose slot count runs past the page ends the scan with an
// error instead of a slice panic.
func TestScanReportsCorruptSlotCount(t *testing.T) {
	_, bp := newPool(t, 4)
	h, err := CreateHeapFile(bp.disk, bp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Insert([]byte("x")); err != nil {
		t.Fatal(err)
	}
	pp, err := bp.Fetch(h.FirstPage())
	if err != nil {
		t.Fatal(err)
	}
	pp.Page().setNumSlots(PageSize / slotSize)
	pp.Unpin(false)
	sc := h.Scan()
	defer sc.Close()
	if sc.Next() || sc.Err() == nil {
		t.Fatalf("scan of a corrupt page: next record %q, err %v", sc.Record(), sc.Err())
	}
}

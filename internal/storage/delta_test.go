package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// Tests for delta logging: the record format, the buffer pool's
// image-or-delta rule, and the one redo implementation behind crash
// recovery, point-in-time restore and repair.

// encodeWALRecord frames one record into a fresh buffer (ranges as for
// walEncoder.encode), for tests that build logs by hand.
func encodeWALRecord(typ byte, page PageID, payload []byte, ranges ...pageRange) []byte {
	var rec bytes.Buffer
	enc := walEncoder{w: bufio.NewWriter(&rec)}
	if _, err := enc.encode(typ, page, payload, ranges); err != nil {
		panic(err)
	}
	enc.w.Flush()
	return rec.Bytes()
}

// legacyRecord frames a record the way every version before delta
// logging did: header, payload and CRC-32C assembled in one buffer. It
// shares no code with walEncoder on purpose — it is what old logs and
// archive segments on disk look like.
func legacyRecord(typ byte, page PageID, payload []byte) []byte {
	rec := make([]byte, 9+len(payload)+4)
	rec[0] = typ
	binary.LittleEndian.PutUint32(rec[1:], uint32(page))
	binary.LittleEndian.PutUint32(rec[5:], uint32(len(payload)))
	copy(rec[9:], payload)
	crc := crc32.Checksum(rec[:9+len(payload)], crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint32(rec[9+len(payload):], crc)
	return rec
}

func TestEncoderKeepsLegacyFraming(t *testing.T) {
	img := bytes.Repeat([]byte{0x5A}, PageSize)
	meta := []byte{7, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}
	for _, c := range []struct {
		typ     byte
		page    PageID
		payload []byte
	}{{walPageImage, 3, img}, {walMeta, 0, meta}, {walCommit, 0, nil}} {
		if got, want := encodeWALRecord(c.typ, c.page, c.payload), legacyRecord(c.typ, c.page, c.payload); !bytes.Equal(got, want) {
			t.Errorf("type %d: streamed record differs from the legacy framing", c.typ)
		}
	}
	// The two new encodings, byte for byte.
	if got, want := encodeWALRecord(walPageImage, 9, make([]byte, PageSize)), legacyRecord(walPageImage, 9, nil); !bytes.Equal(got, want) {
		t.Errorf("zero image is not header-only")
	}
	page := make([]byte, PageSize)
	copy(page[100:], "abc")
	page[PageSize-1] = 0xEE
	want := legacyRecord(walPageDelta, 4, []byte{100, 0, 3, 0, 'a', 'b', 'c', 0xFF, 0x1F, 1, 0, 0xEE})
	if got := encodeWALRecord(walPageDelta, 4, page, pageRange{100, 3}, pageRange{PageSize - 1, 1}); !bytes.Equal(got, want) {
		t.Errorf("delta encoding = % x\nwant % x", got, want)
	}
}

func TestScanWALRejectsBadDeltas(t *testing.T) {
	good := legacyRecord(walPageDelta, 1, []byte{8, 0, 2, 0, 1, 2})
	for name, payload := range map[string][]byte{
		"empty":            nil,
		"short header":     {8, 0, 2},
		"zero length":      {8, 0, 0, 0},
		"bytes missing":    {8, 0, 2, 0, 1},
		"past page end":    {0xFF, 0x1F, 2, 0, 1, 2},
		"trailing garbage": {8, 0, 2, 0, 1, 2, 9},
	} {
		log := append(append([]byte{}, good...), legacyRecord(walPageDelta, 1, payload)...)
		valid, torn, _ := scanWAL(log, nil)
		if valid != int64(len(good)) || !torn {
			t.Errorf("%s: valid prefix %d torn=%v, want %d true", name, valid, torn, len(good))
		}
	}
	if n := testing.AllocsPerRun(10, func() { scanWAL(good, nil) }); n != 0 {
		t.Errorf("scanWAL allocates %v times per scan", n)
	}
}

// shadowLog mirrors, through DiskManager.logHook, what the log says
// each page holds, and fails the test the moment a delta leaves a
// changed byte out: after every page record the mirror must equal the
// page in memory.
func shadowLog(t *testing.T, d *DiskManager) {
	shadow := make(map[PageID]*[PageSize]byte)
	d.logHook = func(typ byte, id PageID, payload []byte, ranges []pageRange) {
		if typ != walPageImage && typ != walPageDelta {
			return
		}
		sh := shadow[id]
		if sh == nil {
			if typ == walPageDelta {
				t.Errorf("page %d: delta logged before any image", id)
			}
			sh = new([PageSize]byte)
			shadow[id] = sh
		}
		if typ == walPageImage {
			copy(sh[:], payload)
			return
		}
		for _, r := range ranges {
			copy(sh[r.off:int(r.off)+int(r.n)], payload[r.off:])
		}
		for i := range sh {
			if sh[i] != payload[i] {
				t.Errorf("page %d: byte %d changed (%#x -> %#x) but no mark covers it", id, i, sh[i], payload[i])
				copy(sh[:], payload)
				return
			}
		}
	}
}

// memoryPages snapshots every page as the running system sees it: the
// pool's frame when resident, else the data file.
func memoryPages(t *testing.T, d *DiskManager, pool *BufferPool) map[PageID][]byte {
	t.Helper()
	pages := make(map[PageID][]byte)
	for id := PageID(1); uint32(id) < d.NumPages(); id++ {
		buf := make([]byte, PageSize)
		pool.mu.Lock()
		f := pool.frames[id]
		if f != nil {
			copy(buf, f.buf[:])
		}
		pool.mu.Unlock()
		if f == nil {
			if err := d.Read(id, buf); err != nil {
				t.Fatalf("read page %d: %v", id, err)
			}
		}
		pages[id] = buf
	}
	return pages
}

func checkPages(t *testing.T, d *DiskManager, want map[PageID][]byte) {
	t.Helper()
	if got := int(d.NumPages()) - 1; got != len(want) {
		t.Fatalf("%d pages after replay, want %d", got, len(want))
	}
	got := make([]byte, PageSize)
	for id, w := range want {
		if err := d.Read(id, got); err != nil {
			t.Fatalf("read page %d after replay: %v", id, err)
		}
		if !bytes.Equal(got, w) {
			for i := range w {
				if got[i] != w[i] {
					t.Fatalf("page %d differs after replay from byte %d (%#x, want %#x)", id, i, got[i], w[i])
				}
			}
		}
	}
}

// TestDeltaReplayReproducesPages is the property the format stands on:
// whatever sequence of inserts, deletes, large records, page frees,
// checkpoints and evictions ran, replaying the log after a crash
// rebuilds every page byte for byte as memory had it.
func TestDeltaReplayReproducesPages(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			path := filepath.Join(t.TempDir(), "prop.db")
			d := openDurable(t, path)
			shadowLog(t, d)
			pool := NewBufferPool(d, 6) // every scan and most inserts evict
			heaps := make([]*HeapFile, 2)
			for i := range heaps {
				h, err := CreateHeapFile(d, pool)
				if err != nil {
					t.Fatalf("CreateHeapFile: %v", err)
				}
				heaps[i] = h
			}
			live := make([][]RID, len(heaps))
			for op := 0; op < 400; op++ {
				hi := rng.Intn(len(heaps))
				h := heaps[hi]
				switch k := rng.Intn(100); {
				case k < 55: // small or medium insert
					size := 8 + rng.Intn(300)
					if k < 10 {
						size = 1000 + rng.Intn(2500)
					}
					rec := make([]byte, size)
					rng.Read(rec)
					rid, err := h.Insert(rec)
					if err != nil {
						t.Fatalf("op %d insert: %v", op, err)
					}
					live[hi] = append(live[hi], rid)
				case k < 62: // overflow chain
					rec := make([]byte, MaxInlineRecord+1+rng.Intn(2*PageSize))
					rng.Read(rec)
					rid, err := h.Insert(rec)
					if err != nil {
						t.Fatalf("op %d large insert: %v", op, err)
					}
					live[hi] = append(live[hi], rid)
				case k < 85: // delete; a large record frees its chain for reuse
					if len(live[hi]) == 0 {
						continue
					}
					i := rng.Intn(len(live[hi]))
					if ok, err := h.Delete(live[hi][i]); err != nil || !ok {
						t.Fatalf("op %d delete: ok=%v err=%v", op, ok, err)
					}
					live[hi] = append(live[hi][:i], live[hi][i+1:]...)
				case k < 90: // walk the chain: evicts most of the pool
					if _, err := h.Stats(); err != nil {
						t.Fatalf("op %d stats: %v", op, err)
					}
				case k < 95:
					if err := d.Commit(); err != nil {
						t.Fatalf("op %d commit: %v", op, err)
					}
				default: // checkpoint: a new generation, every base gone
					if err := pool.FlushAll(); err != nil {
						t.Fatalf("op %d flush: %v", op, err)
					}
					if err := d.Checkpoint(); err != nil {
						t.Fatalf("op %d checkpoint: %v", op, err)
					}
				}
			}
			// The run may have ended on a checkpoint; leave a chain to replay.
			for i := 0; i < 2; i++ {
				if _, err := heaps[0].Insert([]byte("tail")); err != nil {
					t.Fatalf("tail insert: %v", err)
				}
			}
			if err := d.Commit(); err != nil {
				t.Fatalf("final commit: %v", err)
			}
			st := d.WALStats()
			if st.DeltaRecords == 0 || st.ImageRecords == 0 {
				t.Fatalf("run logged %d images and %d deltas: not exercising both", st.ImageRecords, st.DeltaRecords)
			}
			want := memoryPages(t, d, pool)
			crashDisk(d)

			d2 := openDurable(t, path)
			defer d2.Close()
			if rec := d2.Recovered(); !rec.Ran || rec.Deltas == 0 {
				t.Fatalf("recovery = %+v, want a replay with deltas", rec)
			}
			checkPages(t, d2, want)
			if bad, err := d2.VerifyChecksums(); err != nil || len(bad) != 0 {
				t.Fatalf("checksums after replay: bad=%v err=%v", bad, err)
			}
		})
	}
}

// TestUnpinLogsDeltaOnlyOnABase pins the image-or-delta rule.
func TestUnpinLogsDeltaOnlyOnABase(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rule.db")
	d := openDurable(t, path)
	defer d.Close()
	shadowLog(t, d)
	pool := NewBufferPool(d, 8)
	h, err := CreateHeapFile(d, pool)
	if err != nil {
		t.Fatalf("CreateHeapFile: %v", err)
	}
	step := func(what string, wantImages, wantDeltas uint64, maxBytes uint64, f func()) {
		t.Helper()
		before := d.WALStats()
		f()
		after := d.WALStats()
		images, deltas := after.ImageRecords-before.ImageRecords, after.DeltaRecords-before.DeltaRecords
		if images != wantImages || deltas != wantDeltas {
			t.Fatalf("%s logged %d images + %d deltas, want %d + %d", what, images, deltas, wantImages, wantDeltas)
		}
		if grew := after.Bytes - before.Bytes; grew > maxBytes {
			t.Fatalf("%s logged %d bytes, want at most %d", what, grew, maxBytes)
		}
	}
	rec := bytes.Repeat([]byte{0xAB}, 76)
	insert := func() {
		if _, err := h.Insert(rec); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	// The allocation record is the new page's base.
	step("insert into a fresh page", 0, 1, 200, insert)
	step("second insert", 0, 1, 200, insert)
	// A checkpoint ends the generation and with it every base.
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	step("first insert after a checkpoint", 1, 0, PageSize+64, insert)
	step("insert on the new base", 0, 1, 200, insert)
	// So does eviction: the frame, and what it knew, is gone.
	pool.mu.Lock()
	_, err = pool.evictLocked()
	pool.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	step("insert after eviction", 1, 0, PageSize+64, insert)
	// A raw writer marks nothing and gets the whole page.
	step("unmarked write", 1, 0, PageSize+64, func() {
		pp, err := pool.Fetch(h.FirstPage())
		if err != nil {
			t.Fatal(err)
		}
		pp.Data()[PageSize-1] ^= 0xFF
		pp.Unpin(true)
	})
	// A delta past half a page is not worth its chain.
	big := bytes.Repeat([]byte{0xCD}, maxDeltaPayload)
	h2, err := CreateHeapFile(d, pool)
	if err != nil {
		t.Fatal(err)
	}
	step("half-page insert", 1, 0, PageSize+64, func() {
		if _, err := h2.Insert(big); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRedoSpillsAndResumesChains: a fold larger than its limit writes
// pages out early, and a chain cut that way resumes from the frame it
// wrote.
func TestRedoSpillsAndResumesChains(t *testing.T) {
	page := make([]byte, PageSize)
	var log []byte
	for id := PageID(1); id <= 5; id++ {
		page[0] = byte(id)
		log = append(log, encodeWALRecord(walPageImage, id, page)...)
	}
	for id := PageID(1); id <= 5; id++ {
		page[10] = 0x10 + byte(id)
		log = append(log, encodeWALRecord(walPageDelta, id, page, pageRange{10, 1})...)
	}
	f := &memFile{}
	r := newRedo(f)
	r.limit = 2
	_, torn, err := scanWAL(log, func(rec walRecord) error {
		if err := r.apply(rec, int64(rec.off)); err != nil {
			return err
		}
		if len(r.pages) > r.limit {
			t.Fatalf("fold holds %d pages past its limit %d", len(r.pages), r.limit)
		}
		return nil
	})
	if err != nil || torn {
		t.Fatalf("scan: torn=%v err=%v", torn, err)
	}
	if err := r.flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for id := PageID(1); id <= 5; id++ {
		fr := f.frames[id]
		if fr == nil || !verifyFrame(fr[:]) {
			t.Fatalf("page %d: no valid frame", id)
		}
		if p := fr[frameHeaderSize:]; p[0] != byte(id) || p[10] != 0x10+byte(id) {
			t.Fatalf("page %d = %#x.. %#x, chain not resumed across the spill", id, p[0], p[10])
		}
	}
	// With nothing to resume from, a delta is an error, never a guess.
	if err := newRedo(&memFile{}).apply(walRecord{typ: walPageDelta, page: 9, payload: []byte{0, 0, 1, 0, 1}}, 0); err == nil {
		t.Fatalf("delta with neither image nor frame was applied")
	}
}

// memFile is a sparse in-memory frameFile: a hostile page ID costs one
// map entry, not a file that large.
type memFile struct {
	frames map[PageID]*[DiskFrameSize]byte
}

func (m *memFile) ReadAt(p []byte, off int64) (int, error) {
	fr := m.frames[PageID(off/DiskFrameSize)]
	if fr == nil || off%DiskFrameSize != 0 {
		return 0, io.EOF
	}
	return copy(p, fr[:]), nil
}

func (m *memFile) WriteAt(p []byte, off int64) (int, error) {
	if off%DiskFrameSize != 0 || len(p) != DiskFrameSize {
		return 0, fmt.Errorf("memFile: unaligned write of %d bytes at %d", len(p), off)
	}
	if m.frames == nil {
		m.frames = make(map[PageID]*[DiskFrameSize]byte)
	}
	fr := new([DiskFrameSize]byte)
	copy(fr[:], p)
	m.frames[PageID(off/DiskFrameSize)] = fr
	return len(p), nil
}

// fuzzSeedLogs are well-formed and nearly well-formed logs.
func fuzzSeedLogs() [][]byte {
	page := bytes.Repeat([]byte{0x33}, PageSize)
	whole := bytes.Join([][]byte{
		encodeWALRecord(walPageImage, 1, make([]byte, PageSize)),
		encodeWALRecord(walMeta, 0, []byte{2, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}),
		encodeWALRecord(walPageDelta, 1, page, pageRange{0, 8}, pageRange{8000, 192}),
		encodeWALRecord(walCommit, 0, nil),
		encodeWALRecord(walPageImage, 2, page),
		encodeWALRecord(walPageDelta, 2, page, pageRange{4, 4}),
	}, nil)
	return [][]byte{
		whole,
		whole[:len(whole)-7],
		legacyRecord(walPageDelta, 1, []byte{0xFF, 0x1F, 2, 0, 1, 2}), // range past the page
		legacyRecord(walPageDelta, 0xFFFFFFFE, []byte{0, 0, 1, 0, 1}), // no image, absurd page
		legacyRecord(9, 1, nil),
		{walPageImage, 1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF},
	}
}

// reframe reads fuzz input as a list of (type, page, payload) and
// frames each with a correct CRC, so mutation reaches the checks behind
// the checksum instead of dying at it: input is type(1) page(1) n(1)
// then n payload bytes, repeated; an image with odd n is a whole page.
func reframe(data []byte) []byte {
	var log []byte
	for len(data) >= 3 {
		typ, page, n := data[0]%6, PageID(data[1]%8), int(data[2])
		data = data[3:]
		if n > len(data) {
			n = len(data)
		}
		payload := data[:n]
		data = data[n:]
		if typ == walPageImage && n%2 == 1 {
			payload = bytes.Repeat([]byte{byte(n)}, PageSize)
		}
		log = append(log, legacyRecord(typ, page, payload)...)
	}
	return log
}

// reframeSeeds are fuzz inputs that reframe into an image + delta
// chain, a bare delta, and a delta one byte past the page.
var reframeSeeds = [][]byte{
	{1, 1, 1, 0xAA, 4, 1, 9, 8, 0, 2, 0, 1, 2, 0, 0x10, 1, 0, 7, 3, 0, 0, 2, 0, 8, 2, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF},
	{4, 2, 5, 0, 0, 1, 0, 9},
	{1, 3, 0, 4, 3, 6, 0xFF, 0x1F, 2, 0, 1, 2},
}

// FuzzScanWAL: the log comes off a disk we do not trust. Whatever the
// bytes, the scan must not panic, must hand out only in-bounds,
// well-formed records, and must stop for good at the first bad one.
func FuzzScanWAL(f *testing.F) {
	for _, log := range fuzzSeedLogs() {
		f.Add(log)
	}
	for _, data := range reframeSeeds {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, log := range [][]byte{data, reframe(data)} {
			checkScan(t, log)
		}
	})
}

func checkScan(t *testing.T, log []byte) {
	end := 0
	valid, torn, err := scanWAL(log, func(rec walRecord) error {
		if rec.off != end {
			t.Fatalf("record at %d, previous ended at %d", rec.off, end)
		}
		end = rec.off + walHeaderSize + len(rec.payload) + walTrailerSize
		if end > len(log) {
			t.Fatalf("record [%d,%d) outside a %d-byte log", rec.off, end, len(log))
		}
		if rec.typ == walPageDelta {
			for d := rec.payload; len(d) > 0; {
				off, n := int(binary.LittleEndian.Uint16(d)), int(binary.LittleEndian.Uint16(d[2:]))
				if n == 0 || off+n > PageSize || deltaRangeHdr+n > len(d) {
					t.Fatalf("delta range off=%d n=%d with %d payload bytes left passed validation", off, n, len(d))
				}
				d = d[deltaRangeHdr+n:]
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scan error %v from a callback that returns none", err)
	}
	if valid != int64(end) || valid > int64(len(log)) {
		t.Fatalf("valid prefix %d, records end at %d, log is %d", valid, end, len(log))
	}
	if !torn && valid != int64(len(log)) {
		t.Fatalf("clean scan stopped at %d of %d", valid, len(log))
	}
	if again, tornAgain, _ := scanWAL(log[:valid], nil); again != valid || tornAgain {
		t.Fatalf("valid prefix rescans to %d torn=%v", again, tornAgain)
	}
}

// FuzzRedo feeds whatever scanWAL lets through to redo: no panic, a
// fold never larger than its limit, and applying a log twice leaves
// what applying it once did.
func FuzzRedo(f *testing.F) {
	for _, log := range fuzzSeedLogs() {
		f.Add(log)
	}
	for _, data := range reframeSeeds {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, log := range [][]byte{data, reframe(data)} {
			checkRedo(t, log)
		}
	})
}

func checkRedo(t *testing.T, log []byte) {
	file := &memFile{}
	replay := func() error {
		r := newRedo(file)
		r.limit = 3
		_, _, err := scanWAL(log, func(rec walRecord) error {
			err := r.apply(rec, int64(rec.off))
			if len(r.pages) > r.limit {
				t.Fatalf("fold holds %d pages, limit %d", len(r.pages), r.limit)
			}
			return err
		})
		if err != nil {
			return err
		}
		return r.flush()
	}
	if replay() != nil {
		return // a chain without a base: refused, nothing to compare
	}
	once := make(map[PageID][PageSize]byte, len(file.frames))
	for id, fr := range file.frames {
		if !verifyFrame(fr[:]) {
			t.Fatalf("page %d: redo wrote a frame that does not verify", id)
		}
		once[id] = [PageSize]byte(fr[frameHeaderSize:])
	}
	if err := replay(); err != nil {
		t.Fatalf("second replay of the same log failed: %v", err)
	}
	for id, fr := range file.frames {
		if once[id] != [PageSize]byte(fr[frameHeaderSize:]) {
			t.Fatalf("page %d differs after replaying the log a second time", id)
		}
	}
}

// TestRestoreBetweenDeltas: point-in-time recovery to a commit that
// lands between two deltas of one page yields exactly the records
// committed by then.
func TestRestoreBetweenDeltas(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pitr.db")
	arch := filepath.Join(dir, "archive")
	backup := filepath.Join(dir, "backup")
	d := openArchived(t, path, arch)
	defer d.Close()
	pool := NewBufferPool(d, 8)
	h, err := CreateHeapFile(d, pool)
	if err != nil {
		t.Fatalf("CreateHeapFile: %v", err)
	}
	commit := func(rec string) int64 {
		t.Helper()
		if _, err := h.Insert([]byte(rec)); err != nil {
			t.Fatalf("Insert %q: %v", rec, err)
		}
		if err := d.Commit(); err != nil {
			t.Fatalf("Commit %q: %v", rec, err)
		}
		return d.CurrentLSN()
	}
	checkpoint := func() {
		t.Helper()
		if err := pool.FlushAll(); err != nil {
			t.Fatalf("FlushAll: %v", err)
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
	}
	commit("before the backup")
	checkpoint()
	m := BackupManifest{StartLSN: d.CurrentLSN()}
	if err := d.CopyBaseTo(backup); err != nil {
		t.Fatalf("CopyBaseTo: %v", err)
	}
	checkpoint()
	m.EndLSN, m.Pages = d.CurrentLSN(), d.NumPages()
	if err := WriteManifest(backup, m); err != nil {
		t.Fatalf("WriteManifest: %v", err)
	}

	before := d.WALStats()
	commit("one: the page's image")
	commit("two: first delta")
	midLSN := d.CurrentLSN()
	midPage := memoryPages(t, d, pool)[h.FirstPage()]
	commit("three: second delta")
	if st := d.WALStats(); st.ImageRecords-before.ImageRecords != 1 || st.DeltaRecords-before.DeltaRecords != 2 {
		t.Fatalf("three inserts logged %d images + %d deltas, want 1 + 2",
			st.ImageRecords-before.ImageRecords, st.DeltaRecords-before.DeltaRecords)
	}
	lastPage := memoryPages(t, d, pool)[h.FirstPage()]
	checkpoint()

	midOut := filepath.Join(dir, "mid.db")
	if _, err := Restore(backup, arch, midOut, midLSN); err != nil {
		t.Fatalf("Restore(mid): %v", err)
	}
	checkPage(t, midOut, h.FirstPage(), midPage)
	checkHeap(t, midOut, h.FirstPage(), "before the backup", "one: the page's image", "two: first delta")

	lastOut := filepath.Join(dir, "last.db")
	if _, err := Restore(backup, arch, lastOut, 0); err != nil {
		t.Fatalf("Restore(latest): %v", err)
	}
	checkPage(t, lastOut, h.FirstPage(), lastPage)
}

// checkHeap scans the heap file rooted at first in a restored database.
func checkHeap(t *testing.T, path string, first PageID, want ...string) {
	t.Helper()
	d, err := OpenDisk(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer d.Close()
	sc := OpenHeapFile(d, NewBufferPool(d, 4), first).Scan()
	var got []string
	for sc.Next() {
		got = append(got, string(sc.Record()))
	}
	if sc.Err() != nil || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s holds %q (err %v), want %q", filepath.Base(path), got, sc.Err(), want)
	}
}

// TestLegacyImageOnlyLogStillReplays: a log and an archive segment
// written before delta logging — every page record an 8 KiB image,
// allocation a full page of zeroes — recover and restore unchanged.
func TestLegacyImageOnlyLogStillReplays(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "legacy.db")
	d := openDurable(t, path)
	id1, err := d.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	crashDisk(d)
	base, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// What the old writer logged for "extend the file by page id2, fill
	// page id1, then overwrite it".
	id2 := id1 + 1
	a, b := bytes.Repeat([]byte{0xA1}, PageSize), bytes.Repeat([]byte{0xB2}, PageSize)
	meta := make([]byte, 8)
	binary.LittleEndian.PutUint32(meta[0:], uint32(id2)+1)
	binary.LittleEndian.PutUint32(meta[4:], uint32(InvalidPageID))
	legacy := bytes.Join([][]byte{
		legacyRecord(walPageImage, id2, make([]byte, PageSize)),
		legacyRecord(walMeta, 0, meta),
		legacyRecord(walPageImage, id1, a),
		legacyRecord(walCommit, 0, nil),
		legacyRecord(walPageImage, id1, b),
		legacyRecord(walCommit, 0, nil),
	}, nil)
	check := func(t *testing.T, path string) {
		t.Helper()
		checkPage(t, path, id1, b)
		checkPage(t, path, id2, make([]byte, PageSize))
	}

	t.Run("recover", func(t *testing.T) {
		if err := os.WriteFile(WALPath(path), legacy, 0o644); err != nil {
			t.Fatal(err)
		}
		d2 := openDurable(t, path)
		rec := d2.Recovered()
		d2.Close()
		if !rec.Ran || rec.Records != 6 || rec.Images != 3 || rec.Deltas != 0 || rec.TornTail {
			t.Fatalf("recovery of a legacy log = %+v", rec)
		}
		check(t, path)
	})
	t.Run("restore", func(t *testing.T) {
		backup, arch := filepath.Join(dir, "backup"), filepath.Join(dir, "archive")
		for _, dir := range []string{backup, arch} {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(backup, BaseFileName), base, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := WriteManifest(backup, BackupManifest{StartLSN: 0, EndLSN: 0, Pages: uint32(id1) + 1}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(arch, segmentName(0)), legacy, 0o644); err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, "restored.db")
		info, err := Restore(backup, arch, out, 0)
		if err != nil || info.Records != 6 {
			t.Fatalf("Restore from a legacy segment: %+v, %v", info, err)
		}
		check(t, out)
		// And to the commit between the two images of id1.
		mid := int64(len(legacy) - len(legacyRecord(walPageImage, id1, b)) - len(legacyRecord(walCommit, 0, nil)))
		midOut := filepath.Join(dir, "restored-mid.db")
		if _, err := Restore(backup, arch, midOut, mid); err != nil {
			t.Fatalf("Restore(mid) from a legacy segment: %v", err)
		}
		checkPage(t, midOut, id1, a)
	})
}

// TestScrubberRepairsFromArchivedDeltaChain: the newest contents of a
// page in the archive are an image plus the deltas after it, not the
// image alone.
func TestScrubberRepairsFromArchivedDeltaChain(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scrub.db")
	d := openArchived(t, path, filepath.Join(dir, "archive"))
	defer d.Close()
	pool := NewBufferPool(d, 8)
	h, err := CreateHeapFile(d, pool)
	if err != nil {
		t.Fatalf("CreateHeapFile: %v", err)
	}
	for i := 0; i < 5; i++ {
		if _, err := h.Insert([]byte(fmt.Sprintf("record %d", i))); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	want := memoryPages(t, d, pool)[h.FirstPage()]
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil { // the chain now lives only in the archive
		t.Fatal(err)
	}
	corruptFrame(t, path, h.FirstPage())
	s := NewScrubber(d, ScrubConfig{PagePace: -1})
	s.RunOnce(nil)
	if st := s.Status(); st.Corrupt != 1 || st.Repaired != 1 {
		t.Fatalf("scrub status = %+v, want one corrupt page repaired", st)
	}
	got := make([]byte, PageSize)
	if err := d.Read(h.FirstPage(), got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("page after archive repair: err=%v equal=%v", err, bytes.Equal(got, want))
	}
}

// TestHeapFileConcurrentInserts is the regression test for the lost
// slots the layered benchmark found: sessions inserting into one table
// raced from lastPageWithRoom to Page.Insert.
func TestHeapFileConcurrentInserts(t *testing.T) {
	const writers, each = 4, 5000
	path := filepath.Join(t.TempDir(), "heap.db")
	d := openDurable(t, path)
	pool := NewBufferPool(d, 64)
	h, err := CreateHeapFile(d, pool)
	if err != nil {
		t.Fatalf("CreateHeapFile: %v", err)
	}
	rids := make([][]RID, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rid, err := h.Insert([]byte(fmt.Sprintf("writer %d record %d", w, i)))
				if err != nil {
					t.Errorf("writer %d insert %d: %v", w, i, err)
					return
				}
				rids[w] = append(rids[w], rid)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	d2 := openDurable(t, path)
	defer d2.Close()
	h2 := OpenHeapFile(d2, NewBufferPool(d2, 64), h.FirstPage())
	st, err := h2.Stats()
	if err != nil || st.Records != writers*each {
		t.Fatalf("reopened heap holds %d records (err %v), want %d", st.Records, err, writers*each)
	}
	seen := make(map[RID]bool, writers*each)
	for w := range rids {
		for i, rid := range rids[w] {
			if seen[rid] {
				t.Fatalf("RID %v handed out twice", rid)
			}
			seen[rid] = true
			rec, ok, err := h2.Get(rid)
			if want := fmt.Sprintf("writer %d record %d", w, i); err != nil || !ok || string(rec) != want {
				t.Fatalf("Get(%v) = %q ok=%v err=%v, want %q", rid, rec, ok, err, want)
			}
		}
	}
}

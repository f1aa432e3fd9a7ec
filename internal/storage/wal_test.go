package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// openDurable opens a disk manager with the WAL on (commit policy).
func openDurable(t *testing.T, path string) *DiskManager {
	t.Helper()
	d, err := OpenDiskOptions(path, DiskOptions{Durability: DurabilityCommit})
	if err != nil {
		t.Fatalf("OpenDiskOptions: %v", err)
	}
	return d
}

// crashDisk simulates a process death: the OS file handles close but
// nothing is flushed, checkpointed or truncated.
func crashDisk(d *DiskManager) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	if d.wal != nil {
		d.wal.enc.w.Flush() // records the process wrote (the "OS survived" model)
		d.wal.f.Close()
	}
	d.f.Close()
}

func TestWALRecoveryReplaysLoggedPages(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.db")
	d := openDurable(t, path)
	id, err := d.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	want := bytes.Repeat([]byte{0xAB}, PageSize)
	if err := d.LogPageImage(id, want); err != nil {
		t.Fatalf("LogPageImage: %v", err)
	}
	if err := d.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	// Crash before the page itself ever reaches the data file.
	crashDisk(d)

	d2 := openDurable(t, path)
	defer d2.Close()
	rec := d2.Recovered()
	if !rec.Ran || rec.Records == 0 {
		t.Fatalf("recovery did not run: %+v", rec)
	}
	got := make([]byte, PageSize)
	if err := d2.Read(id, got); err != nil {
		t.Fatalf("Read after recovery: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("page contents not restored from WAL")
	}
	if bad, err := d2.VerifyChecksums(); err != nil || len(bad) != 0 {
		t.Fatalf("VerifyChecksums after recovery: bad=%v err=%v", bad, err)
	}
}

func TestWALRecoveryDiscardsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.db")
	d := openDurable(t, path)
	id, err := d.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	want := bytes.Repeat([]byte{0x11}, PageSize)
	if err := d.LogPageImage(id, want); err != nil {
		t.Fatalf("LogPageImage: %v", err)
	}
	if err := d.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	crashDisk(d)

	// Tear the log: append half a record's worth of garbage.
	walFile := WALPath(path)
	f, err := os.OpenFile(walFile, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	f.Write(bytes.Repeat([]byte{0xFF}, walHeaderSize+100))
	f.Close()

	d2 := openDurable(t, path)
	defer d2.Close()
	rec := d2.Recovered()
	if !rec.Ran || !rec.TornTail {
		t.Fatalf("expected recovery with torn tail, got %+v", rec)
	}
	got := make([]byte, PageSize)
	if err := d2.Read(id, got); err != nil {
		t.Fatalf("Read after recovery: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("valid prefix not replayed despite torn tail")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crc.db")
	d, err := OpenDisk(path)
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	id, err := d.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := d.Write(id, bytes.Repeat([]byte{0x5A}, PageSize)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	d.Close()

	// Flip one payload byte on disk.
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := f.WriteAt([]byte{0x00}, int64(id)*DiskFrameSize+frameHeaderSize+100); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	f.Close()

	d2, err := OpenDisk(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	buf := make([]byte, PageSize)
	if err := d2.Read(id, buf); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Read of corrupted page: got %v, want ErrChecksum", err)
	}
	bad, err := d2.VerifyChecksums()
	if err != nil {
		t.Fatalf("VerifyChecksums: %v", err)
	}
	if len(bad) != 1 || bad[0] != id {
		t.Fatalf("VerifyChecksums: got %v, want [%d]", bad, id)
	}
}

func TestReadPastEndReturnsShortRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "short.db")
	d, err := OpenDisk(path)
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	defer d.Close()
	id, err := d.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	// Truncate the file under the manager: the page is now torn short.
	if err := os.Truncate(path, int64(id)*DiskFrameSize+DiskFrameSize/2); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	buf := make([]byte, PageSize)
	if err := d.Read(id, buf); !errors.Is(err, ErrShortRead) {
		t.Fatalf("Read past EOF: got %v, want ErrShortRead", err)
	}
}

func TestCheckpointTruncatesWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.db")
	d := openDurable(t, path)
	defer d.Close()
	id, err := d.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := d.LogPageImage(id, make([]byte, PageSize)); err != nil {
		t.Fatalf("LogPageImage: %v", err)
	}
	if err := d.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if d.WALSize() == 0 {
		t.Fatalf("WAL empty after logged allocation")
	}
	if err := d.Write(id, make([]byte, PageSize)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if got := d.WALSize(); got != 0 {
		t.Fatalf("WAL size after checkpoint = %d, want 0", got)
	}
	if info, err := os.Stat(WALPath(path)); err != nil || info.Size() != 0 {
		t.Fatalf("wal file after checkpoint: size=%v err=%v", info, err)
	}
}

func TestDurabilityNoneHasNoWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nowal.db")
	d, err := OpenDisk(path)
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	defer d.Close()
	id, err := d.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := d.Write(id, make([]byte, PageSize)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := d.Commit(); err != nil {
		t.Fatalf("Commit (should be a no-op): %v", err)
	}
	if _, err := os.Stat(WALPath(path)); !os.IsNotExist(err) {
		t.Fatalf("wal file exists under DurabilityNone: %v", err)
	}
	if ws := d.WALStats(); ws != (WALStats{}) {
		t.Fatalf("WALStats under DurabilityNone = %+v", ws)
	}
}

func TestRecoveryReplaysMetaAndFreeList(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.db")
	d := openDurable(t, path)
	id1, _ := d.Allocate()
	id2, err := d.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := d.Free(id1); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if err := d.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	wantPages := d.NumPages()
	crashDisk(d)

	// Wipe the data file's meta page so only WAL replay can restore it.
	// (Zero payload with a valid-looking stale CRC of an older state is
	// the realistic torn case; full garbage exercises the same path.)
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	f.WriteAt(make([]byte, DiskFrameSize), 0)
	f.Close()

	d2 := openDurable(t, path)
	defer d2.Close()
	if got := d2.NumPages(); got != wantPages {
		t.Fatalf("NumPages after recovery = %d, want %d", got, wantPages)
	}
	// The freed page must come back first.
	got, err := d2.Allocate()
	if err != nil {
		t.Fatalf("Allocate after recovery: %v", err)
	}
	if got != id1 {
		t.Fatalf("free list not recovered: allocated %d, want %d", got, id1)
	}
	_ = id2
}

func TestStaleWALNextToFreshFileIsDiscarded(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fresh.db")
	// A WAL with no database: the data file was deleted or never
	// created; replaying would fabricate pages.
	if err := os.WriteFile(WALPath(path), bytes.Repeat([]byte{0x77}, 256), 0o644); err != nil {
		t.Fatalf("write stale wal: %v", err)
	}
	d := openDurable(t, path)
	defer d.Close()
	if rec := d.Recovered(); rec.Ran {
		t.Fatalf("recovery ran against a fresh file: %+v", rec)
	}
	if d.NumPages() != 1 {
		t.Fatalf("fresh file has %d pages, want 1", d.NumPages())
	}
}

func TestParseDurability(t *testing.T) {
	cases := []struct {
		in   string
		want Durability
		err  bool
	}{
		{"", DurabilityCommit, false},
		{"commit", DurabilityCommit, false},
		{"none", DurabilityNone, false},
		{"always", DurabilityAlways, false},
		{"fsync", 0, true},
	}
	for _, c := range cases {
		got, err := ParseDurability(c.in)
		if c.err != (err != nil) || (!c.err && got != c.want) {
			t.Errorf("ParseDurability(%q) = %v, %v", c.in, got, err)
		}
	}
}

func TestDurabilityAlwaysFsyncsPerAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "always.db")
	d, err := OpenDiskOptions(path, DiskOptions{Durability: DurabilityAlways})
	if err != nil {
		t.Fatalf("OpenDiskOptions: %v", err)
	}
	defer d.Close()
	id, err := d.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	before := d.WALStats().Fsyncs
	if before == 0 {
		t.Fatalf("no fsyncs recorded during allocation under always")
	}
	if err := d.LogPageImage(id, make([]byte, PageSize)); err != nil {
		t.Fatalf("LogPageImage: %v", err)
	}
	if got := d.WALStats().Fsyncs; got != before+1 {
		t.Fatalf("fsyncs after LogPageImage = %d, want %d", got, before+1)
	}
}

// TestRecoveryHealsExtensionHole covers a crash between extending the
// file (meta says N pages) and durably writing the new page: recovery
// must leave a readable, checksummed zero page rather than a torn one.
func TestRecoveryHealsExtensionHole(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hole.db")
	d := openDurable(t, path)
	id, err := d.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := d.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	crashDisk(d)

	// Lose the extension write: truncate the file to just the meta page
	// (the WAL still records the allocation and meta update).
	if err := os.Truncate(path, DiskFrameSize); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	d2 := openDurable(t, path)
	defer d2.Close()
	buf := make([]byte, PageSize)
	if err := d2.Read(id, buf); err != nil {
		t.Fatalf("Read of healed page: %v", err)
	}
	if bad, err := d2.VerifyChecksums(); err != nil || len(bad) != 0 {
		t.Fatalf("VerifyChecksums: bad=%v err=%v", bad, err)
	}
}

// TestZeroPageReadsAsEmptyChainEnd: an allocated-but-never-written
// page (the crash artifact recovery heals to a zeroed frame) must scan
// as an empty end-of-chain page, not dereference page 0.
func TestZeroPageReadsAsEmptyChainEnd(t *testing.T) {
	p := AsPage(make([]byte, PageSize))
	if got := p.Next(); got != InvalidPageID {
		t.Fatalf("zero page Next() = %d, want InvalidPageID", got)
	}
	if p.NumSlots() != 0 {
		t.Fatalf("zero page has %d slots", p.NumSlots())
	}
	if p.CanFit(1) {
		t.Fatalf("zero page claims free space (freeEnd is 0)")
	}
}

// TestZeroLengthWALOpensCleanly: a crash immediately after WAL
// creation leaves a zero-byte log; open must succeed without claiming
// a recovery ran.
func TestZeroLengthWALOpensCleanly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "zero.db")
	d := openDurable(t, path)
	id, err := d.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := d.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	crashDisk(d)
	if info, err := os.Stat(WALPath(path)); err != nil || info.Size() != 0 {
		t.Fatalf("setup: WAL not empty after checkpoint: %v %v", info, err)
	}

	d2 := openDurable(t, path)
	defer d2.Close()
	if rec := d2.Recovered(); rec.Ran {
		t.Fatalf("recovery ran on a zero-length WAL: %+v", rec)
	}
	buf := make([]byte, PageSize)
	if err := d2.Read(id, buf); err != nil {
		t.Fatalf("Read after zero-length-WAL open: %v", err)
	}
}

// TestWALTruncatedMidHeader: the crash tore the log inside a record
// header (fewer than walHeaderSize trailing bytes). The valid prefix
// replays; the fragment is discarded as a torn tail.
func TestWALTruncatedMidHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "midhdr.db")
	d := openDurable(t, path)
	id, err := d.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	want := bytes.Repeat([]byte{0x3C}, PageSize)
	if err := d.LogPageImage(id, want); err != nil {
		t.Fatalf("LogPageImage: %v", err)
	}
	if err := d.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	crashDisk(d)

	// Append 4 bytes: less than a header, unparseable.
	f, err := os.OpenFile(WALPath(path), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	f.Write([]byte{walPageImage, 0xFF, 0xFF, 0xFF})
	f.Close()

	d2 := openDurable(t, path)
	defer d2.Close()
	rec := d2.Recovered()
	if !rec.Ran || !rec.TornTail {
		t.Fatalf("expected torn-tail recovery, got %+v", rec)
	}
	got := make([]byte, PageSize)
	if err := d2.Read(id, got); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("valid prefix not replayed after mid-header truncation")
	}
}

// TestWALTornFinalPageImage: the final page-image record is torn
// mid-payload (a complete header promising more bytes than exist).
// Recovery keeps the earlier committed image, not the torn overwrite.
func TestWALTornFinalPageImage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tornimg.db")
	d := openDurable(t, path)
	id, err := d.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	want := bytes.Repeat([]byte{0x42}, PageSize)
	if err := d.LogPageImage(id, want); err != nil {
		t.Fatalf("LogPageImage: %v", err)
	}
	if err := d.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	crashDisk(d)

	// Hand-craft a torn record: full header for a page image of this
	// page, but only half the payload made it to disk.
	torn := encodeWALRecord(walPageImage, id, bytes.Repeat([]byte{0x99}, PageSize))
	f, err := os.OpenFile(WALPath(path), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	f.Write(torn[:len(torn)/2])
	f.Close()

	d2 := openDurable(t, path)
	defer d2.Close()
	rec := d2.Recovered()
	if !rec.Ran || !rec.TornTail {
		t.Fatalf("expected torn-tail recovery, got %+v", rec)
	}
	got := make([]byte, PageSize)
	if err := d2.Read(id, got); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("torn final image leaked into the page (or committed image lost)")
	}
}

func TestFrameStampVerifyRoundTrip(t *testing.T) {
	var frame [DiskFrameSize]byte
	payload := bytes.Repeat([]byte{0xC3}, PageSize)
	copy(frame[frameHeaderSize:], payload)
	stampFrame(frame[:], 7)
	if !verifyFrame(frame[:]) {
		t.Fatalf("freshly stamped frame does not verify")
	}
	if got := binary.LittleEndian.Uint64(frame[8:]); got != 7 {
		t.Fatalf("LSN = %d, want 7", got)
	}
	frame[frameHeaderSize] ^= 1
	if verifyFrame(frame[:]) {
		t.Fatalf("corrupted frame verifies")
	}
}

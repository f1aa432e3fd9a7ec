// Package storage implements the storage manager of PREDATOR-Go: a
// file-backed disk manager with write-ahead logging and per-page
// checksums, slotted pages, an LRU buffer pool, and heap files with
// RID-addressed records. It plays the role of the Shore storage
// manager in the paper's PREDATOR stack, including the part the
// in-memory layers used to pretend away: durability and recovery.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"predator/internal/obs"
)

// Process-wide physical-I/O metrics (all disk managers report here).
var (
	obsPageReads     = obs.Default.Counter("predator_storage_page_reads_total")
	obsPageWrites    = obs.Default.Counter("predator_storage_page_writes_total")
	obsPageAllocs    = obs.Default.Counter("predator_storage_page_allocs_total")
	obsChecksumFails = obs.Default.Counter("predator_storage_checksum_failures_total")
	obsReadRepairs   = obs.Default.Counter("predator_storage_read_repairs_total")
	obsWALRebuilds   = obs.Default.Counter("predator_storage_wal_rebuilds_total")
)

// PageSize is the size of every logical page in bytes. This is the
// size upper layers (slotted pages, heap files) see; on disk each page
// is wrapped in a frame that adds a checksum header.
const PageSize = 8192

// Each page is stored as a frame: a 16-byte header followed by the
// PageSize payload. The header carries a CRC32-C over everything after
// the checksum field (reserved bytes, LSN, payload), so torn or
// bit-rotted pages are detected at read time, and the LSN of the WAL
// record that last described the page (diagnostic only — redo rebuilds
// a page from its logged image and does not consult it).
const (
	frameHeaderSize = 16 // crc32c(4) | reserved(4) | lsn(8)
	DiskFrameSize   = frameHeaderSize + PageSize
)

// PageID identifies a page within a database file. Page 0 is the meta
// page and is never handed out.
type PageID uint32

// InvalidPageID is the nil page reference (end of chains, etc.).
const InvalidPageID PageID = 0xFFFFFFFF

const (
	metaMagic = 0x50524544 // "PRED"
	// Version 2 introduced checksummed frames (and with them the WAL);
	// version-1 files have no checksums and are not auto-upgraded.
	metaVersion = 2
)

// ErrClosed is returned by operations on a closed disk manager.
var ErrClosed = errors.New("storage: disk manager is closed")

// ErrShortRead reports a page read that got fewer bytes than a full
// frame — the file ends mid-page, i.e. a torn extension. (The old
// behaviour was to swallow io.EOF and hand back a zeroed page.)
var ErrShortRead = errors.New("storage: short page read (torn or truncated page)")

// ErrChecksum reports a page whose stored CRC does not match its
// contents — a torn write or on-disk corruption.
var ErrChecksum = errors.New("storage: page checksum mismatch")

// Durability selects when the write-ahead log is forced to stable
// storage.
type Durability int

const (
	// DurabilityNone disables the WAL entirely: no log, no checksums
	// on the write path beyond frame stamping, crashes may lose or
	// corrupt recent writes. Matches the pre-WAL engine and is what
	// the paper-figure benchmarks use.
	DurabilityNone Durability = iota
	// DurabilityCommit fsyncs the WAL at statement boundaries (the
	// engine calls Commit after each acknowledged mutation). Default.
	DurabilityCommit
	// DurabilityAlways fsyncs the WAL after every log append.
	DurabilityAlways
)

// ParseDurability maps the user-facing spellings (none|commit|always,
// "" = commit) to a Durability.
func ParseDurability(s string) (Durability, error) {
	switch s {
	case "", "commit":
		return DurabilityCommit, nil
	case "none":
		return DurabilityNone, nil
	case "always":
		return DurabilityAlways, nil
	}
	return DurabilityNone, fmt.Errorf("storage: unknown durability mode %q (want none, commit or always)", s)
}

func (m Durability) String() string {
	switch m {
	case DurabilityCommit:
		return "commit"
	case DurabilityAlways:
		return "always"
	default:
		return "none"
	}
}

// DiskOptions configures OpenDiskOptions.
type DiskOptions struct {
	Durability Durability
	// ArchiveDir, when non-empty, enables WAL archiving: every log
	// generation is preserved as a segment file there before the live
	// log is truncated (at checkpoints and at crash recovery), giving a
	// contiguous record history for point-in-time restore. The global
	// LSN stream resumes from the archive's end at open; without an
	// archive LSNs restart at 0 on each open and are diagnostic only.
	ArchiveDir string
}

// DiskManager allocates, reads and writes fixed-size pages in a single
// database file. Deallocated pages are kept on a persistent free list
// (chained through the first 4 bytes of each free page) and reused by
// subsequent allocations. Every page is checksummed on disk; unless
// durability is off, every write is preceded by a durable WAL record
// and the log is replayed over the data file at open.
type DiskManager struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	numPages uint32 // includes the meta page
	freeHead PageID
	closed   bool

	mode Durability
	wal  *wal
	// walGen numbers the live log generation (from 1; a checkpoint's
	// truncation and RebuildWAL start the next). A page may be logged as
	// a delta only while the generation holding its image is live.
	walGen     uint64
	walPath    string
	archiveDir string
	recovered  RecoveryInfo

	frame [DiskFrameSize]byte // scratch for frame I/O, guarded by mu

	// logHook, when set (tests only), sees every record about to be
	// appended, as wal.append is given it.
	logHook func(typ byte, id PageID, payload []byte, ranges []pageRange)

	// Stats counts physical I/O for calibration experiments.
	stats DiskStats
}

// DiskStats reports physical page I/O counts.
type DiskStats struct {
	Reads  uint64
	Writes uint64
	Allocs uint64
}

// WALPath returns the log file path for a database file path.
func WALPath(dbPath string) string { return dbPath + ".wal" }

// OpenDisk opens (or creates) the database file at path with the WAL
// disabled (DurabilityNone). Recovery from a leftover log still runs.
func OpenDisk(path string) (*DiskManager, error) {
	return OpenDiskOptions(path, DiskOptions{Durability: DurabilityNone})
}

// OpenDiskOptions opens (or creates) the database file at path. If a
// non-empty write-ahead log is found next to an existing database, its
// valid prefix is replayed onto the data file before the manager is
// handed out — regardless of the requested durability mode, since the
// log describes writes the previous process acknowledged.
func OpenDiskOptions(path string, opts DiskOptions) (*DiskManager, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	d := &DiskManager{f: f, path: path, mode: opts.Durability, walGen: 1, walPath: WALPath(path), archiveDir: opts.ArchiveDir}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat %s: %w", path, err)
	}
	// The global LSN stream resumes from the end of the archived
	// history: the crashed generation (if any) started exactly there,
	// because every truncation archives its generation first.
	var base int64
	if d.archiveDir != "" {
		if base, err = archivedEnd(d.archiveDir); err != nil {
			f.Close()
			return nil, err
		}
	}
	if info.Size() == 0 {
		// Fresh (or fully lost) data file: a leftover log describes a
		// database that no longer exists, so discard rather than replay.
		os.Remove(d.walPath)
	} else {
		d.recovered, base, err = replayWAL(d.walPath, f, d.archiveDir, base)
		if err != nil {
			f.Close()
			return nil, err
		}
		if d.archiveDir == "" {
			base = 0
		}
		if info, err = f.Stat(); err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: stat %s: %w", path, err)
		}
	}
	if info.Size() == 0 {
		// Fresh file: write the meta page.
		d.numPages = 1
		d.freeHead = InvalidPageID
		if err := writeFrameTo(f, 0, encodeMetaPayload(1, uint32(InvalidPageID)), 0); err != nil {
			f.Close()
			return nil, err
		}
	} else {
		if info.Size()%DiskFrameSize != 0 {
			f.Close()
			return nil, fmt.Errorf("storage: %s has size %d, not a multiple of the %d-byte page frame", path, info.Size(), DiskFrameSize)
		}
		var meta [DiskFrameSize]byte
		if _, err := f.ReadAt(meta[:], 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: read meta page: %w", err)
		}
		if !verifyFrame(meta[:]) {
			f.Close()
			return nil, fmt.Errorf("storage: meta page of %s: %w", path, ErrChecksum)
		}
		payload := meta[frameHeaderSize:]
		if binary.LittleEndian.Uint32(payload[0:]) != metaMagic {
			f.Close()
			return nil, fmt.Errorf("storage: %s is not a PREDATOR database file", path)
		}
		if v := binary.LittleEndian.Uint32(payload[4:]); v != metaVersion {
			f.Close()
			return nil, fmt.Errorf("storage: unsupported database version %d", v)
		}
		d.numPages = binary.LittleEndian.Uint32(payload[8:])
		d.freeHead = PageID(binary.LittleEndian.Uint32(payload[12:]))
	}
	if d.mode != DurabilityNone {
		d.wal, err = openWAL(d.walPath, base)
		if err != nil {
			f.Close()
			return nil, err
		}
	} else {
		os.Remove(d.walPath)
	}
	return d, nil
}

// Recovered reports whether (and how much) redo recovery ran at open.
func (d *DiskManager) Recovered() RecoveryInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.recovered
}

// Durability returns the manager's fsync policy.
func (d *DiskManager) Durability() Durability {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mode
}

// stampFrame writes the frame header (LSN + CRC over everything after
// the CRC field) in place. frame must be DiskFrameSize bytes with the
// payload already copied in.
func stampFrame(frame []byte, lsn uint64) {
	binary.LittleEndian.PutUint32(frame[4:], 0) // reserved
	binary.LittleEndian.PutUint64(frame[8:], lsn)
	binary.LittleEndian.PutUint32(frame[0:], crc32.Checksum(frame[4:], walCRC))
}

// verifyFrame checks the stored CRC against the frame contents.
func verifyFrame(frame []byte) bool {
	return binary.LittleEndian.Uint32(frame[0:]) == crc32.Checksum(frame[4:], walCRC)
}

// writeFrameTo stamps payload into a frame and writes it at id's
// offset in f. Shared by the open path, recovery and the write path.
func writeFrameTo(f io.WriterAt, id PageID, payload []byte, lsn uint64) error {
	var frame [DiskFrameSize]byte
	copy(frame[frameHeaderSize:], payload)
	stampFrame(frame[:], lsn)
	if _, err := f.WriteAt(frame[:], int64(id)*DiskFrameSize); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	return nil
}

// readFrameLocked reads and verifies page id into buf (PageSize bytes).
func (d *DiskManager) readFrameLocked(id PageID, buf []byte) error {
	n, err := d.f.ReadAt(d.frame[:], int64(id)*DiskFrameSize)
	if n < DiskFrameSize {
		if err == nil || err == io.EOF {
			return fmt.Errorf("storage: read page %d: got %d of %d bytes: %w", id, n, DiskFrameSize, ErrShortRead)
		}
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	if !verifyFrame(d.frame[:]) {
		obsChecksumFails.Inc()
		return fmt.Errorf("storage: read page %d: %w", id, ErrChecksum)
	}
	copy(buf, d.frame[frameHeaderSize:])
	return nil
}

// syncWALForWriteLocked enforces WAL-before-data: any buffered or
// unfsynced log records become durable before a data-file write.
func (d *DiskManager) syncWALForWriteLocked() error {
	if d.wal == nil || !d.wal.dirty() {
		return nil
	}
	return d.wal.sync()
}

// writeFrameLocked stamps buf into a frame and writes it to the data
// file, after forcing the WAL (the log record describing this state
// must be durable first). faultPoint names the crash-injection point.
func (d *DiskManager) writeFrameLocked(id PageID, buf []byte, faultPoint string) error {
	if err := d.syncWALForWriteLocked(); err != nil {
		return err
	}
	var lsn uint64
	if d.wal != nil {
		lsn = uint64(d.wal.base + d.wal.size)
	}
	copy(d.frame[frameHeaderSize:], buf)
	stampFrame(d.frame[:], lsn)
	frame := d.frame
	fireFault(faultPoint, func() {
		// Torn page: only the first half of the frame reaches the file.
		d.f.WriteAt(frame[:DiskFrameSize/2], int64(id)*DiskFrameSize)
	})
	if err := fireFaultIO(faultPoint, "eio", "enospc"); err != nil {
		// The page image (if logged) is already durable in the WAL, so
		// nothing acknowledged is at risk; the caller surfaces the error.
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	if _, err := d.f.WriteAt(d.frame[:], int64(id)*DiskFrameSize); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	return nil
}

// logLocked appends a WAL record (payload and ranges as for
// walEncoder.encode), fsyncing immediately under DurabilityAlways.
// No-op when the WAL is off.
func (d *DiskManager) logLocked(typ byte, id PageID, payload []byte, ranges []pageRange) error {
	if d.wal == nil {
		return nil
	}
	if d.logHook != nil {
		d.logHook(typ, id, payload, ranges)
	}
	if err := d.wal.append(typ, id, payload, ranges); err != nil {
		return err
	}
	if d.mode == DurabilityAlways {
		return d.wal.sync()
	}
	return nil
}

// metaRecordLocked renders the walMeta payload for the current state.
func (d *DiskManager) metaRecordLocked() []byte {
	link := make([]byte, 8)
	binary.LittleEndian.PutUint32(link[0:], d.numPages)
	binary.LittleEndian.PutUint32(link[4:], uint32(d.freeHead))
	return link
}

// writeMetaLocked logs and writes the meta page.
func (d *DiskManager) writeMetaLocked() error {
	if err := d.logLocked(walMeta, 0, d.metaRecordLocked(), nil); err != nil {
		return err
	}
	return d.writeFrameLocked(0, encodeMetaPayload(d.numPages, uint32(d.freeHead)), "metawrite")
}

// Allocate returns a fresh page ID, reusing a freed page if one exists.
// The page contents are undefined; callers must initialize them. Either
// way a zero image of the page is logged as its allocation record, so a
// caller that starts the page from zeroes (the buffer pool) can log its
// first change as a delta.
func (d *DiskManager) Allocate() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return InvalidPageID, ErrClosed
	}
	d.stats.Allocs++
	obsPageAllocs.Inc()
	if d.freeHead != InvalidPageID {
		id := d.freeHead
		var page [PageSize]byte
		if err := d.readFrameLocked(id, page[:]); err != nil {
			return InvalidPageID, fmt.Errorf("storage: read free page %d: %w", id, err)
		}
		d.freeHead = PageID(binary.LittleEndian.Uint32(page[:4]))
		if err := d.writeMetaLocked(); err != nil {
			return InvalidPageID, err
		}
		// The meta record goes first: a replayed prefix that zeroes the
		// page while the free list still starts at it would read the
		// next link as page 0.
		clear(page[:])
		if err := d.logLocked(walPageImage, id, page[:], nil); err != nil {
			return InvalidPageID, err
		}
		return id, nil
	}
	id := PageID(d.numPages)
	d.numPages++
	// Extend the file with a valid (zeroed, checksummed) frame so reads
	// of the new page succeed and recovery can tell a hole from a tear.
	var zero [PageSize]byte
	if err := d.logLocked(walPageImage, id, zero[:], nil); err != nil {
		d.numPages--
		return InvalidPageID, err
	}
	if err := d.writeFrameLocked(id, zero[:], "pagewrite"); err != nil {
		d.numPages--
		return InvalidPageID, fmt.Errorf("storage: extend file for page %d: %w", id, err)
	}
	if err := d.writeMetaLocked(); err != nil {
		return InvalidPageID, err
	}
	return id, nil
}

// Free returns a page to the free list for reuse. Callers holding the
// page in a buffer pool must Drop it first — the pool does this — so a
// later Allocate of the same ID cannot observe the stale cached image.
func (d *DiskManager) Free(id PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if id == 0 || uint32(id) >= d.numPages {
		return fmt.Errorf("storage: cannot free page %d", id)
	}
	var page [PageSize]byte
	binary.LittleEndian.PutUint32(page[:4], uint32(d.freeHead))
	if err := d.logLocked(walPageImage, id, page[:], nil); err != nil {
		return err
	}
	if err := d.writeFrameLocked(id, page[:], "pagewrite"); err != nil {
		return fmt.Errorf("storage: write free link on page %d: %w", id, err)
	}
	d.freeHead = id
	return d.writeMetaLocked()
}

// Read fills buf (which must be PageSize bytes) with the page
// contents, verifying the frame checksum. A read past the end of the
// file returns ErrShortRead; a corrupt frame returns ErrChecksum.
func (d *DiskManager) Read(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if len(buf) != PageSize {
		return fmt.Errorf("storage: read buffer is %d bytes, want %d", len(buf), PageSize)
	}
	if id == 0 || uint32(id) >= d.numPages {
		return fmt.Errorf("storage: read of invalid page %d (file has %d pages)", id, d.numPages)
	}
	d.stats.Reads++
	obsPageReads.Inc()
	err := d.readFrameLocked(id, buf)
	if errors.Is(err, ErrChecksum) || errors.Is(err, ErrShortRead) {
		// A poisoned frame is recoverable if the current log still holds
		// an image of the page (its records are durable before the frame
		// is ever written, so a torn or bit-rotted frame whose write we
		// logged can always be reconstructed).
		if rerr := d.repairFromWALLocked(id); rerr == nil {
			obsReadRepairs.Inc()
			return d.readFrameLocked(id, buf)
		}
	}
	return err
}

// repairFromWALLocked rewrites page id's frame with its newest
// contents as the current log generation describes them. Returns an
// error when the log holds no image of the page.
func (d *DiskManager) repairFromWALLocked(id PageID) error {
	if d.wal == nil {
		return fmt.Errorf("storage: page %d: no WAL to repair from", id)
	}
	// Only flushed bytes are visible in the file; flushing buffered
	// appends is safe (it makes no durability promise).
	if d.wal.err == nil {
		if err := d.wal.enc.w.Flush(); err != nil {
			d.wal.err = fmt.Errorf("storage: wal flush: %w", err)
		}
	}
	log, err := os.ReadFile(d.walPath)
	if err != nil {
		return fmt.Errorf("storage: page %d: read wal for repair: %w", id, err)
	}
	image, lsn, _ := foldPage(log, d.wal.base, id)
	if image == nil {
		return fmt.Errorf("storage: page %d: no image in current wal", id)
	}
	if err := writeFrameTo(d.f, id, image, lsn); err != nil {
		return err
	}
	return d.f.Sync()
}

// Write stores buf (PageSize bytes) as the page contents. The caller
// (normally the buffer pool) must already have logged the page image
// via LogPageImage when durability is on; Write forces the WAL before
// touching the data file.
func (d *DiskManager) Write(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if len(buf) != PageSize {
		return fmt.Errorf("storage: write buffer is %d bytes, want %d", len(buf), PageSize)
	}
	if id == 0 || uint32(id) >= d.numPages {
		return fmt.Errorf("storage: write of invalid page %d", id)
	}
	d.stats.Writes++
	obsPageWrites.Inc()
	return d.writeFrameLocked(id, buf, "pagewrite")
}

// LogPageImage appends a full after-image of the page to the WAL. The
// buffer pool calls this when a dirty page's latest contents are about
// to become (or must be able to become) durable. No-op without a WAL.
func (d *DiskManager) LogPageImage(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if d.wal == nil {
		return nil
	}
	if len(buf) != PageSize {
		return fmt.Errorf("storage: log buffer is %d bytes, want %d", len(buf), PageSize)
	}
	return d.logLocked(walPageImage, id, buf, nil)
}

// logPage appends the buffer pool's pending change to page id: the
// bytes of buf in ranges as a delta when the page's image is in the
// live generation (base == walGen) and the ranges are known and small,
// otherwise buf as a full image. It returns the generation that now
// holds the page's base (0 with the WAL off).
func (d *DiskManager) logPage(id PageID, buf []byte, ranges []pageRange, base uint64) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrClosed
	}
	if d.wal == nil {
		return 0, nil
	}
	if base != d.walGen || len(ranges) == 0 || deltaLen(ranges) > maxDeltaPayload {
		return d.walGen, d.logLocked(walPageImage, id, buf, nil)
	}
	return d.walGen, d.logLocked(walPageDelta, id, buf, ranges)
}

// walGeneration returns the live log generation (0 with the WAL off).
func (d *DiskManager) walGeneration() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.wal == nil {
		return 0
	}
	return d.walGen
}

// Commit makes every logged change durable (WAL flush + fsync), first
// appending a statement-boundary commit mark — the post-mark global
// LSN is an exact point-in-time-recovery target. The engine calls this
// at statement boundaries under DurabilityCommit.
func (d *DiskManager) Commit() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if d.wal == nil {
		return nil
	}
	if err := d.wal.appendCommitMark(); err != nil {
		return err
	}
	return d.wal.sync()
}

// Checkpoint fsyncs the data file, archives the retiring log
// generation (when archiving is on), and truncates the WAL. The caller
// must have flushed every dirty buffered page first (BufferPool.
// FlushAll), otherwise log records still needed for redo are lost. If
// archiving fails the checkpoint aborts before truncation: the live
// log keeps growing (reported as archive lag) rather than tearing a
// gap in the point-in-time history.
func (d *DiskManager) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if err := fireFaultIO("checkpoint", "eio", "enospc", "fsyncfail"); err != nil {
		return fmt.Errorf("storage: checkpoint data fsync: %w", err)
	}
	if err := d.f.Sync(); err != nil {
		return fmt.Errorf("storage: checkpoint data fsync: %w", err)
	}
	if d.wal == nil {
		return nil
	}
	// Close the commit chain and force the log so the archived segment
	// ends on a durable statement boundary.
	if err := d.wal.appendCommitMark(); err != nil {
		return err
	}
	if err := d.wal.sync(); err != nil {
		return err
	}
	if d.archiveDir != "" && d.wal.size > 0 {
		log, err := os.ReadFile(d.walPath)
		if err != nil {
			return fmt.Errorf("storage: checkpoint: read wal for archive: %w", err)
		}
		if int64(len(log)) < d.wal.size {
			return fmt.Errorf("storage: checkpoint: wal file has %d of %d bytes", len(log), d.wal.size)
		}
		if _, err := writeSegment(d.archiveDir, log[:d.wal.size], d.wal.base); err != nil {
			return err
		}
	}
	// Crash window under test: data is durable but the log has not been
	// truncated yet, so recovery re-applies the (idempotent) records.
	fireFault("checkpoint", nil)
	if err := d.wal.reset(); err != nil {
		return err
	}
	d.walGen++
	obsWALCheckpoints.Inc()
	return nil
}

// WALSize returns the current logical size of the write-ahead log in
// bytes (0 when durability is off). The engine uses it to trigger
// automatic checkpoints.
func (d *DiskManager) WALSize() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.wal == nil {
		return 0
	}
	return d.wal.size
}

// WALStats returns cumulative log activity for this manager.
func (d *DiskManager) WALStats() WALStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.wal == nil {
		return WALStats{}
	}
	return d.wal.stats
}

// IsDiskFull reports whether err is (or wraps) ENOSPC — the condition
// that flips the engine into degraded read-only mode.
func IsDiskFull(err error) bool { return errors.Is(err, syscall.ENOSPC) }

// Path returns the database file path.
func (d *DiskManager) Path() string { return d.path }

// CopyBaseTo copies the data file into dir as a base backup, without
// blocking writers — the copy is fuzzy (pages may be torn or stale)
// and only becomes consistent once the WAL archive through the
// post-copy checkpoint fence is replayed over it, which is exactly
// what the backup manifest records and Restore enforces.
func (d *DiskManager) CopyBaseTo(dir string) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	path := d.path
	d.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("storage: create backup dir: %w", err)
	}
	return copyFile(path, filepath.Join(dir, BaseFileName))
}

// CurrentLSN returns the global LSN of the end of the log: the offset
// the next record will be appended at (0 when durability is off).
func (d *DiskManager) CurrentLSN() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.wal == nil {
		return 0
	}
	return d.wal.base + d.wal.size
}

// WALErr returns the log's sticky error, if any. A non-nil result
// means buffered records may be lost (fsyncgate) and every later
// append or commit fails fast; the engine degrades to read-only and
// recovery goes through RebuildWAL (disk full) or a restart.
func (d *DiskManager) WALErr() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.wal == nil {
		return nil
	}
	return d.wal.err
}

// ArchiveDir returns the archive directory ("" when archiving is off).
func (d *DiskManager) ArchiveDir() string { return d.archiveDir }

// DiskStatus is a point-in-time snapshot of the storage manager's
// resilience state, surfaced through SHOW STORAGE and /metrics.
type DiskStatus struct {
	CurrentLSN int64 // global end-of-log LSN
	DurableLSN int64 // global LSN known on stable storage
	WALBytes   int64 // live log size (bytes)
	// WALImageBytes and WALDeltaBytes are the cumulative bytes of page
	// records appended since open, by kind: their ratio is how much of
	// the log goes on restarting delta chains.
	WALImageBytes int64
	WALDeltaBytes int64
	ArchiveLag    int64  // bytes not yet rolled into an archive segment
	Archiving     bool   // archiving enabled
	WALStuck      string // sticky log error ("" when healthy)
	Recovered     RecoveryInfo
}

// Status snapshots the resilience state.
func (d *DiskManager) Status() DiskStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := DiskStatus{Archiving: d.archiveDir != "", Recovered: d.recovered}
	if d.wal != nil {
		s.CurrentLSN = d.wal.base + d.wal.size
		s.DurableLSN = d.wal.base + d.wal.synced
		s.WALBytes = d.wal.size
		s.WALImageBytes = int64(d.wal.stats.ImageBytes)
		s.WALDeltaBytes = int64(d.wal.stats.DeltaBytes)
		if s.Archiving {
			s.ArchiveLag = d.wal.size
		}
		if d.wal.err != nil {
			s.WALStuck = d.wal.err.Error()
		}
	}
	return s
}

// VerifyPage checks one page frame's checksum without going through
// the read path (no repair, no read counters). The scrubber's probe.
func (d *DiskManager) VerifyPage(id PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if uint32(id) >= d.numPages {
		return fmt.Errorf("storage: verify of invalid page %d", id)
	}
	n, err := d.f.ReadAt(d.frame[:], int64(id)*DiskFrameSize)
	if n < DiskFrameSize {
		if err != nil && err != io.EOF {
			return fmt.Errorf("storage: verify page %d: %w", id, err)
		}
		return fmt.Errorf("storage: verify page %d: %w", id, ErrShortRead)
	}
	if !verifyFrame(d.frame[:]) {
		return fmt.Errorf("storage: verify page %d: %w", id, ErrChecksum)
	}
	return nil
}

// RepairPageFromWAL rewrites a corrupt page frame from the newest
// after-image in the current log generation, returning an error when
// the log holds none.
func (d *DiskManager) RepairPageFromWAL(id PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return d.repairFromWALLocked(id)
}

// RepairPageFrame overwrites page id's on-disk frame with payload
// (PageSize bytes) stamped at lsn, bypassing the WAL — but only if the
// resident frame still fails verification (a writer may have healed
// the page since the caller probed it; an older archived image must
// never clobber a fresh frame). Only for repair tooling (the scrubber)
// restoring an image that is already durable in the archive or a base
// backup — never for new data, which must go through the logged write
// path. Reports whether the frame was written.
func (d *DiskManager) RepairPageFrame(id PageID, payload []byte, lsn uint64) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false, ErrClosed
	}
	if len(payload) != PageSize {
		return false, fmt.Errorf("storage: repair buffer is %d bytes, want %d", len(payload), PageSize)
	}
	if uint32(id) >= d.numPages {
		return false, fmt.Errorf("storage: repair of invalid page %d", id)
	}
	if n, _ := d.f.ReadAt(d.frame[:], int64(id)*DiskFrameSize); n == DiskFrameSize && verifyFrame(d.frame[:]) {
		return false, nil
	}
	if err := writeFrameTo(d.f, id, payload, lsn); err != nil {
		return false, err
	}
	return true, d.f.Sync()
}

// RebuildWAL replaces a stuck log with a fresh generation, recovering
// from degraded mode without a restart (the ENOSPC probe path). images
// must hold the latest contents of every dirty buffered page — pages
// whose newest image exists only in the poisoned log (the engine
// collects them via BufferPool.DirtyImages before calling, and marks
// them logged again after success).
//
// The acknowledged state is (data file ∪ synced log prefix); the
// rebuild preserves it: the old log's valid prefix is archived, then a
// fresh log containing the current meta record, every dirty image, and
// a commit mark is written to a temp file, fsynced, and renamed over
// the old one. Nothing is acknowledged in between, and a crash at any
// point leaves either the old valid prefix or the complete new
// generation to replay.
func (d *DiskManager) RebuildWAL(images map[PageID][]byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if d.wal == nil {
		return nil
	}
	// The durable valid prefix of the old generation. Flush what we can
	// first (best effort — the writer may be poisoned mid-buffer).
	d.wal.enc.w.Flush()
	oldLog, err := os.ReadFile(d.walPath)
	if err != nil {
		return fmt.Errorf("storage: rebuild: read old wal: %w", err)
	}
	valid, _, _ := scanWAL(oldLog, nil)
	for id, img := range images {
		if len(img) != PageSize {
			return fmt.Errorf("storage: rebuild: image for page %d is %d bytes", id, len(img))
		}
	}

	// Write the new generation. A failed append is sticky in the new
	// log, so only the sync that ends it is checked.
	tmpPath := d.walPath + ".rebuild"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: rebuild: create new wal: %w", err)
	}
	fresh := newWAL(tmp, d.wal.base+valid)
	fresh.stats = d.wal.stats
	_ = fresh.append(walMeta, 0, d.metaRecordLocked(), nil)
	for id, img := range images {
		_ = fresh.append(walPageImage, id, img, nil)
	}
	_ = fresh.appendCommitMark()
	if err := fresh.sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("storage: rebuild: write new wal: %w", err)
	}

	// Preserve the old generation's history before discarding it.
	if d.archiveDir != "" && valid > 0 {
		if _, err := writeSegment(d.archiveDir, oldLog[:valid], d.wal.base); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return fmt.Errorf("storage: rebuild: archive old wal: %w", err)
		}
	}
	if err := os.Rename(tmpPath, d.walPath); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("storage: rebuild: publish new wal: %w", err)
	}
	oldF := d.wal.f
	d.wal = fresh
	d.walGen++
	oldF.Close()
	obsWALRebuilds.Inc()
	return nil
}

// VerifyChecksums reads every page frame in the file and returns the
// IDs of pages whose checksum does not verify (or that are torn
// short). Used by the crash harness and fsck-style tooling.
func (d *DiskManager) VerifyChecksums() ([]PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	var bad []PageID
	for id := PageID(0); uint32(id) < d.numPages; id++ {
		n, err := d.f.ReadAt(d.frame[:], int64(id)*DiskFrameSize)
		if n < DiskFrameSize {
			if err != nil && err != io.EOF {
				return bad, fmt.Errorf("storage: verify page %d: %w", id, err)
			}
			bad = append(bad, id)
			continue
		}
		if !verifyFrame(d.frame[:]) {
			bad = append(bad, id)
		}
	}
	return bad, nil
}

// NumPages returns the number of pages in the file (including meta).
func (d *DiskManager) NumPages() uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.numPages
}

// Stats returns a snapshot of physical I/O counters.
func (d *DiskManager) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Sync flushes the data file (and any pending WAL records) to stable
// storage.
func (d *DiskManager) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if d.wal != nil {
		if err := d.wal.sync(); err != nil {
			return err
		}
	}
	return d.f.Sync()
}

// Close releases the underlying files. Further operations fail. Close
// does not checkpoint; callers wanting a clean (no-recovery) shutdown
// flush the buffer pool and call Checkpoint first, as Engine.Close
// does.
func (d *DiskManager) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var firstErr error
	if d.wal != nil {
		if err := d.wal.close(); err != nil {
			firstErr = err
		}
	}
	if err := d.f.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"predator/internal/obs"
)

// Write-ahead logging. The WAL is a physical redo log of page changes:
// a page's first change in a log generation is logged as its whole
// after-image, every later one as the byte ranges that changed, CRC-
// framed so a torn tail is detected and ignored at replay. The ordering
// invariant is the classic one — a page's log record is durable before
// the page itself is written to the data file — enforced by
// DiskManager, which flushes and fsyncs the WAL ahead of every
// data-file write. Recovery replays the valid record prefix onto the
// data file at open; checkpoints (flush-all + data fsync) archive the
// log into a segment (when archiving is on) and truncate it, which
// starts a new generation.
//
// Record framing (little-endian). The record's LSN is its *global*
// byte offset: the offsets of every log generation concatenate into
// one monotone stream, so an archived history addresses every record
// a database ever logged (the base of the current generation is
// recovered from the archive at open).
//
//	type(1) | pageID(4) | payloadLen(4) | payload | crc32c(4)
//
// where the CRC covers everything before it. Record types:
//
//	walPageImage — payload is the full PageSize after-image of pageID,
//	               or empty for an all-zero page (a fresh allocation)
//	walMeta      — payload is numPages(4) | freeHead(4)
//	walCommit    — empty payload; marks a statement-boundary commit.
//	               Redo ignores it; point-in-time recovery replays up
//	               to (exclusive) a chosen post-commit LSN.
//	walPageDelta — payload is one or more off(2) | len(2) | bytes
//	               ranges, each inside the page, to copy over pageID's
//	               previous contents
//
// A delta is only ever written for a page whose image (or zero-image
// allocation record) is earlier in the same generation, so every delta
// chain a replay meets starts with an image and in-order redo needs
// nothing from the data file — which may hold a torn frame. redo (see
// redo.go) is the only code that interprets page records.
const (
	walPageImage byte = 1
	walMeta      byte = 2
	walCommit    byte = 3
	walPageDelta byte = 4

	walHeaderSize  = 9 // type + pageID + payloadLen
	walTrailerSize = 4 // crc32c
	deltaRangeHdr  = 4 // off(2) + len(2)

	// maxDeltaPayload is the largest delta worth writing: past half a
	// page the image is barely bigger and restarts the chain.
	maxDeltaPayload = PageSize / 2
)

// walTypeNames label the per-type record metrics, indexed by type.
var walTypeNames = [...]string{walPageImage: "image", walMeta: "meta", walCommit: "commit", walPageDelta: "delta"}

// pageRange names changed bytes of a page: [off, off+n).
type pageRange struct {
	off, n uint16
}

// deltaLen returns the payload size of a delta record carrying ranges.
func deltaLen(ranges []pageRange) int {
	size := 0
	for _, r := range ranges {
		size += deltaRangeHdr + int(r.n)
	}
	return size
}

// Process-wide WAL metrics.
var (
	obsWALAppends        = obs.Default.Counter("predator_wal_appends_total")
	obsWALBytes          = obs.Default.Counter("predator_wal_bytes_total")
	obsWALFsyncs         = obs.Default.Counter("predator_wal_fsyncs_total")
	obsWALFsyncSeconds   = obs.Default.Histogram("predator_wal_fsync_seconds")
	obsWALCheckpoints    = obs.Default.Counter("predator_wal_checkpoints_total")
	obsWALRecoveries     = obs.Default.Counter("predator_wal_recoveries_total")
	obsWALRecoveredRecs  = obs.Default.Counter("predator_wal_recovered_records_total")
	obsWALRecoveredBytes = obs.Default.Counter("predator_wal_recovered_bytes_total")

	// Appends and bytes again, split by record type: the image:delta
	// ratio says how much of the log is chain restarts.
	obsWALRecords     [len(walTypeNames)]*obs.Counter
	obsWALRecordBytes [len(walTypeNames)]*obs.Counter
)

func init() {
	for typ, name := range walTypeNames {
		if name != "" {
			obsWALRecords[typ] = obs.Default.Counter("predator_wal_records_total", "type", name)
			obsWALRecordBytes[typ] = obs.Default.Counter("predator_wal_record_bytes_total", "type", name)
		}
	}
}

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// WALStats reports cumulative write-ahead-log activity for one disk
// manager (process-wide equivalents live in the obs registry).
type WALStats struct {
	Appends uint64
	Bytes   uint64
	Fsyncs  uint64
	// FsyncNanos is the cumulative wall time spent inside fsync calls;
	// the engine's query store diffs it around a statement to attribute
	// commit-latency waits.
	FsyncNanos uint64
	// Image* and Delta* split the page records out of Appends/Bytes
	// (the rest are meta and commit records).
	ImageRecords uint64
	ImageBytes   uint64
	DeltaRecords uint64
	DeltaBytes   uint64
}

// wal is the append side of the write-ahead log. It is owned by a
// DiskManager and only ever called with d.mu held, so it needs no lock
// of its own.
type wal struct {
	f      *os.File
	enc    walEncoder
	base   int64 // global LSN of the log's first byte (archived history before it)
	size   int64 // logical end offset within this generation (includes buffered records)
	synced int64 // offset known durable on stable storage
	marked int64 // offset as of the last commit-mark append (or reset)
	err    error // sticky: first append/flush/fsync failure poisons the log
	stats  WALStats
}

// newWAL wraps an open log file positioned at its end.
func newWAL(f *os.File, base int64) *wal {
	return &wal{f: f, enc: walEncoder{w: bufio.NewWriterSize(f, 1<<16)}, base: base}
}

// openWAL creates (truncating) the log file at path. Any previous log
// contents have already been consumed by recovery (and, when archiving
// is on, preserved as a segment). base is the global LSN the new
// generation starts at.
func openWAL(path string, base int64) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open wal %s: %w", path, err)
	}
	return newWAL(f, base), nil
}

// walEncoder frames records straight into a buffered writer: header,
// payload and a running CRC, with no per-record buffer. Write errors
// are sticky in the bufio.Writer, so the pieces are written unchecked
// and the error of the last one — the trailer — reports any of them.
type walEncoder struct {
	w       *bufio.Writer
	crc     uint32
	scratch [walHeaderSize]byte
}

func (e *walEncoder) put(p []byte) {
	e.crc = crc32.Update(e.crc, walCRC, p)
	_, _ = e.w.Write(p) // sticky; surfaced by the trailer write in encode
}

// encode writes one record and returns its framed size. For a
// walPageDelta, payload is the whole page buffer and ranges select the
// bytes to log; every other type logs payload itself (ranges nil). An
// all-zero page image is logged with an empty payload.
func (e *walEncoder) encode(typ byte, page PageID, payload []byte, ranges []pageRange) (int, error) {
	plen := len(payload)
	switch {
	case typ == walPageDelta:
		plen = deltaLen(ranges)
	case typ == walPageImage && isZero(payload):
		payload, plen = nil, 0
	}
	e.crc = 0
	e.scratch[0] = typ
	binary.LittleEndian.PutUint32(e.scratch[1:], uint32(page))
	binary.LittleEndian.PutUint32(e.scratch[5:], uint32(plen))
	e.put(e.scratch[:])
	if typ == walPageDelta {
		for _, r := range ranges {
			binary.LittleEndian.PutUint16(e.scratch[0:], r.off)
			binary.LittleEndian.PutUint16(e.scratch[2:], r.n)
			e.put(e.scratch[:deltaRangeHdr])
			e.put(payload[r.off : int(r.off)+int(r.n)])
		}
	} else {
		e.put(payload)
	}
	binary.LittleEndian.PutUint32(e.scratch[:], e.crc)
	_, err := e.w.Write(e.scratch[:walTrailerSize])
	return walHeaderSize + plen + walTrailerSize, err
}

func isZero(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

// append frames and buffers one record (payload and ranges as for
// walEncoder.encode). The record is not durable until sync; callers
// enforce WAL-before-data ordering. A failed append poisons the log:
// later appends, commits and checkpoints fail fast on the sticky error
// rather than risking a silent durability hole (the fsyncgate rule
// applies to the whole buffered pipeline).
func (l *wal) append(typ byte, page PageID, payload []byte, ranges []pageRange) error {
	if l.err != nil {
		return l.err
	}
	tear := func() {
		// Torn log write: half the record reaches the file, then the
		// process dies. Replay must discard the fragment.
		l.enc.w.Flush()
		var rec bytes.Buffer
		half := walEncoder{w: bufio.NewWriter(&rec)}
		half.encode(typ, page, payload, ranges)
		half.w.Flush()
		l.f.Write(rec.Bytes()[:rec.Len()/2])
	}
	fireFault("walwrite", tear)
	err := fireFaultIO("walwrite", "eio", "enospc")
	if typ == walPageDelta && err == nil {
		// The same faults aimed at the middle of a page's delta chain.
		fireFault("deltawrite", tear)
		err = fireFaultIO("deltawrite", "eio", "enospc")
	}
	if err != nil {
		l.err = fmt.Errorf("storage: wal append: %w", err)
		return l.err
	}
	n, err := l.enc.encode(typ, page, payload, ranges)
	if err != nil {
		l.err = fmt.Errorf("storage: wal append: %w", err)
		return l.err
	}
	l.size += int64(n)
	l.stats.Appends++
	l.stats.Bytes += uint64(n)
	if typ == walPageImage {
		l.stats.ImageRecords++
		l.stats.ImageBytes += uint64(n)
	} else if typ == walPageDelta {
		l.stats.DeltaRecords++
		l.stats.DeltaBytes += uint64(n)
	}
	obsWALAppends.Inc()
	obsWALBytes.Add(int64(n))
	obsWALRecords[typ].Inc()
	obsWALRecordBytes[typ].Add(int64(n))
	return nil
}

// appendCommitMark logs a statement-boundary record if anything has
// been appended since the last mark. The post-mark global LSN is the
// exact point-in-time-recovery target for the statement.
func (l *wal) appendCommitMark() error {
	if l.size == l.marked {
		return nil
	}
	if err := l.append(walCommit, 0, nil, nil); err != nil {
		return err
	}
	l.marked = l.size
	return nil
}

// dirty reports whether records are buffered or unfsynced.
func (l *wal) dirty() bool { return l.size > l.synced }

// sync makes every appended record durable (flush + fsync), observing
// the fsync latency histogram. No-op when already durable. A failed
// fsync is sticky: the kernel may have dropped the very pages it
// failed to write (fsyncgate), so no later sync may report success for
// records appended before the failure.
func (l *wal) sync() error {
	if l.err != nil {
		return l.err
	}
	if !l.dirty() {
		return nil
	}
	if err := l.enc.w.Flush(); err != nil {
		l.err = fmt.Errorf("storage: wal flush: %w", err)
		return l.err
	}
	if err := fireFaultIO("walwrite", "fsyncfail"); err != nil {
		l.err = fmt.Errorf("storage: wal fsync: %w", err)
		return l.err
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("storage: wal fsync: %w", err)
		return l.err
	}
	elapsed := time.Since(start)
	obsWALFsyncSeconds.Observe(elapsed)
	obsWALFsyncs.Inc()
	l.stats.Fsyncs++
	l.stats.FsyncNanos += uint64(elapsed)
	l.synced = l.size
	return nil
}

// reset truncates the log after a checkpoint: every logged change is
// on the data file, so this generation's history is no longer needed
// in the live log (the archive keeps it when archiving is on). The
// global stream continues: the next generation's base advances by the
// truncated size.
func (l *wal) reset() error {
	if l.err != nil {
		return l.err
	}
	l.enc.w.Reset(l.f) // discard buffered records; they describe flushed pages
	if err := l.f.Truncate(0); err != nil {
		l.err = fmt.Errorf("storage: wal truncate: %w", err)
		return l.err
	}
	if _, err := l.f.Seek(0, 0); err != nil {
		l.err = fmt.Errorf("storage: wal seek: %w", err)
		return l.err
	}
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("storage: wal truncate fsync: %w", err)
		return l.err
	}
	l.base += l.size
	l.size = 0
	l.synced = 0
	l.marked = 0
	return nil
}

// close flushes, fsyncs and releases the log file.
func (l *wal) close() error {
	syncErr := l.sync()
	if err := l.f.Close(); err != nil && syncErr == nil {
		return err
	}
	return syncErr
}

// walRecord is one decoded log record handed to scanWAL's callback.
type walRecord struct {
	typ     byte
	page    PageID
	payload []byte
	off     int // byte offset of the record within the scanned buffer
}

// validDelta reports whether payload is a well-formed delta: at least
// one range, every range non-empty, inside the page and followed by
// exactly its bytes. The log comes off a disk, so redo trusts nothing
// scanWAL has not checked.
func validDelta(payload []byte) bool {
	if len(payload) == 0 {
		return false
	}
	for len(payload) > 0 {
		if len(payload) < deltaRangeHdr {
			return false
		}
		off := int(binary.LittleEndian.Uint16(payload[0:]))
		n := int(binary.LittleEndian.Uint16(payload[2:]))
		if n == 0 || off+n > PageSize || deltaRangeHdr+n > len(payload) {
			return false
		}
		payload = payload[deltaRangeHdr+n:]
	}
	return true
}

// scanWAL walks the valid record prefix of log bytes, invoking fn per
// record. It returns the length of the valid prefix and whether the
// log ended in a torn/corrupt record (expected after a mid-append
// crash). A non-nil error from fn aborts the scan.
func scanWAL(log []byte, fn func(rec walRecord) error) (valid int64, torn bool, err error) {
	off := 0
	for {
		if off+walHeaderSize+walTrailerSize > len(log) {
			return int64(off), off < len(log), nil
		}
		typ := log[off]
		page := PageID(binary.LittleEndian.Uint32(log[off+1:]))
		plen := int(binary.LittleEndian.Uint32(log[off+5:]))
		end := off + walHeaderSize + plen + walTrailerSize
		if plen < 0 || plen > PageSize || end > len(log) {
			return int64(off), true, nil
		}
		want := binary.LittleEndian.Uint32(log[end-walTrailerSize:])
		if crc32.Checksum(log[off:end-walTrailerSize], walCRC) != want {
			return int64(off), true, nil
		}
		payload := log[off+walHeaderSize : off+walHeaderSize+plen]
		switch typ {
		case walPageImage:
			if plen != PageSize && plen != 0 {
				return int64(off), true, nil
			}
		case walPageDelta:
			if !validDelta(payload) {
				return int64(off), true, nil
			}
		case walMeta:
			if plen != 8 {
				return int64(off), true, nil
			}
		case walCommit:
			if plen != 0 {
				return int64(off), true, nil
			}
		default:
			return int64(off), true, nil
		}
		if fn != nil {
			if err := fn(walRecord{typ: typ, page: page, payload: payload, off: off}); err != nil {
				return int64(off), false, err
			}
		}
		off = end
	}
}

// RecoveryInfo describes the redo pass that ran (if any) when the
// database was opened.
type RecoveryInfo struct {
	// Ran is true when a non-empty WAL was found and replayed.
	Ran bool
	// Records is the number of valid records applied.
	Records int
	// Images and Deltas count the page records among them.
	Images, Deltas int
	// Bytes is the length of the valid record prefix.
	Bytes int64
	// TornTail is true when the log ended in a torn/corrupt record
	// (expected after a mid-append crash; the fragment is discarded).
	TornTail bool
}

// replayWAL applies the valid prefix of the log at walPath onto data
// file f (see redo). Torn or corrupt records end the replay — they can
// only be the unsynced tail.
//
// When archiveDir is non-empty the valid prefix is preserved as an
// archive segment before the log is truncated, so the point-in-time
// history stays gapless across crashes. base is the end of the
// archived history; the returned nextBase is the global LSN the next
// log generation starts at. Two cases: normally the crashed
// generation began at base and is archived there; but if the crash
// hit a checkpoint's window between archiving and truncation, the
// newest segment already holds exactly these bytes — then the
// generation began at base-valid, nothing new is archived, and the
// stream does not advance again.
func replayWAL(walPath string, f *os.File, archiveDir string, base int64) (RecoveryInfo, int64, error) {
	var info RecoveryInfo
	log, err := os.ReadFile(walPath)
	if err != nil {
		if os.IsNotExist(err) {
			return info, base, nil
		}
		return info, base, fmt.Errorf("storage: read wal %s: %w", walPath, err)
	}
	if len(log) == 0 {
		return info, base, nil
	}
	info.Ran = true

	// Establish this generation's true start before stamping frames.
	valid, torn, _ := scanWAL(log, nil)
	genBase, nextBase := base, base+valid
	alreadyArchived := false
	if archiveDir != "" && valid > 0 && lastSegmentMatches(archiveDir, log[:valid]) {
		alreadyArchived = true
		genBase, nextBase = base-valid, base
	}

	r := newRedo(f)
	_, _, err = scanWAL(log, func(rec walRecord) error {
		info.Records++
		return r.apply(rec, genBase+int64(rec.off))
	})
	if err == nil {
		err = r.flush()
	}
	if err != nil {
		return info, base, fmt.Errorf("storage: recovery: %w", err)
	}
	info.Images, info.Deltas = r.images, r.deltas
	info.TornTail = torn
	info.Bytes = valid
	if err := healFramesAfterReplay(f); err != nil {
		return info, base, err
	}
	if err := f.Sync(); err != nil {
		return info, base, fmt.Errorf("storage: recovery: data fsync: %w", err)
	}
	if archiveDir != "" && valid > 0 && !alreadyArchived {
		// Preserve the replayed prefix in the archive before discarding
		// it, so restores spanning this crash see a contiguous history.
		if _, err := writeSegment(archiveDir, log[:valid], genBase); err != nil {
			return info, base, fmt.Errorf("storage: recovery: archive replayed log: %w", err)
		}
	}
	// The log is fully applied; truncate so it is not replayed twice.
	if err := os.Truncate(walPath, 0); err != nil {
		return info, base, fmt.Errorf("storage: recovery: truncate wal: %w", err)
	}
	obsWALRecoveries.Inc()
	obsWALRecoveredRecs.Add(int64(info.Records))
	obsWALRecoveredBytes.Add(info.Bytes)
	return info, nextBase, nil
}

// healFramesAfterReplay stamps valid empty frames over pages that the
// meta page accounts for but that were never durably written — a crash
// between the file extension and its first page write leaves either a
// short file or an all-zero hole. Genuinely torn pages (non-zero, bad
// CRC) are left alone so reads surface ErrChecksum.
func healFramesAfterReplay(f *os.File) error {
	var meta [DiskFrameSize]byte
	if n, err := f.ReadAt(meta[:], 0); n < DiskFrameSize || !verifyFrame(meta[:]) {
		// No readable meta page: nothing to heal against (the open path
		// will report the real error).
		_ = err
		return nil
	}
	numPages := binary.LittleEndian.Uint32(meta[frameHeaderSize+8:])
	var frame [DiskFrameSize]byte
	zero := make([]byte, PageSize)
	for id := PageID(1); uint32(id) < numPages; id++ {
		n, err := f.ReadAt(frame[:], int64(id)*DiskFrameSize)
		if err != nil && err != io.EOF {
			return fmt.Errorf("storage: recovery: heal read page %d: %w", id, err)
		}
		if n == DiskFrameSize && verifyFrame(frame[:]) {
			continue
		}
		if n < DiskFrameSize || isZero(frame[:n]) {
			if err := writeFrameTo(f, id, zero, 0); err != nil {
				return fmt.Errorf("storage: recovery: heal page %d: %w", id, err)
			}
		}
	}
	return nil
}

// encodeMetaPayload renders the meta page contents (the framing CRC is
// added by the frame writer).
func encodeMetaPayload(numPages, freeHead uint32) []byte {
	payload := make([]byte, PageSize)
	binary.LittleEndian.PutUint32(payload[0:], metaMagic)
	binary.LittleEndian.PutUint32(payload[4:], metaVersion)
	binary.LittleEndian.PutUint32(payload[8:], numPages)
	binary.LittleEndian.PutUint32(payload[12:], freeHead)
	return payload
}

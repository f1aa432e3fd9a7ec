package storage

import (
	"encoding/binary"
	"fmt"
	"io"
)

// redo is the one implementation of "apply these log records": crash
// recovery, point-in-time restore, read repair and scrub repair all
// feed it the records scanWAL validated and take the pages it folds.
//
// Per page it keeps the newest image and copies each later delta's
// ranges over it, in log order, in memory; flush then writes every
// folded page to the data file once, stamped with the LSN of the last
// record that touched it, and the meta page last. Applying bytes at
// fixed offsets is idempotent, and since the writer starts every
// delta chain of a generation with an image, a fold never needs the
// data file's own copy of a page — which after a crash may be torn.
//
// Two things bound what a hostile or merely huge log can cost. A delta
// whose image is outside the fold (a chain cut by a spill, below)
// takes its base from the data file, and only from a frame whose
// checksum verifies; without one apply fails rather than invent bytes.
// And once limit pages are folded they are spilled — written out and
// dropped — so memory stays bounded however many pages a log touches.
type redo struct {
	file  frameFile // base of chains cut by a spill and target of flush; nil folds only
	limit int       // folded pages held before spilling

	pages          map[PageID]*redoPage
	metaSeen       bool
	numPages       uint32
	freeHead       uint32
	metaLSN        uint64
	images, deltas int
}

// redoPage is one page being folded.
type redoPage struct {
	buf [PageSize]byte
	lsn uint64 // LSN of the last record applied
}

// frameFile is the part of *os.File redo needs; tests fold onto memory.
type frameFile interface {
	io.ReaderAt
	io.WriterAt
}

// redoFoldLimit caps a fold at 32 MiB of pages.
const redoFoldLimit = 4096

// newRedo starts a fold that flushes onto file (nil = fold only: the
// caller takes pages out of the fold itself).
func newRedo(file frameFile) *redo {
	return &redo{file: file, limit: redoFoldLimit, pages: make(map[PageID]*redoPage)}
}

// apply folds one validated record logged at lsn. Commit marks carry
// nothing to redo.
func (r *redo) apply(rec walRecord, lsn int64) error {
	switch rec.typ {
	case walPageImage:
		p, err := r.page(rec.page, false)
		if err != nil {
			return err
		}
		n := copy(p.buf[:], rec.payload)
		clear(p.buf[n:]) // empty payload: the zero page
		p.lsn = uint64(lsn)
		r.images++
	case walPageDelta:
		p, err := r.page(rec.page, true)
		if err != nil {
			return err
		}
		for d := rec.payload; len(d) > 0; {
			off := int(binary.LittleEndian.Uint16(d[0:]))
			n := int(binary.LittleEndian.Uint16(d[2:]))
			copy(p.buf[off:off+n], d[deltaRangeHdr:])
			d = d[deltaRangeHdr+n:]
		}
		p.lsn = uint64(lsn)
		r.deltas++
	case walMeta:
		r.metaSeen = true
		r.numPages = binary.LittleEndian.Uint32(rec.payload[0:])
		r.freeHead = binary.LittleEndian.Uint32(rec.payload[4:])
		r.metaLSN = uint64(lsn)
	}
	return nil
}

// page returns id's entry in the fold, adding it if absent; needBase
// says the caller is about to apply a delta, so a new entry must start
// from the data file's copy.
func (r *redo) page(id PageID, needBase bool) (*redoPage, error) {
	if p, ok := r.pages[id]; ok {
		return p, nil
	}
	if r.file != nil && len(r.pages) >= r.limit {
		if err := r.spill(); err != nil {
			return nil, err
		}
	}
	p := new(redoPage)
	if needBase {
		var frame [DiskFrameSize]byte
		if r.file == nil {
			return nil, fmt.Errorf("redo page %d: delta without an image before it", id)
		}
		if n, _ := r.file.ReadAt(frame[:], int64(id)*DiskFrameSize); n < DiskFrameSize || !verifyFrame(frame[:]) {
			return nil, fmt.Errorf("redo page %d: delta without an image before it, and no valid frame to apply it to: %w", id, ErrChecksum)
		}
		copy(p.buf[:], frame[frameHeaderSize:])
	}
	r.pages[id] = p
	return p, nil
}

// spill writes the folded pages out and forgets them.
func (r *redo) spill() error {
	for id, p := range r.pages {
		if err := writeFrameTo(r.file, id, p.buf[:], p.lsn); err != nil {
			return fmt.Errorf("redo page %d: %w", id, err)
		}
	}
	clear(r.pages)
	return nil
}

// flush writes what the fold holds: every page, then the meta page if
// a meta record was seen.
func (r *redo) flush() error {
	if err := r.spill(); err != nil {
		return err
	}
	if r.metaSeen {
		if err := writeFrameTo(r.file, 0, encodeMetaPayload(r.numPages, r.freeHead), r.metaLSN); err != nil {
			return fmt.Errorf("redo meta page: %w", err)
		}
	}
	return nil
}

// foldPage folds the records of one page out of log (a whole
// generation or segment starting at global LSN base) and returns the
// page's newest contents and their LSN. image is nil when the log has
// no image of the page to start from; mentioned says whether it has
// any record of the page at all.
func foldPage(log []byte, base int64, id PageID) (image []byte, lsn uint64, mentioned bool) {
	r := newRedo(nil)
	_, _, err := scanWAL(log, func(rec walRecord) error {
		if rec.page != id {
			return nil
		}
		mentioned = true
		return r.apply(rec, base+int64(rec.off))
	})
	p := r.pages[id]
	if err != nil || p == nil {
		return nil, 0, mentioned
	}
	return p.buf[:], p.lsn, true
}

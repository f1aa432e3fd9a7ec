package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"predator/internal/obs"
)

// Background scrubber: paced checksum verification over data pages and
// archived WAL segments, catching silent corruption before a query
// trips over it. A bad page is repaired from the best available
// durable image — the current WAL generation first (always the newest
// content, since changes are logged before frames are written), then
// the newest archived contents, then the base backup — and the repair is
// re-verified. Corrupt archive segments cannot be repaired (they *are*
// the history) and are only reported.
//
// The scrubber reads frames under the disk manager's lock page by
// page, so it never blocks writers for more than one frame probe, and
// it sleeps PagePace between probes to bound its I/O share.

// Process-wide scrub metrics.
var (
	obsScrubPasses     = obs.Default.Counter("predator_scrub_passes_total")
	obsScrubPages      = obs.Default.Counter("predator_scrub_pages_total")
	obsScrubSegments   = obs.Default.Counter("predator_scrub_segments_total")
	obsScrubCorrupt    = obs.Default.Counter("predator_scrub_corrupt_total")
	obsScrubRepairs    = obs.Default.Counter("predator_scrub_repairs_total")
	obsScrubUnrepaired = obs.Default.Counter("predator_scrub_unrepaired_total")
)

// ScrubConfig tunes the background scrubber.
type ScrubConfig struct {
	// PagePace is the pause between page probes (the pacing knob; 0
	// scrubs flat out).
	PagePace time.Duration
	// PassPause is the idle time between full passes.
	PassPause time.Duration
	// BackupDir, when non-empty, names a base backup used as the
	// last-resort repair source.
	BackupDir string
}

// ScrubStatus is a snapshot of scrubber progress for SHOW STORAGE.
type ScrubStatus struct {
	Passes     uint64
	Pages      uint64 // frames probed (cumulative)
	Segments   uint64 // archive segments verified (cumulative)
	Corrupt    uint64 // bad frames/segments found
	Repaired   uint64
	Unrepaired uint64
	Progress   float64 // position within the current pass, 0..1
	LastError  string
	Running    bool
}

// Scrubber owns the background verification loop for one disk manager.
type Scrubber struct {
	disk *DiskManager
	cfg  ScrubConfig

	mu     sync.Mutex
	status ScrubStatus

	stop chan struct{}
	done chan struct{}
}

// NewScrubber creates a scrubber (not yet running) for the disk
// manager. Defaults: 2ms page pace, 30s pass pause.
func NewScrubber(d *DiskManager, cfg ScrubConfig) *Scrubber {
	if cfg.PagePace == 0 {
		cfg.PagePace = 2 * time.Millisecond
	}
	if cfg.PassPause == 0 {
		cfg.PassPause = 30 * time.Second
	}
	return &Scrubber{disk: d, cfg: cfg}
}

// Start launches the background loop. No-op if already running.
func (s *Scrubber) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.status.Running {
		return
	}
	s.status.Running = true
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go s.loop(s.stop, s.done)
}

// Close stops the background loop and waits for it to exit.
func (s *Scrubber) Close() {
	s.mu.Lock()
	if !s.status.Running {
		s.mu.Unlock()
		return
	}
	stop, done := s.stop, s.done
	s.mu.Unlock()
	close(stop)
	<-done
	s.mu.Lock()
	s.status.Running = false
	s.mu.Unlock()
}

// Status snapshots scrubber progress.
func (s *Scrubber) Status() ScrubStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.status
}

// SetBackupDir points the scrubber at a (new) base backup to repair
// from. The engine calls it after each successful BACKUP TO.
func (s *Scrubber) SetBackupDir(dir string) {
	s.mu.Lock()
	s.cfg.BackupDir = dir
	s.mu.Unlock()
}

// backupDir reads the current repair source under the lock.
func (s *Scrubber) backupDir() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.BackupDir
}

func (s *Scrubber) loop(stop, done chan struct{}) {
	defer close(done)
	for {
		s.RunOnce(stop)
		select {
		case <-stop:
			return
		case <-time.After(s.cfg.PassPause):
		}
	}
}

// pace sleeps the page pace, returning false when stopping.
func (s *Scrubber) pace(stop chan struct{}) bool {
	if s.cfg.PagePace <= 0 {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}
	select {
	case <-stop:
		return false
	case <-time.After(s.cfg.PagePace):
		return true
	}
}

// RunOnce scrubs every data page and archived segment once. stop (may
// be nil) aborts the pass early. Safe to call directly from tests and
// fsck-style tooling.
func (s *Scrubber) RunOnce(stop chan struct{}) {
	n := s.disk.NumPages()
	for id := PageID(0); uint32(id) < n; id++ {
		s.mu.Lock()
		s.status.Progress = float64(id) / float64(n)
		s.mu.Unlock()
		if err := s.disk.VerifyPage(id); err != nil {
			s.repairPage(id, err)
		}
		s.bump(func(st *ScrubStatus) { st.Pages++ })
		obsScrubPages.Inc()
		if stop != nil && !s.pace(stop) {
			return
		}
	}
	s.scrubArchive(stop)
	s.bump(func(st *ScrubStatus) { st.Passes++; st.Progress = 1 })
	obsScrubPasses.Inc()
}

func (s *Scrubber) bump(f func(*ScrubStatus)) {
	s.mu.Lock()
	f(&s.status)
	s.mu.Unlock()
}

// repairPage tries the repair sources in freshness order and
// re-verifies the page.
func (s *Scrubber) repairPage(id PageID, probeErr error) {
	obsScrubCorrupt.Inc()
	s.bump(func(st *ScrubStatus) { st.Corrupt++ })
	log := obs.Logger()
	source := ""
	if err := s.disk.RepairPageFromWAL(id); err == nil {
		source = "wal"
	} else if img, lsn, ok := s.newestArchivedImage(id); ok {
		if wrote, err := s.disk.RepairPageFrame(id, img, lsn); err == nil && wrote {
			source = "archive"
		}
	}
	if source == "" && s.backupDir() != "" {
		if img, lsn, ok := s.backupImage(id); ok {
			if wrote, err := s.disk.RepairPageFrame(id, img, lsn); err == nil && wrote {
				source = "backup"
			}
		}
	}
	if err := s.disk.VerifyPage(id); err != nil {
		obsScrubUnrepaired.Inc()
		s.bump(func(st *ScrubStatus) {
			st.Unrepaired++
			st.LastError = fmt.Sprintf("page %d unrepairable: %v", id, probeErr)
		})
		log.Error("scrub: corrupt page unrepairable",
			"page", uint32(id), "error", probeErr.Error())
		return
	}
	obsScrubRepairs.Inc()
	s.bump(func(st *ScrubStatus) { st.Repaired++ })
	log.Warn("scrub: repaired corrupt page",
		"page", uint32(id), "source", source, "error", probeErr.Error())
}

// newestArchivedImage finds the page's latest contents in the archive:
// the fold of the newest segment that mentions it. A segment whose
// records of the page do not start with an image ends the search —
// anything older is stale.
func (s *Scrubber) newestArchivedImage(id PageID) ([]byte, uint64, bool) {
	dir := s.disk.ArchiveDir()
	if dir == "" {
		return nil, 0, false
	}
	segs, err := ListSegments(dir)
	if err != nil {
		return nil, 0, false
	}
	for i := len(segs) - 1; i >= 0; i-- {
		data, err := os.ReadFile(segs[i].Path)
		if err != nil {
			continue
		}
		if img, lsn, mentioned := foldPage(data, segs[i].Start, id); mentioned {
			return img, lsn, img != nil
		}
	}
	return nil, 0, false
}

// backupImage reads the page's frame out of the base backup, if it
// verifies there.
func (s *Scrubber) backupImage(id PageID) ([]byte, uint64, bool) {
	f, err := os.Open(filepath.Join(s.backupDir(), BaseFileName))
	if err != nil {
		return nil, 0, false
	}
	defer f.Close()
	frame := make([]byte, DiskFrameSize)
	if n, _ := f.ReadAt(frame, int64(id)*DiskFrameSize); n < DiskFrameSize {
		return nil, 0, false
	}
	if !verifyFrame(frame) {
		return nil, 0, false
	}
	lsn := binary.LittleEndian.Uint64(frame[8:])
	return frame[frameHeaderSize:], lsn, true
}

// scrubArchive verifies every archived segment's record chain.
func (s *Scrubber) scrubArchive(stop chan struct{}) {
	dir := s.disk.ArchiveDir()
	if dir == "" {
		return
	}
	segs, err := ListSegments(dir)
	if err != nil {
		s.bump(func(st *ScrubStatus) { st.LastError = err.Error() })
		return
	}
	for _, seg := range segs {
		if _, err := VerifySegment(seg); err != nil {
			obsScrubCorrupt.Inc()
			obsScrubUnrepaired.Inc()
			s.bump(func(st *ScrubStatus) {
				st.Corrupt++
				st.Unrepaired++
				st.LastError = err.Error()
			})
			obs.Logger().Error("scrub: corrupt archive segment",
				"segment", filepath.Base(seg.Path), "error", err.Error())
		}
		s.bump(func(st *ScrubStatus) { st.Segments++ })
		obsScrubSegments.Inc()
		if stop != nil && !s.pace(stop) {
			return
		}
	}
}

package storage

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	obspkg "predator/internal/obs"
)

// WAL archiving and point-in-time restore. At every checkpoint (and at
// crash recovery) the retiring log generation is preserved verbatim as
// a segment file in the archive directory before the live log is
// truncated, so the archive holds the complete, contiguous record
// stream since the database was created (or since archiving was
// enabled). Segment names carry the global LSN of their first byte:
//
//	segment-<start lsn, 16 hex digits>.wal
//
// A base backup (BACKUP TO '<dir>') pairs a fuzzy copy of the data
// file with a manifest naming the checkpoint fence LSNs; restore
// copies the base and replays every archived record in [start, target)
// on top of it. Both fences are checkpoints, so the replay begins on a
// generation boundary and rebuilds every page it touches from the
// image that starts the page's chain, never from the copied frame —
// which is what lets the base copy proceed while writers continue.

// Archive metrics (process-wide).
var (
	obsArchiveSegments = obspkg.Default.Counter("predator_storage_archive_segments_total")
	obsArchiveBytes    = obspkg.Default.Counter("predator_storage_archive_bytes_total")
)

// segmentPrefix/-Suffix frame archive file names.
const (
	segmentPrefix = "segment-"
	segmentSuffix = ".wal"

	// BaseFileName and ManifestFileName are the fixed names inside a
	// backup directory.
	BaseFileName     = "base.db"
	ManifestFileName = "MANIFEST.json"
)

// segmentName renders the canonical file name for a segment starting
// at the given global LSN.
func segmentName(start int64) string {
	return fmt.Sprintf("%s%016x%s", segmentPrefix, start, segmentSuffix)
}

// Segment describes one archived WAL segment.
type Segment struct {
	Path  string
	Start int64 // global LSN of the first byte
	Size  int64
}

// End returns the global LSN one past the segment's last byte.
func (s Segment) End() int64 { return s.Start + s.Size }

// ListSegments enumerates the archive directory's segments in LSN
// order. Files that do not match the naming scheme are ignored.
func ListSegments(dir string) ([]Segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("storage: list archive %s: %w", dir, err)
	}
	var segs []Segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		hexPart := strings.TrimSuffix(strings.TrimPrefix(name, segmentPrefix), segmentSuffix)
		start, err := strconv.ParseInt(hexPart, 16, 64)
		if err != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("storage: stat segment %s: %w", name, err)
		}
		segs = append(segs, Segment{Path: filepath.Join(dir, name), Start: start, Size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Start < segs[j].Start })
	return segs, nil
}

// archivedEnd returns the global LSN one past the newest archived byte
// (0 when the archive is empty): the base the next log generation
// continues from.
func archivedEnd(dir string) (int64, error) {
	segs, err := ListSegments(dir)
	if err != nil {
		return 0, err
	}
	var end int64
	for _, s := range segs {
		if s.End() > end {
			end = s.End()
		}
	}
	return end, nil
}

// lastSegmentMatches reports whether the newest archived segment holds
// exactly these log bytes. Crash recovery uses it to recognize a
// checkpoint that archived its generation but died before truncating
// the live log — re-archiving would duplicate the records at shifted
// LSNs.
func lastSegmentMatches(dir string, log []byte) bool {
	segs, err := ListSegments(dir)
	if err != nil || len(segs) == 0 {
		return false
	}
	last := segs[len(segs)-1]
	if last.Size != int64(len(log)) {
		return false
	}
	data, err := os.ReadFile(last.Path)
	if err != nil {
		return false
	}
	return string(data) == string(log)
}

// writeSegment durably stores log bytes as the segment starting at the
// given global LSN: write to a temp file, fsync, rename into place.
// The archive fault point fires here (both the crash and the error
// matrix).
func writeSegment(dir string, log []byte, start int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("storage: create archive dir: %w", err)
	}
	final := filepath.Join(dir, segmentName(start))
	tmp := final + ".tmp"
	fireFault("archive", func() {
		os.WriteFile(tmp, log[:len(log)/2], 0o644)
	})
	if err := fireFaultIO("archive", "eio", "enospc", "fsyncfail"); err != nil {
		return "", fmt.Errorf("storage: archive segment: %w", err)
	}
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", fmt.Errorf("storage: create segment: %w", err)
	}
	if _, err := f.Write(log); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", fmt.Errorf("storage: write segment: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", fmt.Errorf("storage: sync segment: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("storage: close segment: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("storage: publish segment: %w", err)
	}
	syncDir(dir)
	obsArchiveSegments.Inc()
	obsArchiveBytes.Add(int64(len(log)))
	return final, nil
}

// syncDir fsyncs a directory so a rename into it survives a crash
// (best-effort: not every filesystem supports directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// VerifySegment scans an archived segment and reports its record count.
// Archived segments are complete by construction, so a torn tail or a
// bad CRC is corruption, not a crash artifact.
func VerifySegment(seg Segment) (records int, err error) {
	data, err := os.ReadFile(seg.Path)
	if err != nil {
		return 0, fmt.Errorf("storage: read segment %s: %w", seg.Path, err)
	}
	valid, torn, _ := scanWAL(data, func(walRecord) error { records++; return nil })
	if torn || valid != int64(len(data)) {
		return records, fmt.Errorf("storage: segment %s corrupt after %d bytes (%d valid records): %w",
			filepath.Base(seg.Path), valid, records, ErrChecksum)
	}
	return records, nil
}

// BackupManifest records the checkpoint fence around a base backup.
// The base copy is fuzzy — writers continue while it runs — so the
// backup is consistent only once the archive through EndLSN has been
// replayed on top of it; any restore target at or past EndLSN is then
// exact.
type BackupManifest struct {
	// StartLSN is the global LSN of the checkpoint fence taken before
	// the base copy began: every record at or past it must be replayed.
	StartLSN int64 `json:"start_lsn"`
	// EndLSN is the global LSN of the checkpoint taken after the copy
	// finished: the earliest valid restore target.
	EndLSN int64 `json:"end_lsn"`
	// Pages is the page count of the copied data file.
	Pages uint32 `json:"pages"`
	// CreatedAt is when the backup completed (RFC 3339).
	CreatedAt string `json:"created_at"`
}

// WriteManifest stores the manifest in the backup directory, stamping
// CreatedAt if the caller left it empty.
func WriteManifest(dir string, m BackupManifest) error {
	if m.CreatedAt == "" {
		m.CreatedAt = nowRFC3339()
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, ManifestFileName)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("storage: write manifest: %w", err)
	}
	syncDir(dir)
	return nil
}

// ReadManifest loads a backup directory's manifest.
func ReadManifest(dir string) (BackupManifest, error) {
	var m BackupManifest
	data, err := os.ReadFile(filepath.Join(dir, ManifestFileName))
	if err != nil {
		return m, fmt.Errorf("storage: read manifest: %w", err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("storage: parse manifest: %w", err)
	}
	return m, nil
}

// RestoreInfo describes a completed point-in-time restore.
type RestoreInfo struct {
	// TargetLSN is the LSN the restore stopped (exclusively) before.
	TargetLSN int64
	// Segments is how many archive segments contributed records.
	Segments int
	// Records is how many log records were applied.
	Records int
}

// Restore materializes the database as of targetLSN at outPath: the
// base backup in backupDir is copied and every archived record in
// [manifest.StartLSN, targetLSN) is replayed on top. targetLSN <= 0
// means "latest archived". The target must be at or past the backup's
// EndLSN (before that the fuzzy base copy is not yet consistent) and
// at or before the end of the contiguous archived history.
func Restore(backupDir, archiveDir, outPath string, targetLSN int64) (RestoreInfo, error) {
	var info RestoreInfo
	m, err := ReadManifest(backupDir)
	if err != nil {
		return info, err
	}
	segs, err := ListSegments(archiveDir)
	if err != nil {
		return info, err
	}
	// The replay chain: contiguous segments from StartLSN forward.
	var chain []Segment
	next := m.StartLSN
	for _, s := range segs {
		if s.End() <= m.StartLSN {
			continue // history from before the backup fence
		}
		if s.Start > next {
			break // gap: archived history ends at next
		}
		if s.Start != next && !(s.Start <= m.StartLSN && s.End() > m.StartLSN) {
			continue // overlap that neither starts the chain nor extends it
		}
		chain = append(chain, s)
		next = s.End()
	}
	if targetLSN <= 0 {
		targetLSN = next
	}
	info.TargetLSN = targetLSN
	if targetLSN < m.EndLSN {
		return info, fmt.Errorf("storage: restore target lsn %d predates the backup's consistency point %d (the base copy is fuzzy before it)", targetLSN, m.EndLSN)
	}
	if targetLSN > next {
		return info, fmt.Errorf("storage: restore target lsn %d beyond archived history (contiguous through %d)", targetLSN, next)
	}

	// Copy the base.
	if err := copyFile(filepath.Join(backupDir, BaseFileName), outPath); err != nil {
		return info, err
	}
	out, err := os.OpenFile(outPath, os.O_RDWR, 0o644)
	if err != nil {
		return info, fmt.Errorf("storage: open restore target: %w", err)
	}
	defer out.Close()

	// Replay [StartLSN, targetLSN).
	r := newRedo(out)
	for _, s := range chain {
		if s.Start >= targetLSN {
			break
		}
		data, err := os.ReadFile(s.Path)
		if err != nil {
			return info, fmt.Errorf("storage: read segment %s: %w", s.Path, err)
		}
		used := false
		_, torn, err := scanWAL(data, func(rec walRecord) error {
			lsn := s.Start + int64(rec.off)
			if lsn < m.StartLSN || lsn >= targetLSN {
				return nil
			}
			used = true
			info.Records++
			return r.apply(rec, lsn)
		})
		if err != nil {
			return info, fmt.Errorf("storage: restore: %w", err)
		}
		if torn {
			return info, fmt.Errorf("storage: segment %s corrupt: %w", filepath.Base(s.Path), ErrChecksum)
		}
		if used {
			info.Segments++
		}
	}
	if err := r.flush(); err != nil {
		return info, fmt.Errorf("storage: restore: %w", err)
	}
	if err := healFramesAfterReplay(out); err != nil {
		return info, err
	}
	if err := out.Sync(); err != nil {
		return info, fmt.Errorf("storage: restore: fsync: %w", err)
	}
	// A stale WAL next to the restored file must not be replayed over it.
	os.Remove(WALPath(outPath))
	return info, nil
}

// copyFile copies src to dst (truncating) and fsyncs the result.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return fmt.Errorf("storage: open %s: %w", src, err)
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: create %s: %w", dst, err)
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return fmt.Errorf("storage: copy %s: %w", dst, err)
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return fmt.Errorf("storage: sync %s: %w", dst, err)
	}
	return out.Close()
}

// nowRFC3339 stamps manifests (separated for test override).
var nowRFC3339 = func() string { return time.Now().UTC().Format(time.RFC3339) }

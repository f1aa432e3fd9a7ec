package engine

import (
	"fmt"
	"sync"
	"time"

	"predator/internal/core"
	"predator/internal/obs"
	"predator/internal/storage"
	"predator/internal/types"
)

// Storage-resilience behaviour of the engine: the degraded read-only
// mode entered on ENOSPC (mutations shed with a typed retryable
// disk-full fault, reads keep serving, an auto-probe recovers once
// space frees), online backups under a checkpoint fence, and the
// SHOW STORAGE surface. The disk-fault taxonomy it builds on lives in
// internal/storage; the typed wire plumbing in internal/core +
// internal/server.

// Storage gauges mirrored onto /metrics (updated at statement
// boundaries, checkpoints, probes and SHOW STORAGE).
var (
	gaugeStorageReadOnly   = obs.Default.Gauge("predator_storage_readonly")
	gaugeStorageCurrentLSN = obs.Default.Gauge("predator_storage_current_lsn")
	gaugeStorageWALBytes   = obs.Default.Gauge("predator_storage_wal_bytes")
	gaugeStorageArchiveLag = obs.Default.Gauge("predator_storage_archive_lag_bytes")
)

// probeInterval rate-limits degraded-mode recovery probes: at most one
// WAL rebuild attempt per interval however many mutations arrive.
const probeInterval = time.Second

// readOnlyState tracks degraded mode (guarded by its own mutex — it is
// consulted on every mutating statement and flipped rarely).
type readOnlyState struct {
	mu        sync.Mutex
	active    bool
	reason    string
	lastProbe time.Time
}

// enterDegradedReadOnly flips the engine into read-only mode (no-op if
// already degraded). Reads keep serving; mutating statements shed with
// a retryable disk-full fault until a probe rebuilds the WAL.
func (e *Engine) enterDegradedReadOnly(cause error) {
	e.ro.mu.Lock()
	wasActive := e.ro.active
	e.ro.active = true
	e.ro.reason = cause.Error()
	// Make the next mutation probe immediately: the operator may have
	// already freed space by the time traffic returns.
	e.ro.lastProbe = time.Time{}
	e.ro.mu.Unlock()
	if !wasActive {
		gaugeStorageReadOnly.Set(1)
		obs.Logger().Error("storage degraded: engine is read-only until space frees",
			"component", "engine", "cause", cause.Error())
	}
}

// readOnlyReason returns ("", false) when healthy, or the degraded
// reason.
func (e *Engine) readOnlyReason() (string, bool) {
	e.ro.mu.Lock()
	defer e.ro.mu.Unlock()
	return e.ro.reason, e.ro.active
}

// shedMutation is the typed fault a mutating statement gets in
// degraded mode. Retryable: the engine auto-probes, so a client retry
// after backoff succeeds once space frees.
func (e *Engine) shedMutation(reason string) error {
	return core.Faultf(core.FaultDiskFull, "statement",
		"engine is in read-only degraded mode (disk full): %s", reason)
}

// gateMutation is called before every mutating statement. In degraded
// mode it runs (rate-limited) recovery probes; it returns a non-nil
// shed fault while the engine stays read-only.
func (e *Engine) gateMutation() error {
	e.ro.mu.Lock()
	if !e.ro.active {
		e.ro.mu.Unlock()
		return nil
	}
	reason := e.ro.reason
	probe := time.Since(e.ro.lastProbe) >= probeInterval
	if probe {
		e.ro.lastProbe = time.Now()
	}
	e.ro.mu.Unlock()
	if !probe {
		return e.shedMutation(reason)
	}
	if e.probeRecover() {
		return nil
	}
	return e.shedMutation(reason)
}

// probeRecover attempts to leave degraded mode by rebuilding the
// poisoned WAL: under the exclusive checkpoint lock (no writers, no
// concurrent checkpoint) it snapshots every dirty buffered page,
// writes a fresh log generation containing the meta record + those
// images + a commit mark, archives the old generation's valid prefix,
// and swaps the logs. Returns true when the engine is writable again.
func (e *Engine) probeRecover() bool {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	e.ro.mu.Lock()
	active := e.ro.active
	e.ro.mu.Unlock()
	if !active {
		return true
	}
	images := e.pool.DirtyImages()
	if err := e.disk.RebuildWAL(images); err != nil {
		obs.Logger().Info("storage degraded: recovery probe failed",
			"component", "engine", "error", err.Error())
		return false
	}
	// The rebuilt log holds the snapshot images; stop unpin/eviction
	// from re-appending them.
	e.pool.MarkAllLogged()
	e.ro.mu.Lock()
	e.ro.active = false
	e.ro.reason = ""
	e.ro.mu.Unlock()
	gaugeStorageReadOnly.Set(0)
	e.updateStorageGauges()
	obs.Logger().Info("storage recovered: read-only degraded mode cleared",
		"component", "engine", "dirty_pages", len(images))
	return true
}

// classifyStorageErr maps a failed mutating statement's error onto the
// typed fault taxonomy: ENOSPC enters degraded mode and sheds
// retryable; a sticky WAL failure (fsyncgate) is a non-retryable
// storage fault. Errors that already carry a fault class — and
// ordinary statement errors with a healthy log — pass through.
func (e *Engine) classifyStorageErr(err error) error {
	if err == nil {
		return nil
	}
	if core.FaultClassOf(err) != core.FaultNone {
		return err
	}
	if storage.IsDiskFull(err) {
		e.enterDegradedReadOnly(err)
		return core.NewFault(core.FaultDiskFull, "statement", err)
	}
	if walErr := e.disk.WALErr(); walErr != nil {
		if storage.IsDiskFull(walErr) {
			e.enterDegradedReadOnly(walErr)
			return core.NewFault(core.FaultDiskFull, "statement", err)
		}
		// fsyncgate: buffered records may already be lost; no later
		// append or commit may be acknowledged. Not retryable.
		return core.NewFault(core.FaultStorage, "statement", err)
	}
	return err
}

// updateStorageGauges mirrors the disk status onto /metrics.
func (e *Engine) updateStorageGauges() {
	st := e.disk.Status()
	gaugeStorageCurrentLSN.Set(st.CurrentLSN)
	gaugeStorageWALBytes.Set(st.WALBytes)
	gaugeStorageArchiveLag.Set(st.ArchiveLag)
	if _, ro := e.readOnlyReason(); ro {
		gaugeStorageReadOnly.Set(1)
	} else {
		gaugeStorageReadOnly.Set(0)
	}
}

// Backup takes a consistent online base backup into dir (the SQL
// BACKUP TO statement). Writers continue during the copy: a checkpoint
// fence before it fixes StartLSN (everything older is in the base or
// the archive), the copy itself is fuzzy, and a second checkpoint
// after it fixes EndLSN — the manifest's consistency point. Restore
// replays the archive across the copy window, so any target at or
// past EndLSN is exact. Requires WAL archiving.
func (e *Engine) Backup(dir string) (storage.BackupManifest, error) {
	var m storage.BackupManifest
	if e.disk.ArchiveDir() == "" {
		return m, fmt.Errorf("engine: BACKUP requires WAL archiving (open the database with an archive directory)")
	}
	if e.disk.Durability() == storage.DurabilityNone {
		return m, fmt.Errorf("engine: BACKUP requires durability (the WAL is disabled)")
	}
	// Fence 1: everything before StartLSN is durably in the data file
	// and the archive.
	if err := e.Checkpoint(); err != nil {
		return m, fmt.Errorf("engine: backup fence checkpoint: %w", err)
	}
	m.StartLSN = e.disk.CurrentLSN()
	if err := e.disk.CopyBaseTo(dir); err != nil {
		return m, err
	}
	// Fence 2: every write that raced the copy is now archived, so the
	// fuzzy base is repairable from the chain up to EndLSN.
	if err := e.Checkpoint(); err != nil {
		return m, fmt.Errorf("engine: backup closing checkpoint: %w", err)
	}
	m.EndLSN = e.disk.CurrentLSN()
	m.Pages = e.disk.NumPages()
	if err := storage.WriteManifest(dir, m); err != nil {
		return m, err
	}
	if e.scrubber != nil {
		e.scrubber.SetBackupDir(dir)
	}
	e.updateStorageGauges()
	obs.Logger().Info("online backup complete",
		"component", "engine", "dir", dir,
		"start_lsn", m.StartLSN, "end_lsn", m.EndLSN, "pages", m.Pages)
	return m, nil
}

// Scrubber exposes the background scrubber (nil when disabled).
func (e *Engine) Scrubber() *storage.Scrubber { return e.scrubber }

// StorageStatus combines the disk, degraded-mode and scrubber state
// (the programmatic SHOW STORAGE).
type StorageStatus struct {
	Disk           storage.DiskStatus
	ReadOnly       bool
	ReadOnlyReason string
	Scrub          storage.ScrubStatus
}

// StorageStatus snapshots the resilience state.
func (e *Engine) StorageStatus() StorageStatus {
	st := StorageStatus{Disk: e.disk.Status()}
	st.ReadOnlyReason, st.ReadOnly = e.readOnlyReason()
	if e.scrubber != nil {
		st.Scrub = e.scrubber.Status()
	}
	return st
}

// execShowStorage renders SHOW STORAGE: one wide row so operators (and
// tests) address fields by column name.
func (e *Engine) execShowStorage() (*Result, error) {
	e.updateStorageGauges()
	st := e.StorageStatus()
	sch := types.NewSchema(
		types.Column{Name: "current_lsn", Kind: types.KindInt},
		types.Column{Name: "durable_lsn", Kind: types.KindInt},
		types.Column{Name: "wal_bytes", Kind: types.KindInt},
		types.Column{Name: "wal_image_bytes", Kind: types.KindInt},
		types.Column{Name: "wal_delta_bytes", Kind: types.KindInt},
		types.Column{Name: "archiving", Kind: types.KindBool},
		types.Column{Name: "archive_lag_bytes", Kind: types.KindInt},
		types.Column{Name: "read_only", Kind: types.KindBool},
		types.Column{Name: "read_only_reason", Kind: types.KindString},
		types.Column{Name: "wal_stuck", Kind: types.KindString},
		types.Column{Name: "scrub_running", Kind: types.KindBool},
		types.Column{Name: "scrub_passes", Kind: types.KindInt},
		types.Column{Name: "scrub_progress", Kind: types.KindFloat},
		types.Column{Name: "scrub_corrupt", Kind: types.KindInt},
		types.Column{Name: "scrub_repaired", Kind: types.KindInt},
		types.Column{Name: "scrub_unrepaired", Kind: types.KindInt},
		types.Column{Name: "scrub_last_error", Kind: types.KindString},
	)
	row := types.Row{
		types.NewInt(st.Disk.CurrentLSN),
		types.NewInt(st.Disk.DurableLSN),
		types.NewInt(st.Disk.WALBytes),
		types.NewInt(st.Disk.WALImageBytes),
		types.NewInt(st.Disk.WALDeltaBytes),
		types.NewBool(st.Disk.Archiving),
		types.NewInt(st.Disk.ArchiveLag),
		types.NewBool(st.ReadOnly),
		types.NewString(st.ReadOnlyReason),
		types.NewString(st.Disk.WALStuck),
		types.NewBool(st.Scrub.Running),
		types.NewInt(int64(st.Scrub.Passes)),
		types.NewFloat(st.Scrub.Progress),
		types.NewInt(int64(st.Scrub.Corrupt)),
		types.NewInt(int64(st.Scrub.Repaired)),
		types.NewInt(int64(st.Scrub.Unrepaired)),
		types.NewString(st.Scrub.LastError),
	}
	return &Result{Schema: sch, Rows: []types.Row{row}}, nil
}

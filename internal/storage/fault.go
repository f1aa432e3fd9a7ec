package storage

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Deterministic fault injection for the storage layer, used by the
// crash-recovery and disk-fault harnesses (internal/crashtest) to prove
// that redo recovery and the disk-fault taxonomy work rather than
// assert them. It follows the PREDATOR_FAULT convention established for
// executor supervision (internal/isolate): a spec names a protocol
// point and a failure mode,
//
//	point:mode[:n]
//
// Points (all inside DiskManager/WAL, fired with d.mu held):
//
//	walwrite   — appending a record to the write-ahead log (error
//	             modes), or the WAL fsync (fsyncfail mode)
//	deltawrite — appending a delta record: walwrite narrowed to a page
//	             in the middle of its image + deltas chain
//	pagewrite  — writing a page frame to the data file
//	metawrite  — writing the meta page frame
//	checkpoint — after the data-file sync, before WAL truncation
//	             (fsyncfail targets the data-file sync itself)
//	archive    — copying the WAL into an archive segment
//
// Process-fatal modes (the original crash matrix):
//
//	crash — exit the process immediately (like SIGKILL: nothing flushed)
//	torn  — perform the first half of the write, then exit (torn page /
//	        torn log record)
//	hang  — block forever; the supervising parent must SIGKILL us
//
// Disk-fault modes (the I/O error matrix). These do not kill the
// process: the operation at the point returns a synthetic error, which
// must surface through the storage fault taxonomy (sticky WAL errors,
// degraded read-only mode, typed wire faults):
//
//	eio       — the write fails with EIO (media error)
//	enospc    — the write fails with ENOSPC (disk full)
//	fsyncfail — the fsync at the point fails with EIO (fsyncgate: the
//	            kernel may already have dropped the dirty data, so the
//	            failure must be sticky and fatal for buffered records)
//
// The optional :n makes a process-fatal fault fire on the n-th hit of
// the point (default 1), which is how the harness varies crash timing
// per seed. Disk-fault modes instead fire on every hit from the n-th
// onward, until disarmed — a full disk stays full — so in-process tests
// arm and clear them around the workload with ArmFault.
//
// The spec is read from the PREDATOR_FAULT environment variable once
// per process; specs whose point is not a storage point are ignored, so
// the same variable keeps working for executor-protocol faults.
// ArmFault replaces the plan programmatically (tests).
const FaultEnv = "PREDATOR_FAULT"

// faultExitCode distinguishes injected crashes from ordinary failures
// (the same code the executor fault machinery uses).
const faultExitCode = 42

var storagePoints = map[string]bool{
	"walwrite": true, "deltawrite": true, "pagewrite": true,
	"metawrite": true, "checkpoint": true, "archive": true,
}

// errorModes are the disk-fault modes that inject an error return
// instead of killing the process.
var errorModes = map[string]bool{"eio": true, "enospc": true, "fsyncfail": true}

type diskFault struct {
	point     string
	mode      string
	remaining atomic.Int64
}

var (
	faultEnvOnce sync.Once
	faultMu      sync.Mutex
	faultPlan    atomic.Pointer[diskFault]
)

// parseFaultSpec parses point:mode[:n]; nil when malformed or aimed at
// a non-storage point (a bad spec must never break storage).
func parseFaultSpec(spec string) *diskFault {
	parts := strings.SplitN(spec, ":", 3)
	if len(parts) < 2 || !storagePoints[parts[0]] {
		return nil
	}
	p := &diskFault{point: parts[0], mode: parts[1]}
	n := int64(1)
	if len(parts) == 3 {
		v, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil || v < 1 {
			return nil
		}
		n = v
	}
	p.remaining.Store(n)
	return p
}

// loadFault returns the active plan, parsing PREDATOR_FAULT on first use.
func loadFault() *diskFault {
	faultEnvOnce.Do(func() {
		if spec := os.Getenv(FaultEnv); spec != "" {
			faultMu.Lock()
			if faultPlan.Load() == nil { // ArmFault may have run first
				faultPlan.Store(parseFaultSpec(spec))
			}
			faultMu.Unlock()
		}
	})
	return faultPlan.Load()
}

// ArmFault installs (or, with an empty spec, clears) a fault plan
// programmatically. In-process disk-fault tests use it to bracket a
// workload with an injected I/O failure; the environment-variable path
// stays authoritative for re-exec'd crash children.
func ArmFault(spec string) {
	loadFault() // settle the env race first
	faultMu.Lock()
	defer faultMu.Unlock()
	if spec == "" {
		faultPlan.Store(nil)
		return
	}
	faultPlan.Store(parseFaultSpec(spec))
}

// fireFault triggers a configured process-fatal fault (crash, torn,
// hang) if it targets point and its countdown has elapsed. torn
// performs the partial write for torn mode (nil = crash without
// partial effects). Error modes are handled by fireFaultIO instead.
func fireFault(point string, torn func()) {
	p := loadFault()
	if p == nil || p.point != point || errorModes[p.mode] {
		return
	}
	if p.remaining.Add(-1) != 0 {
		return
	}
	switch p.mode {
	case "crash":
		fmt.Fprintf(os.Stderr, "storage: injected crash at %s\n", point)
		os.Exit(faultExitCode)
	case "torn":
		if torn != nil {
			torn()
		}
		fmt.Fprintf(os.Stderr, "storage: injected torn write at %s\n", point)
		os.Exit(faultExitCode)
	case "hang":
		// Block forever; the harness SIGKILLs us. A sleep loop rather
		// than select{} so the runtime's deadlock detector does not
		// turn the hang into an orderly exit.
		fmt.Fprintf(os.Stderr, "storage: injected hang at %s\n", point)
		for {
			time.Sleep(time.Hour)
		}
	}
}

// fireFaultIO returns the injected I/O error when the armed fault
// targets point with one of the accepted error modes. Unlike the
// process-fatal modes, an error fault keeps firing once its countdown
// has elapsed (a full disk stays full until space frees): the n-th and
// every later hit fail until the plan is disarmed.
func fireFaultIO(point string, modes ...string) error {
	p := loadFault()
	if p == nil || p.point != point || !errorModes[p.mode] {
		return nil
	}
	ok := false
	for _, m := range modes {
		if m == p.mode {
			ok = true
			break
		}
	}
	if !ok {
		return nil
	}
	if p.remaining.Add(-1) > 0 {
		return nil
	}
	switch p.mode {
	case "enospc":
		return fmt.Errorf("injected disk full at %s: %w", point, syscall.ENOSPC)
	case "fsyncfail":
		return fmt.Errorf("injected fsync failure at %s: %w", point, syscall.EIO)
	default: // eio
		return fmt.Errorf("injected I/O error at %s: %w", point, syscall.EIO)
	}
}

package core

import (
	"errors"
	"fmt"
)

// FaultClass classifies what went wrong when a UDF invocation fails.
// The distinction matters for recovery policy: a UDF fault leaves the
// executor healthy and reusable, while executor, protocol and timeout
// faults mean the executor process has been (or must be) destroyed.
type FaultClass uint8

const (
	// FaultNone marks an error that carries no fault classification.
	FaultNone FaultClass = iota
	// FaultUDF is the UDF's own failure (error return, bad class,
	// unknown name, resource-limit trip). The executor stays usable.
	FaultUDF
	// FaultExecutor is an executor process failure: it crashed, exited,
	// could not be started, or its pipe broke mid-conversation.
	FaultExecutor
	// FaultProtocol is a framing or encoding violation on the executor
	// pipe — a babbling child. The supervisor kills the process, since
	// a desynchronized stream can never be trusted again.
	FaultProtocol
	// FaultTimeout is a deadline expiry (per-invocation, per-setup or
	// statement deadline). The supervisor SIGKILLs the executor.
	FaultTimeout
	// FaultQuota is a tenant resource-quota trip (memory or CPU budget
	// exceeded). The statement is aborted; executors stay healthy.
	FaultQuota
	// FaultOverload is load shedding: the server or a circuit breaker
	// rejected the work before it started. Always safe to retry.
	FaultOverload
	// FaultExecutorLost is a multiplexed crossing stranded by the death
	// of its shared executor process (a sibling stream's crash, a
	// supervisor kill, a fleet restart). Unlike FaultExecutor it is
	// retryable: the fleet routes a resubmission to a healthy executor,
	// so the failure is transient by construction.
	FaultExecutorLost
	// FaultDiskFull is a mutating statement shed because the storage
	// layer is in degraded read-only mode (ENOSPC). The statement never
	// touched data, and the engine auto-probes for freed space, so a
	// retry after backoff is safe and expected to eventually succeed.
	FaultDiskFull
	// FaultStorage is a storage-layer failure that is not transient: a
	// poisoned write-ahead log (failed fsync), an unreadable page, or
	// an archiving failure. Retrying cannot help until an operator (or
	// the scrubber) intervenes.
	FaultStorage
	// FaultCanceled is an operator cancellation (KILL <query-id>): the
	// statement was aborted deliberately between rows. Executors stay
	// healthy, and an automatic retry would defeat the KILL, so it is
	// not retryable.
	FaultCanceled
)

// String names the class for logs and error text.
func (c FaultClass) String() string {
	switch c {
	case FaultUDF:
		return "udf"
	case FaultExecutor:
		return "executor"
	case FaultProtocol:
		return "protocol"
	case FaultTimeout:
		return "timeout"
	case FaultQuota:
		return "quota"
	case FaultOverload:
		return "overload"
	case FaultExecutorLost:
		return "executor-lost"
	case FaultDiskFull:
		return "disk-full"
	case FaultStorage:
		return "storage"
	case FaultCanceled:
		return "canceled"
	default:
		return "none"
	}
}

// Fault is a classified UDF-execution error. It wraps the underlying
// cause and records the protocol operation that failed.
type Fault struct {
	Class FaultClass
	// Op is the operation in flight: "start", "setup", "invoke",
	// "callback", "ping", "statement".
	Op  string
	Err error
}

// NewFault builds a classified fault.
func NewFault(class FaultClass, op string, err error) *Fault {
	return &Fault{Class: class, Op: op, Err: err}
}

// Faultf builds a classified fault from a format string.
func Faultf(class FaultClass, op, format string, args ...any) *Fault {
	return &Fault{Class: class, Op: op, Err: fmt.Errorf(format, args...)}
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("%s fault during %s: %v", f.Class, f.Op, f.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (f *Fault) Unwrap() error { return f.Err }

// FaultClassOf extracts the fault class from an error chain
// (FaultNone when the error carries no classification).
func FaultClassOf(err error) FaultClass {
	if err == nil {
		return FaultNone // before the errors.As target, which escapes
	}
	var f *Fault
	if errors.As(err, &f) {
		return f.Class
	}
	return FaultNone
}

// IsTimeout reports whether the error is a deadline-expiry fault.
func IsTimeout(err error) bool { return FaultClassOf(err) == FaultTimeout }

// Retryable reports whether the failed work can safely be resubmitted
// as-is: overload sheds never started the statement, timeout kills are
// transient by construction, an executor lost under a multiplexed
// stream was a casualty, not a cause, and a disk-full shed clears once
// space frees. Quota, UDF, executor, protocol and (non-transient)
// storage faults are deterministic — retrying without change would
// fail again.
func Retryable(err error) bool {
	switch FaultClassOf(err) {
	case FaultOverload, FaultTimeout, FaultExecutorLost, FaultDiskFull:
		return true
	default:
		return false
	}
}

// Fatal reports whether the fault destroyed (or requires destroying)
// the executor that produced it.
func (f *Fault) Fatal() bool {
	return f.Class == FaultExecutor || f.Class == FaultProtocol || f.Class == FaultTimeout
}

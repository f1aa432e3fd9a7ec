package isolate

import (
	"time"

	"predator/internal/core"
	"predator/internal/obs"
)

// Supervision is the policy the parent enforces on executor processes.
// A zero value means "defaults" (see withDefaults); explicit zero
// semantics are documented per field.
type Supervision struct {
	// StartTimeout bounds process launch plus the readiness handshake.
	StartTimeout time.Duration
	// SetupTimeout bounds one setup round trip (native bind / VM load).
	SetupTimeout time.Duration
	// InvokeTimeout bounds one invocation including all of its
	// callbacks. Zero means no per-invocation bound: only the
	// statement deadline (core.Ctx.Deadline), if any, applies.
	InvokeTimeout time.Duration
	// PingTimeout bounds the fleet's idle-executor health probe.
	PingTimeout time.Duration
	// ShutdownGrace is how long Close waits for a polite exit before
	// escalating to SIGKILL.
	ShutdownGrace time.Duration
	// MaxRestarts caps restart attempts after a start or setup failure
	// (so a UDF whose executor can never come up fails the query after
	// a bounded effort instead of retrying forever).
	MaxRestarts int
	// RestartBackoff is the delay before the first restart; it doubles
	// per attempt.
	RestartBackoff time.Duration
	// BreakerFailures is the per-UDF circuit-breaker threshold: that
	// many fatal faults (executor crash, protocol violation, timeout)
	// within BreakerWindow open the breaker, which fails fast until a
	// half-open probe succeeds. 0 = govern's default (5); negative
	// disables the breaker.
	BreakerFailures int
	// BreakerWindow is the breaker's failure-counting window (0 = 10s).
	BreakerWindow time.Duration
	// BreakerCooldown is the open state's duration before a half-open
	// probe is admitted (0 = 2s).
	BreakerCooldown time.Duration
}

// DefaultSupervision is the policy applied where none is configured.
var DefaultSupervision = Supervision{
	StartTimeout:   10 * time.Second,
	SetupTimeout:   10 * time.Second,
	InvokeTimeout:  0, // unbounded unless a statement deadline applies
	PingTimeout:    time.Second,
	ShutdownGrace:  time.Second,
	MaxRestarts:    2,
	RestartBackoff: 25 * time.Millisecond,
}

// withDefaults fills unset fields from DefaultSupervision.
func (s Supervision) withDefaults() Supervision {
	d := DefaultSupervision
	if s.StartTimeout <= 0 {
		s.StartTimeout = d.StartTimeout
	}
	if s.SetupTimeout <= 0 {
		s.SetupTimeout = d.SetupTimeout
	}
	if s.PingTimeout <= 0 {
		s.PingTimeout = d.PingTimeout
	}
	if s.ShutdownGrace <= 0 {
		s.ShutdownGrace = d.ShutdownGrace
	}
	if s.MaxRestarts < 0 {
		s.MaxRestarts = 0
	}
	if s.RestartBackoff <= 0 {
		s.RestartBackoff = d.RestartBackoff
	}
	return s
}

// Stats are cumulative supervision counters for the whole process,
// exposed for tests and operational visibility.
type Stats struct {
	Starts      int64 // executor processes launched
	Invocations int64 // Invoke calls entered
	Timeouts    int64 // deadline expiries that killed an executor
	Kills       int64 // SIGKILLs delivered (timeouts, protocol faults, impolite shutdowns)
	Restarts    int64 // start/setup retry attempts
}

// The supervision counters live in the process-wide obs registry
// (predator_isolate_*); these handles are the package's write path.
var (
	cStarts      = obs.Default.Counter("predator_isolate_executor_starts_total")
	cInvocations = obs.Default.Counter("predator_isolate_invocations_total")
	cTimeouts    = obs.Default.Counter("predator_isolate_timeouts_total")
	cKills       = obs.Default.Counter("predator_isolate_kills_total")
	cRestarts    = obs.Default.Counter("predator_isolate_restarts_total")
	cExecutorCPU = obs.Default.Counter("predator_isolate_executor_cpu_ns_total")
)

// countFault records a classified invocation failure by fault class
// (predator_isolate_faults_total{class="..."}).
func countFault(err error) {
	if class := core.FaultClassOf(err); class != core.FaultNone {
		obs.Default.Counter("predator_isolate_faults_total", "class", class.String()).Inc()
	}
}

// ReadStats snapshots the process-wide supervision counters.
//
// Deprecated: the counters now live in the obs registry under
// predator_isolate_* (SHOW STATS, /metrics); this accessor remains as a
// typed view for existing callers and reads the same underlying values.
func ReadStats() Stats {
	return Stats{
		Starts:      cStarts.Value(),
		Invocations: cInvocations.Value(),
		Timeouts:    cTimeouts.Value(),
		Kills:       cKills.Value(),
		Restarts:    cRestarts.Value(),
	}
}

// startSupervised launches a private executor and opens the UDF's
// stream on it, retrying with exponential backoff on start/setup
// failures up to sup.MaxRestarts times. Deterministic rejections
// (FaultUDF — unknown native name, corrupt class) are returned
// immediately: restarting cannot fix the UDF itself.
func startSupervised(sup Supervision, spec MuxSpec) (*MuxStream, error) {
	sup = sup.withDefaults()
	backoff := sup.RestartBackoff
	var err error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			cRestarts.Inc()
			obs.Logger().Warn("restarting UDF executor",
				"component", "isolate", "attempt", attempt,
				"max_restarts", sup.MaxRestarts, "backoff", backoff, "error", err)
			time.Sleep(backoff)
			backoff *= 2
		}
		var m *MuxExecutor
		if m, err = startMux(sup, true); err == nil {
			var s *MuxStream
			if s, _, err = m.OpenStream("", spec.UDF, spec.Token, spec.Setup); err == nil {
				return s, nil
			}
			m.Close()
			if core.FaultClassOf(err) == core.FaultUDF {
				return nil, err
			}
		}
		if attempt >= sup.MaxRestarts {
			return nil, err
		}
	}
}

// deadlineFor merges the per-invocation bound with the statement
// deadline, returning the earliest (zero = unbounded).
func deadlineFor(invokeTimeout time.Duration, ctx *core.Ctx) time.Time {
	var dl time.Time
	if invokeTimeout > 0 {
		dl = time.Now().Add(invokeTimeout)
	}
	if ctx != nil && !ctx.Deadline.IsZero() && (dl.IsZero() || ctx.Deadline.Before(dl)) {
		dl = ctx.Deadline
	}
	return dl
}

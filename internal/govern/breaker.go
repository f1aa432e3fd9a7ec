package govern

import (
	"fmt"
	"sync"
	"time"

	"predator/internal/obs"
)

// BreakerConfig tunes one circuit breaker.
type BreakerConfig struct {
	// Failures is the number of fatal failures within Window that opens
	// the breaker (0 = default 5; negative disables the breaker).
	Failures int
	// Window is the sliding failure-counting window (0 = 10s).
	Window time.Duration
	// Cooldown is how long an open breaker rejects before letting one
	// half-open probe through (0 = 2s).
	Cooldown time.Duration
}

// Breaker defaults.
const (
	defaultBreakerFailures = 5
	defaultBreakerWindow   = 10 * time.Second
	defaultBreakerCooldown = 2 * time.Second
)

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Failures == 0 {
		c.Failures = defaultBreakerFailures
	}
	if c.Window <= 0 {
		c.Window = defaultBreakerWindow
	}
	if c.Cooldown <= 0 {
		c.Cooldown = defaultBreakerCooldown
	}
	return c
}

// Breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// BreakerOpenError is the fail-fast rejection of an open breaker.
// Retryable: the failure is the callee's, not the caller's — back off
// and retry after the cooldown.
type BreakerOpenError struct {
	Name  string
	Until time.Duration // time remaining before the next half-open probe
}

// Error implements error.
func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("govern: %s circuit breaker is open (next probe in %v)", e.Name, e.Until.Round(time.Millisecond))
}

// Breaker is a three-state circuit breaker: Closed counts fatal
// failures in a sliding window; crossing the threshold Opens it
// (fail-fast); after the cooldown one half-open probe is admitted and
// its outcome closes or re-opens the circuit. All transitions are
// mutex-guarded — the guarded operations are process crossings, so a
// lock (not lock-free atomics) is the right cost model.
type Breaker struct {
	name string
	cfg  BreakerConfig

	mu          sync.Mutex
	state       int
	failures    int       // failures observed in the current window
	windowStart time.Time // start of the current counting window
	openedAt    time.Time
	probing     bool // a half-open probe is in flight
	nOpens      int64
	nSheds      int64

	// The process-wide counters sum every breaker of a name for
	// /metrics; Status reads this breaker's own counts above.
	opens *obs.Counter
	sheds *obs.Counter
	gauge *obs.Gauge
}

// NewBreaker builds a breaker named for metrics
// (predator_udf_breaker_*{udf="<name>"}).
func NewBreaker(name string, cfg BreakerConfig) *Breaker {
	b := &Breaker{
		name:  name,
		cfg:   cfg.withDefaults(),
		opens: obs.Default.Counter("predator_udf_breaker_opens_total", "udf", name),
		sheds: obs.Default.Counter("predator_udf_breaker_sheds_total", "udf", name),
		gauge: obs.Default.Gauge("predator_udf_breaker_state", "udf", name),
	}
	return b
}

// Allow reports whether a call may proceed: nil to proceed (the caller
// must Record the outcome), or a *BreakerOpenError to fail fast.
func (b *Breaker) Allow() error {
	if b == nil || b.cfg.Failures < 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return nil
	case breakerOpen:
		if since := time.Since(b.openedAt); since >= b.cfg.Cooldown {
			b.state = breakerHalfOpen
			b.probing = true
			b.gauge.Set(breakerHalfOpen)
			return nil // the probe
		}
		b.shed()
		return &BreakerOpenError{Name: b.name, Until: b.cfg.Cooldown - time.Since(b.openedAt)}
	default: // half-open
		if !b.probing {
			b.probing = true
			return nil
		}
		b.shed()
		return &BreakerOpenError{Name: b.name, Until: 0}
	}
}

// Record feeds one call outcome back. fatal should be true for
// failures that indicate the callee itself is broken (executor crash,
// protocol violation, timeout) — plain UDF errors are the caller's
// data's fault and must not open the breaker.
func (b *Breaker) Record(fatal bool) {
	if b == nil || b.cfg.Failures < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.probing = false
		if fatal {
			b.open(time.Now())
			return
		}
		// Probe succeeded: the callee recovered.
		b.state = breakerClosed
		b.failures = 0
		b.gauge.Set(breakerClosed)
	case breakerClosed:
		if !fatal {
			return
		}
		now := time.Now()
		if b.windowStart.IsZero() || now.Sub(b.windowStart) > b.cfg.Window {
			b.windowStart = now
			b.failures = 0
		}
		b.failures++
		if b.failures >= b.cfg.Failures {
			b.open(now)
		}
	}
}

// open trips the breaker; the caller holds b.mu.
func (b *Breaker) open(now time.Time) {
	b.state = breakerOpen
	b.openedAt = now
	b.nOpens++
	b.opens.Inc()
	b.gauge.Set(breakerOpen)
}

// shed counts one fail-fast rejection; the caller holds b.mu.
func (b *Breaker) shed() {
	b.nSheds++
	b.sheds.Inc()
}

// BreakerStatus is a point-in-time snapshot for SHOW UDFS.
type BreakerStatus struct {
	State    string // "closed", "open" or "half-open"
	Failures int    // failures in the current window (closed state)
	Opens    int64  // times the breaker has opened
	Sheds    int64  // calls rejected while open
}

// Status snapshots the breaker (zero value for a nil breaker).
func (b *Breaker) Status() BreakerStatus {
	if b == nil {
		return BreakerStatus{State: "closed"}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st := BreakerStatus{Failures: b.failures, Opens: b.nOpens, Sheds: b.nSheds}
	switch b.state {
	case breakerOpen:
		st.State = "open"
	case breakerHalfOpen:
		st.State = "half-open"
	default:
		st.State = "closed"
	}
	return st
}

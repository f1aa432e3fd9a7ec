// Package fleet runs UDF crossings on a fixed-size fleet of shared,
// stream-multiplexed executor processes. Where the paper's isolated
// designs pay one executor process per UDF per query, the fleet keeps
// process count O(cores): every query opens a lightweight stream on one
// of Size pre-forked executors, streams from many sessions interleave
// on each pipe, and a child-side warm cache keyed by (tenant, UDF,
// setup fingerprint) lets repeat queries skip VM setup entirely.
//
// Admission is governed by a weighted fair queue (internal/govern):
// tenants sharing the fleet are scheduled by virtual time with a global
// stream cap and optional per-tenant in-flight caps, and over-cap work
// is shed retryably instead of queued unboundedly. Executor death is
// survived: resident streams fail with the retryable FaultExecutorLost
// class, a watcher replaces the process, and sibling streams on other
// executors never notice.
package fleet

import (
	"fmt"
	"sync"
	"time"

	"predator/internal/core"
	"predator/internal/govern"
	"predator/internal/isolate"
	"predator/internal/obs"
	"predator/internal/types"
)

// Options configures a fleet. The zero value of every field has a
// usable default.
type Options struct {
	// Size is the number of executor processes (default 4). This is the
	// fleet's whole budget: no workload can make it fork more.
	Size int
	// Supervision is the per-process supervision policy.
	Supervision isolate.Supervision
	// MaxStreamsPerExec caps resident streams per executor (default 64).
	// Size*MaxStreamsPerExec is the global stream cap fed to admission.
	MaxStreamsPerExec int
	// TenantStreams caps one tenant's in-flight crossings (default 0 =
	// the global cap; fairness between tenants still applies).
	TenantStreams int
	// AdmissionWait bounds how long an over-cap crossing waits before
	// being shed retryably (default 1s).
	AdmissionWait time.Duration
	// PingInterval is the health-check cadence for idle executors and
	// the restart cadence for dead ones (default 500ms).
	PingInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.Size <= 0 {
		o.Size = 4
	}
	if o.MaxStreamsPerExec <= 0 {
		o.MaxStreamsPerExec = 64
	}
	if o.AdmissionWait <= 0 {
		o.AdmissionWait = time.Second
	}
	if o.PingInterval <= 0 {
		o.PingInterval = 500 * time.Millisecond
	}
	return o
}

// restartBackoff spaces restart attempts for a crash-looping slot.
const restartBackoff = 100 * time.Millisecond

// Fleet metrics (predator_fleet_*).
var (
	gExecutors   = obs.Default.Gauge("predator_fleet_executors")
	gResident    = obs.Default.Gauge("predator_fleet_resident_streams")
	cOpens       = obs.Default.Counter("predator_fleet_stream_opens_total")
	cReuses      = obs.Default.Counter("predator_fleet_stream_reuses_total")
	cWarmHits    = obs.Default.Counter("predator_fleet_warm_hits_total")
	cRestarts    = obs.Default.Counter("predator_fleet_restarts_total")
	cSheds       = obs.Default.Counter("predator_fleet_sheds_total")
	cInvocations = obs.Default.Counter("predator_fleet_invocations_total")
	cLost        = obs.Default.Counter("predator_fleet_lost_streams_total")
)

// worker is one fleet slot: an executor process that is replaced in
// place when it dies.
type worker struct {
	slot int

	// startMu serializes process starts for this slot.
	startMu sync.Mutex

	// The remaining fields are guarded by the fleet mutex.
	mx        *isolate.MuxExecutor
	resident  int // streams open on this worker (busy + idle)
	restarts  int // deaths observed (the watcher replaces the process)
	nextRetry time.Time
}

// lease is one checked-out stream. Between uses it parks in the fleet's
// idle cache so a repeat crossing for the same (tenant, UDF, token)
// pays zero setup and zero open round trips.
type lease struct {
	w      *worker
	mx     *isolate.MuxExecutor
	s      *isolate.MuxStream
	key    string
	tenant string
	seq    uint64 // idle-LRU stamp
}

// Fleet implements isolate.Multiplexer over Size executor processes.
type Fleet struct {
	opts Options
	fq   *govern.FairQueue

	mu      sync.Mutex
	workers []*worker
	idle    map[string][]*lease
	idleSeq uint64
	closed  bool

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New pre-forks a fleet. Slots whose executor fails to start are left
// empty and retried by the supervisor; New itself only fails on a
// closed-world misconfiguration (never on a crashing child).
func New(opts Options) *Fleet {
	opts = opts.withDefaults()
	globalCap := opts.Size * opts.MaxStreamsPerExec
	tenantCap := opts.TenantStreams
	if tenantCap <= 0 || tenantCap > globalCap {
		tenantCap = globalCap
	}
	f := &Fleet{
		opts: opts,
		fq:   govern.NewFairQueue("fleet", globalCap, tenantCap),
		idle: make(map[string][]*lease),
		stop: make(chan struct{}),
	}
	for i := 0; i < opts.Size; i++ {
		w := &worker{slot: i}
		f.workers = append(f.workers, w)
		if _, err := f.startWorker(w); err != nil {
			obs.Logger().Warn("fleet executor failed to start; will retry",
				"component", "fleet", "slot", i, "error", err)
		}
	}
	f.wg.Add(1)
	go f.supervise()
	return f
}

// SetTenantWeight adjusts a tenant's fair-scheduling weight (default 1).
func (f *Fleet) SetTenantWeight(tenant string, w float64) {
	f.fq.SetWeight(tenant, w)
}

// startWorker launches (or relaunches) the slot's executor process and
// arms a watcher for its death.
func (f *Fleet) startWorker(w *worker) (*isolate.MuxExecutor, error) {
	w.startMu.Lock()
	defer w.startMu.Unlock()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, fmt.Errorf("fleet: closed")
	}
	if w.mx != nil && w.mx.Alive() {
		mx := w.mx
		f.mu.Unlock()
		return mx, nil
	}
	f.mu.Unlock()
	mx, err := isolate.StartMux(f.opts.Supervision)
	if err != nil {
		f.mu.Lock()
		w.nextRetry = time.Now().Add(restartBackoff)
		f.mu.Unlock()
		return nil, err
	}
	f.mu.Lock()
	w.mx = mx
	f.mu.Unlock()
	f.wg.Add(1)
	go f.watch(w, mx)
	return mx, nil
}

// watch waits for one executor process to die and cleans up after it:
// idle leases resident on it are dropped, the slot is marked for
// restart, and the death is counted. In-flight streams need no help —
// they are already failing with FaultExecutorLost.
func (f *Fleet) watch(w *worker, mx *isolate.MuxExecutor) {
	defer f.wg.Done()
	select {
	case <-mx.Done():
	case <-f.stop:
		return
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	for key, list := range f.idle {
		kept := list[:0]
		for _, l := range list {
			if l.mx == mx {
				w.resident--
				continue
			}
			kept = append(kept, l)
		}
		if len(kept) == 0 {
			delete(f.idle, key)
		} else {
			f.idle[key] = kept
		}
	}
	if w.mx == mx {
		w.mx = nil
		w.restarts++
		w.nextRetry = time.Now().Add(restartBackoff)
	}
	f.mu.Unlock()
	cRestarts.Inc()
	obs.Logger().Warn("fleet executor died",
		"component", "fleet", "slot", w.slot, "pid", mx.PID(), "error", mx.DeadErr())
	mx.Close()
}

// supervise periodically restarts dead slots, health-pings fully idle
// executors, and refreshes the fleet gauges.
func (f *Fleet) supervise() {
	defer f.wg.Done()
	t := time.NewTicker(f.opts.PingInterval)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
		}
		f.mu.Lock()
		alive, resident := 0, 0
		var toStart []*worker
		var toPing []*isolate.MuxExecutor
		busy := f.busyPerWorkerLocked()
		for _, w := range f.workers {
			if w.mx != nil && w.mx.Alive() {
				alive++
				resident += w.resident
				if busy[w] == 0 {
					toPing = append(toPing, w.mx)
				}
			} else if w.mx == nil && time.Now().After(w.nextRetry) {
				toStart = append(toStart, w)
			}
		}
		closed := f.closed
		f.mu.Unlock()
		gExecutors.Set(int64(alive))
		gResident.Set(int64(resident))
		if closed {
			return
		}
		for _, mx := range toPing {
			// A failed ping destroys the executor; the watcher cleans up.
			_ = mx.Ping(0)
		}
		for _, w := range toStart {
			if _, err := f.startWorker(w); err != nil {
				obs.Logger().Warn("fleet executor restart failed; will retry",
					"component", "fleet", "slot", w.slot, "error", err)
			}
		}
	}
}

// busyPerWorkerLocked counts non-idle streams per worker (resident
// minus parked leases); only fully idle executors are pinged, so a
// health probe never races a long-running invocation's deadline.
func (f *Fleet) busyPerWorkerLocked() map[*worker]int {
	busy := make(map[*worker]int, len(f.workers))
	for _, w := range f.workers {
		busy[w] = w.resident
	}
	for _, list := range f.idle {
		for _, l := range list {
			busy[l.w]--
		}
	}
	return busy
}

// leaseKey scopes warm reuse: same tenant, same UDF, same setup bytes.
func leaseKey(tenant string, spec isolate.MuxSpec) string {
	return tenant + "\x00" + spec.UDF + "\x00" + spec.Token
}

// tenantOf resolves the crossing's tenant for admission and keying.
func tenantOf(ctx *core.Ctx) string {
	if ctx != nil && ctx.Tenant != nil {
		return ctx.Tenant.Name()
	}
	return "default"
}

// acquire admits the crossing and checks out a stream for it.
func (f *Fleet) acquire(ctx *core.Ctx, spec isolate.MuxSpec) (*lease, error) {
	tenant := tenantOf(ctx)
	if err := f.fq.Acquire(tenant, f.opts.AdmissionWait); err != nil {
		cSheds.Inc()
		return nil, core.NewFault(core.FaultOverload, "invoke", err)
	}
	l, err := f.lease(tenant, spec)
	if err != nil {
		f.fq.Release(tenant)
		return nil, err
	}
	l.tenant = tenant
	return l, nil
}

// lease finds a stream: parked idle lease first (zero crossings), then
// a stream opened on the best worker — warm ones preferred, then least
// loaded, evicting the least recently used idle lease when every
// executor is at its stream cap. Admission caps total in-flight work at
// the fleet's stream capacity, so an admitted crossing always finds or
// frees a slot unless executors are mid-restart.
func (f *Fleet) lease(tenant string, spec isolate.MuxSpec) (*lease, error) {
	key := leaseKey(tenant, spec)
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			return nil, core.Faultf(core.FaultOverload, "invoke", "fleet: closed")
		}
		if l := f.popIdleLocked(key); l != nil {
			f.mu.Unlock()
			cReuses.Inc()
			cWarmHits.Inc()
			return l, nil
		}
		w := f.pickWorkerLocked(tenant, spec)
		if w == nil {
			if !f.evictIdleLocked() {
				// Every slot is busy or restarting; brief backoff, retry.
				f.mu.Unlock()
				time.Sleep(restartBackoff / 4)
				lastErr = core.Faultf(core.FaultOverload, "invoke", "fleet has no stream capacity")
				continue
			}
			f.mu.Unlock()
			continue
		}
		w.resident++
		mx := w.mx
		f.mu.Unlock()
		var err error
		if mx == nil {
			mx, err = f.startWorker(w)
			if err != nil {
				f.unreserve(w)
				lastErr = err
				continue
			}
		}
		s, warm, err := mx.OpenStream(tenant, spec.UDF, spec.Token, spec.Setup)
		if err != nil {
			f.unreserve(w)
			if core.FaultClassOf(err) == core.FaultUDF {
				// Deterministic setup rejection (bad class, unknown
				// native): retrying on another process cannot help.
				return nil, err
			}
			lastErr = err
			continue
		}
		cOpens.Inc()
		if warm {
			cWarmHits.Inc()
		}
		return &lease{w: w, mx: mx, s: s, key: key}, nil
	}
	if lastErr == nil {
		lastErr = core.Faultf(core.FaultExecutorLost, "invoke", "fleet: no executor available")
	}
	return nil, lastErr
}

// popIdleLocked reuses a parked lease for the key, skipping (and
// accounting for) leases stranded on executors that died since parking.
func (f *Fleet) popIdleLocked(key string) *lease {
	list := f.idle[key]
	for len(list) > 0 {
		l := list[len(list)-1]
		list = list[:len(list)-1]
		if len(list) == 0 {
			delete(f.idle, key)
		} else {
			f.idle[key] = list
		}
		if l.mx.Alive() && l.w.mx == l.mx {
			return l
		}
		l.w.resident--
	}
	return nil
}

// pickWorkerLocked chooses the executor for a new stream: one already
// warm for the key and under its cap, else the least-resident live (or
// restartable) slot under its cap.
func (f *Fleet) pickWorkerLocked(tenant string, spec isolate.MuxSpec) *worker {
	var best *worker
	now := time.Now()
	for _, w := range f.workers {
		if w.resident >= f.opts.MaxStreamsPerExec {
			continue
		}
		up := w.mx != nil && w.mx.Alive()
		if !up && (w.mx != nil || now.Before(w.nextRetry)) {
			continue
		}
		if up && w.mx.HasWarm(tenant, spec.UDF, spec.Token) {
			return w
		}
		if best == nil || w.resident < best.resident {
			best = w
		}
	}
	return best
}

// evictIdleLocked drops the least recently used parked lease to free a
// stream slot, telling its executor to close the stream (the warm
// binding stays cached child-side).
func (f *Fleet) evictIdleLocked() bool {
	var victim *lease
	var victimKey string
	var victimIdx int
	for key, list := range f.idle {
		for i, l := range list {
			if victim == nil || l.seq < victim.seq {
				victim, victimKey, victimIdx = l, key, i
			}
		}
	}
	if victim == nil {
		return false
	}
	list := f.idle[victimKey]
	f.idle[victimKey] = append(list[:victimIdx], list[victimIdx+1:]...)
	if len(f.idle[victimKey]) == 0 {
		delete(f.idle, victimKey)
	}
	victim.w.resident--
	victim.mx.CloseStream(victim.s)
	return true
}

// unreserve rolls back a reserved-but-unopened stream slot.
func (f *Fleet) unreserve(w *worker) {
	f.mu.Lock()
	w.resident--
	f.mu.Unlock()
}

// releaseLease parks a healthy stream for reuse or drops a dead one.
func (f *Fleet) releaseLease(l *lease, invokeErr error) {
	fatal := invokeErr != nil && core.FaultClassOf(invokeErr) != core.FaultUDF
	f.mu.Lock()
	if fatal || f.closed || !l.mx.Alive() || l.w.mx != l.mx {
		l.w.resident--
		f.mu.Unlock()
		if fatal && core.FaultClassOf(invokeErr) == core.FaultExecutorLost {
			cLost.Inc()
		}
		return
	}
	l.seq = f.idleSeq
	f.idleSeq++
	f.idle[l.key] = append(f.idle[l.key], l)
	f.mu.Unlock()
}

// MuxInvoke implements isolate.Multiplexer: one scalar crossing on a
// fleet stream.
func (f *Fleet) MuxInvoke(ctx *core.Ctx, spec isolate.MuxSpec, args []types.Value) (types.Value, error) {
	l, err := f.acquire(ctx, spec)
	if err != nil {
		return types.Value{}, err
	}
	cInvocations.Inc()
	out, err := l.s.Invoke(ctx, args)
	tenant := l.tenant // a parked lease is the next acquirer's to write
	f.releaseLease(l, err)
	f.fq.Release(tenant)
	return out, err
}

// MuxInvokeBatch implements isolate.Multiplexer: one batched crossing
// on a fleet stream.
func (f *Fleet) MuxInvokeBatch(ctx *core.Ctx, spec isolate.MuxSpec, arity int, args []types.Value, out []core.BatchResult) error {
	l, err := f.acquire(ctx, spec)
	if err != nil {
		return err
	}
	cInvocations.Inc()
	err = l.s.InvokeBatch(ctx, arity, args, out)
	tenant := l.tenant
	f.releaseLease(l, err)
	f.fq.Release(tenant)
	return err
}

// ExecutorInfo is one slot's state for SHOW EXECUTORS.
type ExecutorInfo struct {
	Slot     int
	PID      int
	State    string // "up" or "down"
	Resident int    // open streams (busy + idle)
	Idle     int    // parked reusable streams
	Warm     int    // warm (tenant, UDF, token) cache entries
	Restarts int
	LastPing time.Duration // age of the last successful health probe (-1 = never)
}

// Snapshot reports every slot, up or down.
func (f *Fleet) Snapshot() []ExecutorInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]ExecutorInfo, 0, len(f.workers))
	busy := f.busyPerWorkerLocked()
	for _, w := range f.workers {
		info := ExecutorInfo{Slot: w.slot, State: "down", Restarts: w.restarts, LastPing: -1}
		if w.mx != nil && w.mx.Alive() {
			info.State = "up"
			info.PID = w.mx.PID()
			info.Resident = w.resident
			info.Idle = w.resident - busy[w]
			info.Warm = w.mx.WarmCount()
			if age := w.mx.LastPingAge(); age < time.Duration(1<<62-1) {
				info.LastPing = age
			}
		}
		out = append(out, info)
	}
	return out
}

// Size reports the configured fleet size.
func (f *Fleet) Size() int { return f.opts.Size }

// AliveExecutors reports how many slots currently have a live process.
func (f *Fleet) AliveExecutors() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, w := range f.workers {
		if w.mx != nil && w.mx.Alive() {
			n++
		}
	}
	return n
}

// InFlight reports admitted crossings (diagnostics; the govern queue is
// the source of truth).
func (f *Fleet) InFlight() int { return f.fq.InFlight() }

// Close shuts every executor down and stops the supervisor. In-flight
// crossings fail with FaultExecutorLost; callers drain queries first.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.idle = make(map[string][]*lease)
	var all []*isolate.MuxExecutor
	for _, w := range f.workers {
		if w.mx != nil {
			all = append(all, w.mx)
			w.mx = nil
		}
	}
	f.mu.Unlock()
	f.stopOnce.Do(func() { close(f.stop) })
	for _, mx := range all {
		mx.Close()
	}
	f.wg.Wait()
	gExecutors.Set(0)
	gResident.Set(0)
	return nil
}

var _ isolate.Multiplexer = (*Fleet)(nil)

package isolate

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"predator/internal/core"
	"predator/internal/govern"
	"predator/internal/inline"
	"predator/internal/jvm"
	"predator/internal/obs"
	"predator/internal/types"
)

// udf implements core.UDF over an executor process, covering Design 2
// (native isolated) and Design 4 (VM isolated). Without a fleet the UDF
// owns a private executor with a single stream, started lazily on the
// first invocation and reused until Close — analogous to the paper's
// one-executor-per-UDF-per-query lifecycle with its startup cost
// amortized over the relation's tuples.
type udf struct {
	name   string
	args   []types.Kind
	ret    types.Kind
	design core.Design
	sup    Supervision

	// Setup for the executor (one of):
	nativeName string
	vm         *VMSetup

	// Froid translation result, computed parent-side at registration:
	// a translatable body can run inlined in the plan (Design-1 speed,
	// the verifier supplies the safety) while this udf remains the
	// fallback for everything the planner does not inline.
	prog *inline.Program
	bail string

	// mu serializes crossings on the private executor and guards own,
	// its sole stream (nil until started, and again after a fault).
	mu  sync.Mutex
	own *MuxStream
	mux Multiplexer  // optional shared executor fleet; nil = own executor
	tok atomic.Value // cached setup fingerprint (string)

	// started latches on the first Invoke: from then on the execution
	// topology (fleet, supervision) is frozen and late attach
	// calls are refused — silently reconfiguring a UDF that already has
	// live executors would strand them.
	started atomic.Bool

	// brk is the per-UDF circuit breaker (created lazily so it sees the
	// final supervision config). quarantined flips when the breaker of a
	// fleet-shared UDF opens: from then on the UDF runs on its own
	// private executor and never touches shared processes again, so a
	// crash-looping UDF cannot poison healthy tenants' executors.
	brkOnce     sync.Once
	brk         *govern.Breaker
	quarantined atomic.Bool
}

// Multiplexer runs UDF crossings on shared, stream-multiplexed executor
// processes. internal/fleet implements it; the indirection keeps
// isolate free of a dependency cycle.
type Multiplexer interface {
	MuxInvoke(ctx *core.Ctx, spec MuxSpec, args []types.Value) (types.Value, error)
	MuxInvokeBatch(ctx *core.Ctx, spec MuxSpec, arity int, args []types.Value, out []core.BatchResult) error
}

// MuxSpec identifies a UDF binding to a multiplexer: the name, a setup
// fingerprint (so a replaced UDF never recycles stale warm state), and
// the setup needed to bind it cold.
type MuxSpec struct {
	UDF   string
	Token string
	Setup StreamSetup
}

// NewNativeIsolated builds a Design 2 UDF: the named function (which
// must be in the executor binary's NativeTable) runs out of process.
func NewNativeIsolated(name string, args []types.Kind, ret types.Kind) core.UDF {
	return &udf{
		name: name, args: args, ret: ret, sup: DefaultSupervision,
		design: core.DesignNativeIsolated, nativeName: name,
		bail: "native-code", // no bytecode to translate
	}
}

// NewVMIsolated builds a Design 4 UDF: Jaguar bytecode hosted by a VM
// in a separate executor process.
func NewVMIsolated(name string, args []types.Kind, ret types.Kind, setup VMSetup) core.UDF {
	s := setup
	u := &udf{
		name: name, args: args, ret: ret, sup: DefaultSupervision,
		design: core.DesignVMIsolated, vm: &s,
	}
	// Attempt Froid translation parent-side. Translate re-verifies the
	// class, so a body that inlines carries the same safety proof the
	// child VM would have enforced; bodies that bail keep the executor.
	c, err := jvm.DecodeClass(s.ClassBytes)
	if err != nil {
		u.bail = inline.ReasonOf(err)
		return u
	}
	method := s.Method
	if method == "" {
		method = name
	}
	if p, err := inline.Translate(c, method, s.Limits); err == nil {
		u.prog = p
	} else {
		u.bail = inline.ReasonOf(err)
	}
	return u
}

// InlineProgram implements core.Inlinable.
func (u *udf) InlineProgram() (*inline.Program, string) { return u.prog, u.bail }

// WithInlineDisabled keeps an isolated UDF's crossings even when its
// body translated (ablation benchmarks and the NOINLINE registration
// path). Must be called before the first Invoke.
func WithInlineDisabled(u core.UDF) core.UDF {
	iu, ok := u.(*udf)
	if !ok || iu.lateAttach("WithInlineDisabled") {
		return u
	}
	iu.prog = nil
	iu.bail = "disabled"
	return iu
}

// lateAttach refuses a post-start reconfiguration: the documented
// "must be called before the first Invoke" contract, now enforced. The
// call is a no-op (the running topology stays as it is) and the
// misconfiguration is logged instead of silently half-applying.
func (u *udf) lateAttach(what string) bool {
	if !u.started.Load() {
		return false
	}
	obs.Logger().Error("isolate: configuration after first Invoke ignored",
		"component", "isolate", "udf", u.name, "option", what)
	return true
}

// WithSupervision overrides the UDF's supervision policy (deadlines,
// restart budget). Must be called before the first Invoke; later calls
// are ignored with an error log.
func WithSupervision(u core.UDF, sup Supervision) core.UDF {
	iu, ok := u.(*udf)
	if !ok || iu.lateAttach("WithSupervision") {
		return u
	}
	iu.sup = sup.withDefaults()
	return iu
}

// WithFleet routes the UDF's crossings through a shared multiplexed
// executor fleet instead of a private executor. Must be called before
// the first Invoke; later calls are ignored with an error log. A
// quarantined UDF (breaker opened on fatal faults) leaves the fleet
// for a private executor.
func WithFleet(u core.UDF, m Multiplexer) core.UDF {
	iu, ok := u.(*udf)
	if !ok || iu.lateAttach("WithFleet") {
		return u
	}
	iu.mux = m
	return iu
}

func (u *udf) Name() string           { return u.name }
func (u *udf) ArgKinds() []types.Kind { return u.args }
func (u *udf) ReturnKind() types.Kind { return u.ret }
func (u *udf) Design() core.Design    { return u.design }

// muxSpec describes this UDF to the fleet. The token is a hash of the
// encoded setup payload (class bytes, method, limits or native name), so
// a CREATE OR REPLACE with new bytecode can never hit stale warm state.
func (u *udf) muxSpec() MuxSpec {
	setup := StreamSetup{Native: u.nativeName, VM: u.vm}
	tok, _ := u.tok.Load().(string)
	if tok == "" {
		h := fnv.New64a()
		h.Write(appendSetup(nil, setup))
		tok = fmt.Sprintf("%016x", h.Sum64())
		u.tok.Store(tok)
	}
	return MuxSpec{UDF: u.name, Token: tok, Setup: setup}
}

// onOwn runs one crossing on the UDF's private executor, starting it
// (with bounded restart-and-backoff) if needed. Crossings serialize on
// u.mu. Any fault but a plain UDF error drops the executor so the next
// crossing starts a fresh one — as does a UDF error the child died
// right after reporting (a dying gasp).
func (u *udf) onOwn(cross func(*MuxStream) error) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.own == nil {
		s, err := startSupervised(u.sup, u.muxSpec())
		if err != nil {
			return err
		}
		u.own = s
	}
	err := cross(u.own)
	if err != nil && (core.FaultClassOf(err) != core.FaultUDF || !u.own.m.Alive()) {
		u.own.m.Close()
		u.own = nil
	}
	return err
}

// breaker returns the UDF's circuit breaker, building it on first use
// so it reflects the final WithSupervision configuration.
func (u *udf) breaker() *govern.Breaker {
	u.brkOnce.Do(func() {
		u.brk = govern.NewBreaker(u.name, govern.BreakerConfig{
			Failures: u.sup.BreakerFailures,
			Window:   u.sup.BreakerWindow,
			Cooldown: u.sup.BreakerCooldown,
		})
	})
	return u.brk
}

// BreakerStatus exposes the breaker and quarantine state (SHOW UDFS).
func (u *udf) BreakerStatus() (govern.BreakerStatus, bool) {
	return u.breaker().Status(), u.quarantined.Load()
}

// record feeds one crossing's outcome to the breaker and charges the
// crossing to the statement's tenant. The child's self-reported CPU
// (batch result-frame tail) is charged to the tenant's child-CPU
// ledger; the wall-clock remainder — marshaling, pipe transit,
// scheduling, and crossings whose frames carry no CPU tail — is
// charged as parent-side occupancy, so the window total stays the
// crossing's wall time without double-counting. A fatal fault that
// opens the breaker of a fleet UDF quarantines it: its next crossing
// starts a private executor.
func (u *udf) record(b *govern.Breaker, ctx *core.Ctx, start time.Time, err error) {
	if ctx != nil {
		wall := time.Since(start)
		child := ctx.TakeReportedCPU()
		if child > wall {
			child = wall // rusage jitter guard: never attribute more than the crossing took
		}
		ctx.Tenant.AddChildCPU(child)
		if wall > child {
			ctx.Tenant.AddCPU(wall - child)
		}
		ctx.Exec.ObserveCrossing(wall, child)
	}
	var fatal bool
	switch core.FaultClassOf(err) {
	case core.FaultExecutor, core.FaultProtocol, core.FaultTimeout, core.FaultExecutorLost:
		fatal = true
	}
	b.Record(fatal)
	if fatal && u.mux != nil && !u.quarantined.Load() && b.Status().State == "open" {
		u.quarantined.Store(true)
	}
}

// useMux reports whether this crossing should ride the shared fleet
// (quarantined UDFs never do).
func (u *udf) useMux() bool {
	return u.mux != nil && !u.quarantined.Load()
}

// OnFleet reports whether crossings currently ride the shared fleet
// (SHOW UDFS exec_design).
func (u *udf) OnFleet() bool { return u.useMux() }

// breakerFault wraps an open-breaker rejection as a classified fault.
func breakerFault(err error) error {
	return core.NewFault(core.FaultOverload, "invoke", err)
}

func (u *udf) Invoke(ctx *core.Ctx, args []types.Value) (types.Value, error) {
	if err := core.CheckArgs(u, args); err != nil {
		return types.Value{}, err
	}
	u.started.Store(true)
	b := u.breaker()
	if err := b.Allow(); err != nil {
		f := breakerFault(err)
		countFault(f)
		return types.Value{}, f
	}
	core.CountCrossings(u.design, 1)
	start := time.Now()
	var out types.Value
	var err error
	if u.useMux() {
		out, err = u.mux.MuxInvoke(ctx, u.muxSpec(), args)
	} else {
		err = u.onOwn(func(s *MuxStream) (err error) {
			out, err = s.Invoke(ctx, args)
			return err
		})
	}
	countFault(err)
	u.record(b, ctx, start, err)
	return out, err
}

// InvokeBatch carries the whole batch across the process boundary in a
// single crossing — the amortization Designs 2 and 4 exist for. A batch
// of one takes the scalar path (msgInvoke), so batch cap 1 stays the
// paper's one-crossing-per-tuple condition.
func (u *udf) InvokeBatch(ctx *core.Ctx, arity int, args []types.Value, out []core.BatchResult) error {
	if err := core.CheckBatchShape(u, arity, args, out); err != nil {
		return err
	}
	n := len(out)
	if n == 0 {
		return nil
	}
	if n == 1 {
		v, err := u.Invoke(ctx, args)
		if err != nil {
			if core.FaultClassOf(err) == core.FaultUDF {
				out[0] = core.BatchResult{Err: err}
				return nil
			}
			return err
		}
		out[0] = core.BatchResult{Value: v}
		return nil
	}
	u.started.Store(true)
	b := u.breaker()
	if err := b.Allow(); err != nil {
		f := breakerFault(err)
		countFault(f)
		return f
	}
	core.CountCrossings(u.design, 1)
	core.ObserveBatchRows(u.design, int64(n))
	start := time.Now()
	var err error
	if u.useMux() {
		err = u.mux.MuxInvokeBatch(ctx, u.muxSpec(), arity, args, out)
	} else {
		err = u.onOwn(func(s *MuxStream) error { return s.InvokeBatch(ctx, arity, args, out) })
	}
	countFault(err)
	u.record(b, ctx, start, err)
	return err
}

func (u *udf) Close() error {
	u.mu.Lock()
	s := u.own
	u.own = nil
	u.mu.Unlock()
	if s != nil {
		return s.m.Close()
	}
	return nil
}

// Ensure interface satisfaction and keep jvm imported for VMSetup docs.
var _ core.UDF = (*udf)(nil)
var _ core.BatchUDF = (*udf)(nil)
var _ jvm.Callback = (*proxyCallback)(nil)

package isolate

import (
	"strings"
	"syscall"
	"testing"
	"time"

	"predator/internal/core"
	"predator/internal/types"
)

// fastSup is a supervision policy tuned for tests: tight deadlines,
// quick restarts.
var fastSup = Supervision{
	StartTimeout:   5 * time.Second,
	SetupTimeout:   5 * time.Second,
	InvokeTimeout:  300 * time.Millisecond,
	PingTimeout:    time.Second,
	ShutdownGrace:  200 * time.Millisecond,
	MaxRestarts:    2,
	RestartBackoff: 5 * time.Millisecond,
}

func sumArgs() []types.Value { return []types.Value{types.NewBytes([]byte{1, 2})} }

// startOwnT starts a private executor with one sumbytes stream, as a
// fleetless UDF does, and ties its lifetime to the test.
func startOwnT(t *testing.T, sup Supervision) *MuxStream {
	t.Helper()
	s, err := startSupervised(sup, MuxSpec{UDF: "sumbytes", Setup: StreamSetup{Native: "sumbytes"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.m.Close() })
	return s
}

// reaped reports whether the pid no longer exists (SIGKILLed child has
// been waited on — no zombie left behind).
func reaped(pid int) bool {
	return syscall.Kill(pid, 0) == syscall.ESRCH
}

// TestHungUDFTimesOutAndReaps is the headline supervision property: an
// isolated UDF that hangs forever costs one query — the invocation
// fails with FaultTimeout within the configured deadline, the child is
// killed and reaped (no zombie), and the engine keeps working.
func TestHungUDFTimesOutAndReaps(t *testing.T) {
	t.Setenv(FaultEnv, "invoke:hang")
	s := startOwnT(t, fastSup)
	pid := s.m.PID()
	start := time.Now()
	_, err := s.Invoke(nil, sumArgs())
	elapsed := time.Since(start)
	if core.FaultClassOf(err) != core.FaultTimeout {
		t.Fatalf("hung UDF returned %v (class %v), want FaultTimeout", err, core.FaultClassOf(err))
	}
	if elapsed > 5*time.Second {
		t.Errorf("deadline of %v took %v to fire", fastSup.InvokeTimeout, elapsed)
	}
	if !reaped(pid) {
		t.Errorf("child %d still exists after timeout kill (zombie or leak)", pid)
	}
	if s.m.Alive() {
		t.Error("executor handle still reports alive after fatal fault")
	}

	// Disarm the fault: the same UDF recovers with a fresh executor.
	InjectFault("")()
	u := WithSupervision(NewNativeIsolated("sumbytes", []types.Kind{types.KindBytes}, types.KindInt), fastSup)
	defer u.Close()
	out, err := u.Invoke(nil, sumArgs())
	if err != nil || out.Int != 3 {
		t.Errorf("recovery invoke = %v, %v; want 3", out, err)
	}
}

// TestHungUDFViaUDFHandle exercises the same path through the
// core.UDF wrapper: timeout, then automatic recovery on the next call
// of the very same handle.
func TestHungUDFViaUDFHandle(t *testing.T) {
	u := WithSupervision(NewNativeIsolated("sumbytes", []types.Kind{types.KindBytes}, types.KindInt), fastSup)
	defer u.Close()

	t.Setenv(FaultEnv, "invoke:hang")
	_, err := u.Invoke(nil, sumArgs())
	if core.FaultClassOf(err) != core.FaultTimeout {
		t.Fatalf("err = %v, want FaultTimeout", err)
	}

	InjectFault("")()
	out, err := u.Invoke(nil, sumArgs())
	if err != nil || out.Int != 3 {
		t.Errorf("post-timeout invoke = %v, %v; want 3", out, err)
	}
}

func TestCrashedExecutorClassified(t *testing.T) {
	t.Setenv(FaultEnv, "invoke:crash")
	u := WithSupervision(NewNativeIsolated("sumbytes", []types.Kind{types.KindBytes}, types.KindInt), fastSup)
	defer u.Close()
	_, err := u.Invoke(nil, sumArgs())
	if core.FaultClassOf(err) != core.FaultExecutor {
		t.Fatalf("err = %v (class %v), want FaultExecutor", err, core.FaultClassOf(err))
	}
	InjectFault("")()
	if out, err := u.Invoke(nil, sumArgs()); err != nil || out.Int != 3 {
		t.Errorf("recovery invoke = %v, %v", out, err)
	}
}

func TestBabblingExecutorClassified(t *testing.T) {
	// The child corrupts the frame stream before sending its result: the
	// parent must classify a protocol fault and kill the process.
	t.Setenv(FaultEnv, "result:corrupt")
	s := startOwnT(t, fastSup)
	pid := s.m.PID()
	_, err := s.Invoke(nil, sumArgs())
	if core.FaultClassOf(err) != core.FaultProtocol {
		t.Fatalf("err = %v (class %v), want FaultProtocol", err, core.FaultClassOf(err))
	}
	if !reaped(pid) {
		t.Errorf("babbling child %d not reaped", pid)
	}
}

func TestStalledUDFWithinDeadlineSucceeds(t *testing.T) {
	// A stall shorter than the deadline must NOT trip supervision.
	t.Setenv(FaultEnv, "invoke:stall:50ms")
	u := WithSupervision(NewNativeIsolated("sumbytes", []types.Kind{types.KindBytes}, types.KindInt), fastSup)
	defer u.Close()
	out, err := u.Invoke(nil, sumArgs())
	if err != nil || out.Int != 3 {
		t.Errorf("stalled-but-timely invoke = %v, %v", out, err)
	}
}

func TestSetupCrashRestartsExhaust(t *testing.T) {
	// A child that always dies during setup: the supervisor retries
	// MaxRestarts times with backoff, then reports an executor fault.
	t.Setenv(FaultEnv, "setup:crash")
	before := ReadStats().Restarts
	u := WithSupervision(NewNativeIsolated("sumbytes", []types.Kind{types.KindBytes}, types.KindInt), fastSup)
	defer u.Close()
	_, err := u.Invoke(nil, sumArgs())
	if core.FaultClassOf(err) != core.FaultExecutor {
		t.Fatalf("err = %v (class %v), want FaultExecutor", err, core.FaultClassOf(err))
	}
	if got := ReadStats().Restarts - before; got != int64(fastSup.MaxRestarts) {
		t.Errorf("restart attempts = %d, want %d", got, fastSup.MaxRestarts)
	}
}

func TestStartHangTimesOut(t *testing.T) {
	// A child that never completes the readiness handshake.
	t.Setenv(FaultEnv, "ready:hang")
	sup := fastSup
	sup.StartTimeout = 300 * time.Millisecond
	sup.MaxRestarts = 0
	_, err := StartMux(sup)
	if core.FaultClassOf(err) != core.FaultTimeout {
		t.Fatalf("err = %v (class %v), want FaultTimeout", err, core.FaultClassOf(err))
	}
}

func TestUnknownNameIsUDFFaultWithoutRestart(t *testing.T) {
	// Deterministic rejections must not burn the restart budget.
	before := ReadStats().Restarts
	u := WithSupervision(NewNativeIsolated("nosuch", nil, types.KindInt), fastSup)
	defer u.Close()
	_, err := u.Invoke(nil, nil)
	if core.FaultClassOf(err) != core.FaultUDF || !strings.Contains(err.Error(), "native table") {
		t.Fatalf("err = %v (class %v), want FaultUDF mentioning the native table", err, core.FaultClassOf(err))
	}
	if got := ReadStats().Restarts - before; got != 0 {
		t.Errorf("deterministic setup rejection consumed %d restarts", got)
	}
}

func TestCloseEscalatesToKill(t *testing.T) {
	// A child that receives msgShutdown and ignores it: Close must
	// return within the grace period plus slack by escalating to
	// SIGKILL, and the child must be reaped.
	t.Setenv(FaultEnv, "shutdown:hang")
	s := startOwnT(t, fastSup)
	if out, err := s.Invoke(nil, sumArgs()); err != nil || out.Int != 3 {
		t.Fatalf("invoke before close = %v, %v", out, err)
	}
	pid := s.m.PID()
	start := time.Now()
	closed := make(chan struct{})
	go func() { s.m.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on a child that ignores shutdown")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Close took %v, want ~grace period", elapsed)
	}
	if !reaped(pid) {
		t.Errorf("wedged child %d not reaped by Close", pid)
	}
}

func TestPingHealthCheck(t *testing.T) {
	e, err := StartMux(fastSup)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Ping(time.Second); err != nil {
		t.Errorf("ping on healthy executor: %v", err)
	}
	pid := e.PID()
	syscall.Kill(pid, syscall.SIGKILL)
	time.Sleep(50 * time.Millisecond)
	if err := e.Ping(time.Second); err == nil {
		t.Error("ping on killed executor succeeded")
	}
}

func TestInvocationCountersAdvance(t *testing.T) {
	before := ReadStats()
	u := WithSupervision(NewNativeIsolated("sumbytes", []types.Kind{types.KindBytes}, types.KindInt), fastSup)
	defer u.Close()
	for i := 0; i < 3; i++ {
		if _, err := u.Invoke(nil, sumArgs()); err != nil {
			t.Fatal(err)
		}
	}
	after := ReadStats()
	if after.Invocations-before.Invocations != 3 {
		t.Errorf("invocations delta = %d, want 3", after.Invocations-before.Invocations)
	}
	if after.Starts-before.Starts != 1 {
		t.Errorf("starts delta = %d, want 1", after.Starts-before.Starts)
	}
}

package isolate

import (
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"predator/internal/core"
	"predator/internal/govern"
	"predator/internal/types"
)

func init() {
	// flagcrash kills its executor while the named flag file exists and
	// succeeds otherwise — a UDF that "recovers", driving the breaker's
	// half-open probe path. (A PREDATOR_FAULT spec can't express this:
	// the env var poisons every executor in the process, and recovery
	// needs the same UDF to stop failing mid-test.)
	testNatives["flagcrash"] = func(ctx *core.Ctx, args []types.Value) (types.Value, error) {
		if _, err := os.Stat(args[0].Str); err == nil {
			os.Exit(3)
		}
		return types.NewInt(1), nil
	}
}

// breakerSup is a supervision config with a fast breaker and no
// restart patience, so tests observe transitions quickly.
func breakerSup(failures int, cooldown time.Duration) Supervision {
	return Supervision{
		BreakerFailures: failures,
		BreakerWindow:   10 * time.Second,
		BreakerCooldown: cooldown,
		MaxRestarts:     0,
		RestartBackoff:  time.Millisecond,
	}
}

func TestBreakerOpensOnCrashLoop(t *testing.T) {
	u := WithSupervision(NewNativeIsolated("crash", nil, types.KindInt), breakerSup(3, time.Minute))
	defer u.(*udf).Close()
	for i := 0; i < 3; i++ {
		_, err := u.Invoke(nil, nil)
		if core.FaultClassOf(err) != core.FaultExecutor {
			t.Fatalf("crash %d: got %v, want executor fault", i, err)
		}
	}
	// The breaker is open: the next call is shed without an executor.
	starts := cStarts.Value()
	_, err := u.Invoke(nil, nil)
	if core.FaultClassOf(err) != core.FaultOverload {
		t.Fatalf("got %v, want overload fault", err)
	}
	if !core.Retryable(err) {
		t.Fatal("breaker shed must be retryable")
	}
	var be *govern.BreakerOpenError
	if !errors.As(err, &be) {
		t.Fatalf("cause is %T, want *govern.BreakerOpenError", err)
	}
	if cStarts.Value() != starts {
		t.Fatal("open breaker still started an executor")
	}
	st, _ := u.(*udf).BreakerStatus()
	if st.State != "open" || st.Opens != 1 {
		t.Fatalf("status = %+v", st)
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	flag := filepath.Join(t.TempDir(), "crashflag")
	if err := os.WriteFile(flag, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	u := WithSupervision(NewNativeIsolated("flagcrash", []types.Kind{types.KindString}, types.KindInt),
		breakerSup(2, 50*time.Millisecond))
	defer u.(*udf).Close()
	args := []types.Value{types.NewString(flag)}
	for i := 0; i < 2; i++ {
		if _, err := u.Invoke(nil, args); core.FaultClassOf(err) != core.FaultExecutor {
			t.Fatalf("crash %d: %v", i, err)
		}
	}
	// Open, still cooling: shed even though the UDF is healthy again.
	os.Remove(flag)
	if _, err := u.Invoke(nil, args); core.FaultClassOf(err) != core.FaultOverload {
		t.Fatalf("during cooldown: got %v, want overload fault", err)
	}
	// After the cooldown a half-open probe runs for real and closes it.
	time.Sleep(60 * time.Millisecond)
	out, err := u.Invoke(nil, args)
	if err != nil || out.Int != 1 {
		t.Fatalf("probe: %v, %v", out, err)
	}
	st, _ := u.(*udf).BreakerStatus()
	if st.State != "closed" {
		t.Fatalf("after successful probe: %+v", st)
	}
	if _, err := u.Invoke(nil, args); err != nil {
		t.Fatalf("recovered UDF rejected: %v", err)
	}
}

// TestBreakerQuarantineLeavesPool checks that a UDF whose crash loop
// opens its breaker while on the shared executor pool (a fleet) is
// quarantined off it: after the cooldown it answers from a private
// executor of its own and never crosses the shared transport again.
func TestBreakerQuarantineLeavesPool(t *testing.T) {
	var m lostMux
	u := WithFleet(WithSupervision(NewNativeIsolated("sumbytes", []types.Kind{types.KindBytes}, types.KindInt),
		breakerSup(2, 30*time.Millisecond)), &m)
	defer u.Close()
	iu := u.(*udf)
	args := []types.Value{types.NewBytes([]byte{1, 2})}
	for i := 0; i < 2; i++ {
		if _, err := u.Invoke(nil, args); err == nil {
			t.Fatalf("lost crossing %d reported success", i)
		}
	}
	st, quarantined := iu.BreakerStatus()
	if st.State != "open" || !quarantined {
		t.Fatalf("after crash loop: state %+v, quarantined %v", st, quarantined)
	}
	if iu.OnFleet() {
		t.Fatal("quarantined UDF still on the shared pool")
	}
	time.Sleep(40 * time.Millisecond)
	if out, err := u.Invoke(nil, args); err != nil || out.Int != 3 {
		t.Fatalf("quarantined invoke: %v, %v", out, err)
	}
	if n := m.n.Load(); n != 2 {
		t.Fatalf("shared pool saw %d crossings, want the 2 before quarantine", n)
	}
	iu.mu.Lock()
	own := iu.own
	iu.mu.Unlock()
	if own == nil {
		t.Fatal("quarantined UDF did not bind a private executor")
	}
}

// lostMux is a Multiplexer stub whose every crossing loses its
// executor; it counts the crossings it is offered.
type lostMux struct{ n atomic.Int64 }

func (m *lostMux) MuxInvoke(*core.Ctx, MuxSpec, []types.Value) (types.Value, error) {
	m.n.Add(1)
	return types.Value{}, core.Faultf(core.FaultExecutorLost, "invoke", "stub")
}
func (m *lostMux) MuxInvokeBatch(*core.Ctx, MuxSpec, int, []types.Value, []core.BatchResult) error {
	m.n.Add(1)
	return core.Faultf(core.FaultExecutorLost, "invoke", "stub")
}

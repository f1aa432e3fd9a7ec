package isolate

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"predator/internal/core"
	"predator/internal/jaguar"
	"predator/internal/types"
)

// startMuxT starts a multiplexed executor and ties its lifetime to the
// test.
func startMuxT(t *testing.T) *MuxExecutor {
	t.Helper()
	m, err := StartMux(DefaultSupervision)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func TestMuxScalarInvoke(t *testing.T) {
	m := startMuxT(t)
	s, warm, err := m.OpenStream("t1", "sumbytes", "tok", StreamSetup{Native: "sumbytes"})
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Error("first open reported warm")
	}
	out, err := s.Invoke(nil, []types.Value{types.NewBytes([]byte{1, 2, 3})})
	if err != nil {
		t.Fatal(err)
	}
	if out.Int != 6 {
		t.Errorf("sumbytes = %d, want 6", out.Int)
	}
	m.CloseStream(s)
	if m.Resident() != 0 {
		t.Errorf("resident = %d after close", m.Resident())
	}
}

func TestMuxWarmReopen(t *testing.T) {
	m := startMuxT(t)
	s, _, err := m.OpenStream("t1", "sumbytes", "tok", StreamSetup{Native: "sumbytes"})
	if err != nil {
		t.Fatal(err)
	}
	m.CloseStream(s)
	s2, warm, err := m.OpenStream("t1", "sumbytes", "tok", StreamSetup{Native: "sumbytes"})
	if err != nil {
		t.Fatal(err)
	}
	if !warm {
		t.Error("reopen of cached binding was not warm")
	}
	if out, err := s2.Invoke(nil, []types.Value{types.NewBytes([]byte{5})}); err != nil || out.Int != 5 {
		t.Errorf("warm invoke = %v, %v", out, err)
	}
	// A different token must never hit the old binding (CREATE OR
	// REPLACE semantics).
	_, warm, err = m.OpenStream("t1", "sumbytes", "tok2", StreamSetup{Native: "sumbytes"})
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Error("different setup token reported warm")
	}
}

func TestMuxVMStream(t *testing.T) {
	classBytes, err := jaguar.CompileToBytes(`func f(a int) int { return a + 1; }`, "Wire")
	if err != nil {
		t.Fatal(err)
	}
	m := startMuxT(t)
	s, _, err := m.OpenStream("t1", "inc", "v1", StreamSetup{VM: &VMSetup{ClassBytes: classBytes, Method: "f"}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Invoke(nil, []types.Value{types.NewInt(41)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Int != 42 {
		t.Errorf("vm invoke = %d, want 42", out.Int)
	}
}

func TestMuxInterleavedStreams(t *testing.T) {
	m := startMuxT(t)
	const streams = 8
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan error, streams)
	for i := 0; i < streams; i++ {
		s, _, err := m.OpenStream("t1", "sumbytes", "tok", StreamSetup{Native: "sumbytes"})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s *MuxStream, seed byte) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				out, err := s.Invoke(nil, []types.Value{types.NewBytes([]byte{seed, byte(r)})})
				if err != nil {
					errs <- err
					return
				}
				if out.Int != int64(seed)+int64(byte(r)) {
					errs <- core.Faultf(core.FaultNone, "test", "stream %d got %d", seed, out.Int)
					return
				}
			}
		}(s, byte(i+1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := m.Resident(); got != streams {
		t.Errorf("resident = %d, want %d", got, streams)
	}
}

func TestMuxBatchPerRowErrors(t *testing.T) {
	m := startMuxT(t)
	s, _, err := m.OpenStream("t1", "failodd", "tok", StreamSetup{Native: "failodd"})
	if err != nil {
		t.Fatal(err)
	}
	args := []types.Value{types.NewInt(1), types.NewInt(2), types.NewInt(3), types.NewInt(4)}
	out := make([]core.BatchResult, 4)
	if err := s.InvokeBatch(nil, 1, args, out); err != nil {
		t.Fatal(err)
	}
	for i, r := range out {
		odd := (i+1)%2 != 0
		if odd && r.Err == nil {
			t.Errorf("row %d: want error", i)
		}
		if !odd && (r.Err != nil || r.Value.Int != int64(i+1)*10) {
			t.Errorf("row %d: got %v, %v", i, r.Value, r.Err)
		}
	}
}

func TestMuxCallbacksInterleaved(t *testing.T) {
	m := startMuxT(t)
	// Two streams whose UDFs call back mid-invoke: callback traffic for
	// one stream must not corrupt the other's conversation.
	s1, _, err := m.OpenStream("t1", "cbprobe", "tok", StreamSetup{Native: "cbprobe"})
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := m.OpenStream("t2", "cbprobe", "tok", StreamSetup{Native: "cbprobe"})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	run := func(s *MuxStream, data []byte) {
		defer wg.Done()
		cb := &memCallback{data: data}
		for i := 0; i < 20; i++ {
			out, err := s.Invoke(&core.Ctx{Callback: cb}, []types.Value{types.NewInt(0)})
			if err != nil {
				t.Error(err)
				return
			}
			want := int64(len(data))*1000 + int64(data[1])*10 + 2
			if out.Int != want {
				t.Errorf("cbprobe = %d, want %d", out.Int, want)
				return
			}
		}
	}
	wg.Add(2)
	go run(s1, []byte{9, 7, 5})
	go run(s2, []byte{1, 3, 2, 4})
	wg.Wait()
}

func TestMuxSiblingFaultClass(t *testing.T) {
	m := startMuxT(t)
	sCrash, _, err := m.OpenStream("t1", "crash", "tok", StreamSetup{Native: "crash"})
	if err != nil {
		t.Fatal(err)
	}
	sOK, _, err := m.OpenStream("t1", "sumbytes", "tok", StreamSetup{Native: "sumbytes"})
	if err != nil {
		t.Fatal(err)
	}
	// The crashing UDF takes the whole process down; its own stream and
	// its innocent sibling both observe executor loss (retryable).
	_, err = sCrash.Invoke(nil, []types.Value{types.NewInt(1)})
	if core.FaultClassOf(err) != core.FaultExecutorLost {
		t.Fatalf("crash stream fault = %v, want executor-lost", err)
	}
	if !core.Retryable(err) {
		t.Error("executor-lost not retryable")
	}
	_, err = sOK.Invoke(nil, []types.Value{types.NewBytes([]byte{1})})
	if core.FaultClassOf(err) != core.FaultExecutorLost {
		t.Errorf("sibling fault = %v, want executor-lost", err)
	}
	select {
	case <-m.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Done() not closed after process death")
	}
}

func TestMuxPing(t *testing.T) {
	m := startMuxT(t)
	if err := m.Ping(0); err != nil {
		t.Fatal(err)
	}
	if age := m.LastPingAge(); age > time.Minute {
		t.Errorf("last ping age = %v after successful ping", age)
	}
}

// TestLateAttachRefused is the regression test for the enforced
// "must be called before the first Invoke" contract on WithSupervision
// and WithFleet.
func TestLateAttachRefused(t *testing.T) {
	u := NewNativeIsolated("sumbytes", []types.Kind{types.KindBytes}, types.KindInt)
	defer u.Close()
	if _, err := u.Invoke(nil, []types.Value{types.NewBytes([]byte{1})}); err != nil {
		t.Fatal(err)
	}
	tightened := DefaultSupervision
	tightened.InvokeTimeout = time.Nanosecond
	WithSupervision(u, tightened)
	WithFleet(u, failingMux{})
	iu := u.(*udf)
	if iu.mux != nil {
		t.Fatal("late WithFleet reconfigured a started UDF")
	}
	if iu.sup.InvokeTimeout == time.Nanosecond {
		t.Fatal("late WithSupervision reconfigured a started UDF")
	}
	// The UDF must still work on its original private executor; the
	// refused fleet would fail every crossing.
	if out, err := u.Invoke(nil, []types.Value{types.NewBytes([]byte{2, 3})}); err != nil || out.Int != 5 {
		t.Fatalf("invoke after refused reconfig = %v, %v", out, err)
	}
}

// TestEarlyAttachStillWorks pins the contract's other half: attach
// before the first Invoke keeps working.
func TestEarlyAttachStillWorks(t *testing.T) {
	var m countingMux
	u := WithFleet(NewNativeIsolated("sumbytes", []types.Kind{types.KindBytes}, types.KindInt), &m)
	defer u.Close()
	if out, err := u.Invoke(nil, []types.Value{types.NewBytes([]byte{4, 4})}); err != nil || out.Int != 42 {
		t.Fatalf("fleet invoke = %v, %v", out, err)
	}
	if n := m.n.Load(); n != 1 {
		t.Errorf("fleet saw %d crossings, want 1", n)
	}
}

// countingMux is a Multiplexer stub that answers 42 and counts calls.
type countingMux struct{ n atomic.Int64 }

func (m *countingMux) MuxInvoke(*core.Ctx, MuxSpec, []types.Value) (types.Value, error) {
	m.n.Add(1)
	return types.NewInt(42), nil
}
func (m *countingMux) MuxInvokeBatch(*core.Ctx, MuxSpec, int, []types.Value, []core.BatchResult) error {
	m.n.Add(1)
	return core.Faultf(core.FaultExecutorLost, "invoke", "stub")
}

// failingMux is a Multiplexer stub for the late-attach test.
type failingMux struct{}

func (failingMux) MuxInvoke(*core.Ctx, MuxSpec, []types.Value) (types.Value, error) {
	return types.Value{}, core.Faultf(core.FaultExecutorLost, "invoke", "stub")
}
func (failingMux) MuxInvokeBatch(*core.Ctx, MuxSpec, int, []types.Value, []core.BatchResult) error {
	return core.Faultf(core.FaultExecutorLost, "invoke", "stub")
}

package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"predator/internal/core"
	"predator/internal/govern"
	"predator/internal/isolate"
	"predator/internal/jaguar"
	"predator/internal/obs"
	"predator/internal/types"
)

var testNatives = isolate.NativeTable{
	"double": func(ctx *core.Ctx, args []types.Value) (types.Value, error) {
		return types.NewInt(args[0].Int * 2), nil
	},
	"slowdouble": func(ctx *core.Ctx, args []types.Value) (types.Value, error) {
		time.Sleep(2 * time.Millisecond)
		return types.NewInt(args[0].Int * 2), nil
	},
	// flagcrash kills its executor while the named flag file exists and
	// succeeds otherwise: a UDF that recovers.
	"flagcrash": func(ctx *core.Ctx, args []types.Value) (types.Value, error) {
		if _, err := os.Stat(args[0].Str); err == nil {
			os.Exit(3)
		}
		return types.NewInt(1), nil
	},
	// burncpu busy-spins for args[0] milliseconds, so the executor's
	// rusage CPU tracks wall time closely — the load for the child-CPU
	// attribution test.
	"burncpu": func(ctx *core.Ctx, args []types.Value) (types.Value, error) {
		deadline := time.Now().Add(time.Duration(args[0].Int) * time.Millisecond)
		var sink uint64 = 1
		for time.Now().Before(deadline) {
			sink = sink*2654435761 + 1
		}
		return types.NewInt(int64(sink & 1)), nil
	},
}

func TestMain(m *testing.M) {
	isolate.MaybeRunExecutor(testNatives)
	os.Exit(m.Run())
}

// vmUDF compiles a distinct Jaguar UDF that adds `add` and returns it
// fleet-attached.
func vmUDF(t *testing.T, f *Fleet, add int) core.UDF {
	t.Helper()
	name := fmt.Sprintf("add%d", add)
	src := fmt.Sprintf(`func f(a int) int { return a + %d; }`, add)
	classBytes, err := jaguar.CompileToBytes(src, fmt.Sprintf("Add%d", add))
	if err != nil {
		t.Fatal(err)
	}
	u := isolate.NewVMIsolated(name, []types.Kind{types.KindInt}, types.KindInt,
		isolate.VMSetup{ClassBytes: classBytes, Method: "f"})
	return isolate.WithFleet(u, f)
}

func newFleetT(t *testing.T, opts Options) *Fleet {
	t.Helper()
	f := New(opts)
	t.Cleanup(func() { f.Close() })
	return f
}

// TestFleetProcessCapAcceptance is the ISSUE acceptance criterion: 32
// concurrent queries over 8 distinct VM UDFs on a FleetSize=4 fleet
// never use more than 4 resident executor processes.
func TestFleetProcessCapAcceptance(t *testing.T) {
	startsBefore := isolate.ReadStats().Starts
	f := newFleetT(t, Options{Size: 4})
	udfs := make([]core.UDF, 8)
	for i := range udfs {
		udfs[i] = vmUDF(t, f, i+1)
	}
	var wg sync.WaitGroup
	var failures atomic.Int64
	for q := 0; q < 32; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			u := udfs[q%len(udfs)]
			add := int64(q%len(udfs) + 1)
			for r := 0; r < 30; r++ {
				out, err := u.Invoke(nil, []types.Value{types.NewInt(int64(r))})
				if err != nil {
					t.Errorf("query %d: %v", q, err)
					failures.Add(1)
					return
				}
				if out.Int != int64(r)+add {
					t.Errorf("query %d round %d: got %d, want %d", q, r, out.Int, int64(r)+add)
					failures.Add(1)
					return
				}
			}
		}(q)
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d queries failed", failures.Load())
	}
	if alive := f.AliveExecutors(); alive > 4 {
		t.Errorf("alive executors = %d, want <= 4", alive)
	}
	pids := map[int]bool{}
	for _, info := range f.Snapshot() {
		if info.State == "up" {
			pids[info.PID] = true
		}
	}
	if len(pids) > 4 {
		t.Errorf("resident executor processes = %d, want <= 4", len(pids))
	}
	// No query fell back to a dedicated executor: every process start
	// was one of the fleet's (the 4 pre-forks, plus any chaos restarts —
	// none expected here).
	if started := isolate.ReadStats().Starts - startsBefore; started > 4 {
		t.Errorf("executor starts = %d, want <= 4 (dedicated fallback leaked?)", started)
	}
	if got := f.InFlight(); got != 0 {
		t.Errorf("in-flight after drain = %d (govern leak)", got)
	}
}

// TestFleetWarmReuse checks warm recycling: the second query for the
// same (tenant, UDF) skips setup via an idle parked stream or a
// child-side warm binding.
func TestFleetWarmReuse(t *testing.T) {
	f := newFleetT(t, Options{Size: 2})
	u := vmUDF(t, f, 7)
	before := cReuses.Value() + cWarmHits.Value()
	for i := 0; i < 10; i++ {
		out, err := u.Invoke(nil, []types.Value{types.NewInt(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		if out.Int != int64(i)+7 {
			t.Fatalf("got %d", out.Int)
		}
	}
	if after := cReuses.Value() + cWarmHits.Value(); after-before < 9 {
		t.Errorf("warm reuse count = %d, want >= 9", after-before)
	}
}

// TestFleetBatchCrossing drives the batched path through the fleet.
func TestFleetBatchCrossing(t *testing.T) {
	f := newFleetT(t, Options{Size: 2})
	u := isolate.WithFleet(
		isolate.NewNativeIsolated("double", []types.Kind{types.KindInt}, types.KindInt), f)
	bu := u.(core.BatchUDF)
	args := make([]types.Value, 16)
	for i := range args {
		args[i] = types.NewInt(int64(i))
	}
	out := make([]core.BatchResult, 16)
	if err := bu.InvokeBatch(nil, 1, args, out); err != nil {
		t.Fatal(err)
	}
	for i, r := range out {
		if r.Err != nil || r.Value.Int != int64(i)*2 {
			t.Errorf("row %d: %v, %v", i, r.Value, r.Err)
		}
	}
}

// TestFleetChaosCrashIsolation is the satellite chaos test: an executor
// SIGKILLed mid-interleaved-batch fails only the streams resident on
// that process — retryably — while sibling queries on other executors
// finish untouched and no govern admission is leaked.
func TestFleetChaosCrashIsolation(t *testing.T) {
	f := newFleetT(t, Options{Size: 3, MaxStreamsPerExec: 4})
	// Disable the UDF breaker: one kill strands many streams of this one
	// UDF, and quarantine demotion (tested separately) would pull the
	// survivors off the fleet mid-test.
	sup := isolate.DefaultSupervision
	sup.BreakerFailures = -1
	u := isolate.WithFleet(isolate.WithSupervision(
		isolate.NewNativeIsolated("slowdouble", []types.Kind{types.KindInt}, types.KindInt), sup), f)
	bu := u.(core.BatchUDF)

	const queries = 12
	var wg sync.WaitGroup
	var ok, lost, other atomic.Int64
	stopped := make(chan struct{})
	wg.Add(queries)
	for q := 0; q < queries; q++ {
		go func(q int) {
			defer wg.Done()
			for r := 0; ; r++ {
				select {
				case <-stopped:
					return
				default:
				}
				args := make([]types.Value, 8)
				for i := range args {
					args[i] = types.NewInt(int64(i))
				}
				out := make([]core.BatchResult, 8)
				err := bu.InvokeBatch(nil, 1, args, out)
				switch {
				case err == nil:
					ok.Add(1)
				case core.FaultClassOf(err) == core.FaultExecutorLost:
					if !core.Retryable(err) {
						t.Errorf("executor-lost not retryable: %v", err)
					}
					lost.Add(1)
				case core.FaultClassOf(err) == core.FaultOverload:
					// Admission shed during the kill window: retryable, fine.
				default:
					other.Add(1)
					t.Errorf("query %d: unexpected fault %v", q, err)
				}
			}
		}(q)
	}

	// Let traffic build, then SIGKILL one fleet process mid-flight.
	time.Sleep(150 * time.Millisecond)
	var victim int
	for _, info := range f.Snapshot() {
		if info.State == "up" && info.Resident > 0 {
			victim = info.PID
			break
		}
	}
	if victim == 0 {
		t.Fatal("no busy executor to kill")
	}
	if err := syscall.Kill(victim, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	close(stopped)
	wg.Wait()

	if ok.Load() == 0 {
		t.Error("no query succeeded")
	}
	if other.Load() > 0 {
		t.Errorf("%d queries failed with non-retryable faults", other.Load())
	}
	// The kill must strand only that process's streams: with 12 queries
	// over 3 executors, far fewer than all in-flight batches may fail.
	if lost.Load() > queries {
		t.Errorf("lost = %d, more in-flight work than one process could hold", lost.Load())
	}
	// Zero govern reservations leak: all admissions returned.
	if got := f.InFlight(); got != 0 {
		t.Fatalf("in-flight after drain = %d (govern admission leak)", got)
	}
	// The fleet heals: the dead slot is replaced and serves traffic.
	deadline := time.Now().Add(10 * time.Second)
	for f.AliveExecutors() < 3 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if alive := f.AliveExecutors(); alive < 3 {
		t.Fatalf("fleet did not heal: %d/3 executors alive", alive)
	}
	if _, err := u.Invoke(nil, []types.Value{types.NewInt(21)}); err != nil {
		t.Fatalf("post-heal invoke: %v", err)
	}
	restarts := 0
	for _, info := range f.Snapshot() {
		restarts += info.Restarts
	}
	if restarts == 0 {
		t.Error("snapshot shows no restarts after a kill")
	}
}

// TestFleetQuarantineDemotion: a UDF that keeps crashing fleet
// processes trips its breaker and is demoted to a dedicated executor,
// leaving the shared fleet alone. Once it recovers and the breaker
// cools down, it answers again — from its own executor, not the fleet.
func TestFleetQuarantineDemotion(t *testing.T) {
	flag := filepath.Join(t.TempDir(), "crashflag")
	if err := os.WriteFile(flag, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	sup := isolate.DefaultSupervision
	sup.BreakerFailures = 2
	sup.BreakerCooldown = 200 * time.Millisecond
	f := newFleetT(t, Options{Size: 1, Supervision: sup})
	u := isolate.WithFleet(isolate.WithSupervision(
		isolate.NewNativeIsolated("flagcrash", []types.Kind{types.KindString}, types.KindInt), sup), f)
	defer u.Close()
	st, ok := u.(interface {
		BreakerStatus() (govern.BreakerStatus, bool)
		OnFleet() bool
	})
	if !ok {
		t.Fatal("fleet UDF does not expose breaker status")
	}
	args := []types.Value{types.NewString(flag)}
	quarantined := false
	for i := 0; i < 100 && !quarantined; i++ {
		_, err := u.Invoke(nil, args)
		if err == nil {
			t.Fatal("flagcrash succeeded while its flag exists")
		}
		_, quarantined = st.BreakerStatus()
		time.Sleep(20 * time.Millisecond)
	}
	status, _ := st.BreakerStatus()
	if !quarantined {
		t.Fatalf("crash-looping UDF never quarantined off the fleet (breaker %+v)", status)
	}
	if status.Opens == 0 {
		t.Errorf("quarantined with zero breaker opens: %+v", status)
	}
	if st.OnFleet() {
		t.Fatal("quarantined UDF still rides the fleet")
	}

	// Recovered and past the cooldown, it runs again on a dedicated
	// executor; the fleet sees none of its crossings.
	os.Remove(flag)
	time.Sleep(sup.BreakerCooldown + 50*time.Millisecond)
	fleetCalls := obs.Default.Counter("predator_fleet_invocations_total")
	before := fleetCalls.Value()
	if out, err := u.Invoke(nil, args); err != nil || out.Int != 1 {
		t.Fatalf("quarantined invoke after cooldown = %v, %v", out, err)
	}
	if got := fleetCalls.Value() - before; got != 0 {
		t.Errorf("quarantined UDF made %d fleet crossings, want 0", got)
	}
	if st.OnFleet() {
		t.Error("recovered UDF returned to the fleet")
	}
}

// TestFleetTenantFairnessAndCaps: per-tenant in-flight caps shed the
// hog retryably while the quiet tenant keeps running.
func TestFleetTenantCap(t *testing.T) {
	f := newFleetT(t, Options{Size: 1, MaxStreamsPerExec: 4, TenantStreams: 2, AdmissionWait: time.Millisecond})
	u := isolate.WithFleet(
		isolate.NewNativeIsolated("slowdouble", []types.Kind{types.KindInt}, types.KindInt), f)
	gov := govern.NewGovernor(govern.Quota{})
	hog := gov.Tenant("hog")
	var wg sync.WaitGroup
	var sheds atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				_, err := u.Invoke(&core.Ctx{Tenant: hog}, []types.Value{types.NewInt(1)})
				if core.FaultClassOf(err) == core.FaultOverload {
					sheds.Add(1)
				} else if err != nil {
					t.Errorf("hog: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if sheds.Load() == 0 {
		t.Error("8-way tenant traffic over a 2-stream cap never shed")
	}
	if got := f.InFlight(); got != 0 {
		t.Errorf("in-flight after drain = %d", got)
	}
}

// TestFleetChildCPUAttribution is the flight-recorder acceptance test:
// two tenants interleave crossings over a shared fleet — one spinning
// CPU in the child, one nearly idle — and the per-tenant child-CPU
// ledgers must separate cleanly. The mux child serves invocations
// serially, so each batch's rusage delta is that batch's own work; the
// parent clamps every report to the crossing's wall time, so the
// burner's ledger lands close to its requested spin total while the
// quiet tenant's stays near zero (no cross-tenant misattribution).
func TestFleetChildCPUAttribution(t *testing.T) {
	f := newFleetT(t, Options{Size: 2})
	burn := isolate.WithFleet(
		isolate.NewNativeIsolated("burncpu", []types.Kind{types.KindInt}, types.KindInt), f)
	cheap := isolate.WithFleet(
		isolate.NewNativeIsolated("double", []types.Kind{types.KindInt}, types.KindInt), f)
	gov := govern.NewGovernor(govern.Quota{})
	burner, quiet := gov.Tenant("cpuburn"), gov.Tenant("cpuquiet")
	// The exported counter is process-global (it outlives this governor),
	// so compare its change over this run with this run's ledger.
	metricCtr := obs.Default.Counter("predator_tenant_child_cpu_ns_total", "tenant", "cpuburn")
	metricBefore := metricCtr.Value()

	const (
		spinMS       = 2
		rowsPerBatch = 4
		batches      = 10
	)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		bu := burn.(core.BatchUDF)
		args := make([]types.Value, rowsPerBatch)
		for i := range args {
			args[i] = types.NewInt(spinMS)
		}
		for b := 0; b < batches; b++ {
			out := make([]core.BatchResult, rowsPerBatch)
			if err := bu.InvokeBatch(&core.Ctx{Tenant: burner}, 1, args, out); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		bu := cheap.(core.BatchUDF)
		args := make([]types.Value, 16)
		for i := range args {
			args[i] = types.NewInt(int64(i))
		}
		for b := 0; b < 40; b++ {
			out := make([]core.BatchResult, 16)
			if err := bu.InvokeBatch(&core.Ctx{Tenant: quiet}, 1, args, out); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	expected := time.Duration(spinMS*rowsPerBatch*batches) * time.Millisecond
	got := burner.ChildCPUUsed()
	// The busy spin makes child CPU ≈ wall: on an unloaded machine the
	// ledger lands within 10% of the spin total. CI boxes get preempted,
	// so enforce a looser floor; the clamp makes over-attribution
	// impossible beyond rusage jitter.
	if got < expected/2 {
		t.Errorf("burner child CPU = %v, want >= %v (half of %v spin total)", got, expected/2, expected)
	}
	if got > expected*3/2 {
		t.Errorf("burner child CPU = %v exceeds 1.5x the %v spin total", got, expected)
	}
	// No cross-tenant misattribution: the quiet tenant ran ~zero-CPU
	// crossings interleaved with the burner on the same processes.
	if q := quiet.ChildCPUUsed(); q > got/10 {
		t.Errorf("quiet tenant child CPU = %v, more than 10%% of the burner's %v", q, got)
	}
	// Ledger and exported counter agree exactly.
	metric := time.Duration(metricCtr.Value() - metricBefore)
	if metric != got {
		t.Errorf("predator_tenant_child_cpu_ns_total = %v, ledger = %v", metric, got)
	}
	// Window accounting never double-counts: the wall occupancy charged
	// to the window covers the whole crossing, so it is at least the
	// child-CPU share.
	if w := burner.CPUUsed(); w < got {
		t.Errorf("window CPU %v < child CPU %v (double-count guard broken)", w, got)
	}

	// Optional CI artifact: a flight-recorder dump of this process after
	// the chaos run, for the workflow's artifact upload.
	if path := os.Getenv("PREDATOR_FLIGHT_DUMP"); path != "" {
		fjson, err := os.Create(path)
		if err != nil {
			t.Fatalf("flight dump: %v", err)
		}
		if err := obs.WriteFlightDump(fjson); err != nil {
			t.Fatalf("flight dump: %v", err)
		}
		if err := fjson.Close(); err != nil {
			t.Fatalf("flight dump: %v", err)
		}
	}
}

// TestFleetSnapshotShape sanity-checks SHOW EXECUTORS' data source.
func TestFleetSnapshotShape(t *testing.T) {
	f := newFleetT(t, Options{Size: 2})
	u := isolate.WithFleet(
		isolate.NewNativeIsolated("double", []types.Kind{types.KindInt}, types.KindInt), f)
	if _, err := u.Invoke(nil, []types.Value{types.NewInt(3)}); err != nil {
		t.Fatal(err)
	}
	infos := f.Snapshot()
	if len(infos) != 2 {
		t.Fatalf("snapshot has %d slots, want 2", len(infos))
	}
	up, warm, resident := 0, 0, 0
	for _, info := range infos {
		if info.State == "up" {
			up++
			if info.PID == 0 {
				t.Error("up slot with zero PID")
			}
		}
		warm += info.Warm
		resident += info.Resident
	}
	if up != 2 {
		t.Errorf("up slots = %d, want 2", up)
	}
	if warm == 0 {
		t.Error("no warm cache entries after an invoke")
	}
	if resident == 0 {
		t.Error("no resident streams after an invoke (idle lease missing)")
	}
}

// TestFleetIdleWorkerDeathReplaced kills an executor that no stream is
// reading from: nothing waits on its pipe, so only the process reaper
// can notice. Done must still close promptly (well before the first
// health ping), and the supervisor must replace the slot.
func TestFleetIdleWorkerDeathReplaced(t *testing.T) {
	f := newFleetT(t, Options{Size: 1, PingInterval: 1500 * time.Millisecond})
	f.mu.Lock()
	mx := f.workers[0].mx
	f.mu.Unlock()
	if mx == nil {
		t.Fatal("slot 0 has no executor")
	}
	victim := mx.PID()
	if err := syscall.Kill(victim, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	select {
	case <-mx.Done():
	case <-time.After(time.Second):
		t.Fatal("Done() did not close within 1s of an idle executor's death")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		info := f.Snapshot()[0]
		if info.State == "up" && info.PID != victim {
			if info.Restarts != 1 {
				t.Errorf("restarts = %d, want 1", info.Restarts)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot not replaced after an idle executor's death: %+v", info)
		}
		time.Sleep(20 * time.Millisecond)
	}
	u := isolate.WithFleet(
		isolate.NewNativeIsolated("double", []types.Kind{types.KindInt}, types.KindInt), f)
	if out, err := u.Invoke(nil, []types.Value{types.NewInt(21)}); err != nil || out.Int != 42 {
		t.Fatalf("invoke on the replaced slot = %v, %v", out, err)
	}
}

package govern

import (
	"errors"
	"sync"
	"testing"
	"time"

	"predator/internal/obs"
)

func TestGateAdmitsAndSheds(t *testing.T) {
	g := NewGate("test_queries", 2)
	rel1, err := g.Acquire(0)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	rel2, err := g.Acquire(0)
	if err != nil {
		t.Fatalf("second acquire: %v", err)
	}
	if g.InUse() != 2 {
		t.Fatalf("InUse = %d, want 2", g.InUse())
	}
	_, err = g.Acquire(0)
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("third acquire: got %v, want *OverloadError", err)
	}
	if oe.Limit != 2 {
		t.Fatalf("OverloadError.Limit = %d, want 2", oe.Limit)
	}
	rel1()
	rel3, err := g.Acquire(0)
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	rel2()
	rel3()
	if g.InUse() != 0 {
		t.Fatalf("InUse after releases = %d, want 0", g.InUse())
	}
}

func TestGateBoundedWait(t *testing.T) {
	g := NewGate("test_wait", 1)
	rel, err := g.Acquire(0)
	if err != nil {
		t.Fatal(err)
	}
	// A waiter should get the slot once the holder releases.
	done := make(chan error, 1)
	go func() {
		rel2, err := g.Acquire(2 * time.Second)
		if err == nil {
			rel2()
		}
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	rel()
	if err := <-done; err != nil {
		t.Fatalf("waiter shed despite release: %v", err)
	}
	// And a waiter should be shed when nobody releases in time.
	rel, err = g.Acquire(0)
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	if _, err := g.Acquire(10 * time.Millisecond); err == nil {
		t.Fatal("expected shed after bounded wait")
	}
}

func TestGateNilUnlimited(t *testing.T) {
	var g *Gate
	for i := 0; i < 100; i++ {
		rel, err := g.Acquire(0)
		if err != nil {
			t.Fatal(err)
		}
		rel()
	}
	if NewGate("x", 0) != nil || NewGate("x", -1) != nil {
		t.Fatal("NewGate with n<=0 should return nil")
	}
}

func TestTenantMemQuota(t *testing.T) {
	gov := NewGovernor(Quota{MemBytes: 1000})
	ten := gov.Tenant("alice")
	r := NewReservation(ten)
	if err := r.Grow(600); err != nil {
		t.Fatalf("within quota: %v", err)
	}
	// 600 + 500 > 1000 hard limit: rejected and rolled back.
	err := r.Grow(500)
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("got %v, want *QuotaError", err)
	}
	if qe.Resource != "memory" || qe.Tenant != "alice" {
		t.Fatalf("QuotaError = %+v", qe)
	}
	if ten.MemInUse() != 600 {
		t.Fatalf("MemInUse after rollback = %d, want 600", ten.MemInUse())
	}
	r.Release()
	if ten.MemInUse() != 0 {
		t.Fatalf("MemInUse after release = %d, want 0", ten.MemInUse())
	}
	r.Release() // idempotent
	if ten.MemInUse() != 0 {
		t.Fatal("double release changed accounting")
	}
}

func TestTenantMemQuotaIsolation(t *testing.T) {
	gov := NewGovernor(Quota{MemBytes: 100})
	noisy := gov.Tenant("noisy")
	quiet := gov.Tenant("quiet")
	rn := NewReservation(noisy)
	if err := rn.Grow(500); err == nil {
		t.Fatal("noisy tenant should trip its quota")
	}
	rq := NewReservation(quiet)
	if err := rq.Grow(90); err != nil {
		t.Fatalf("quiet tenant affected by noisy one: %v", err)
	}
	rn.Release()
	rq.Release()
}

func TestTenantCPUQuota(t *testing.T) {
	gov := NewGovernor(Quota{})
	ten := gov.Tenant("bob")
	ten.SetQuota(Quota{CPUTime: 10 * time.Millisecond, CPUWindow: 50 * time.Millisecond})
	if err := ten.CheckCPU(); err != nil {
		t.Fatalf("fresh tenant: %v", err)
	}
	ten.AddCPU(20 * time.Millisecond)
	err := ten.CheckCPU()
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Resource != "cpu" {
		t.Fatalf("got %v, want cpu *QuotaError", err)
	}
	// After the window rolls, the budget is back.
	time.Sleep(60 * time.Millisecond)
	if err := ten.CheckCPU(); err != nil {
		t.Fatalf("after window roll: %v", err)
	}
	if used := ten.CPUUsed(); used != 0 {
		t.Fatalf("CPUUsed after roll = %v, want 0", used)
	}
}

// TestCPUWindowRollRace hammers window rolls racing AddCPU/CheckCPU
// under the race detector: the Swap-based reset must hand every
// concurrent accounting update to exactly one window (old or new),
// never drop it between a CAS and a store.
func TestCPUWindowRollRace(t *testing.T) {
	gov := NewGovernor(Quota{})
	ten := gov.Tenant("racy")
	ten.SetQuota(Quota{CPUTime: time.Hour, CPUWindow: time.Microsecond})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				ten.AddCPU(time.Microsecond)
				if err := ten.CheckCPU(); err != nil {
					t.Errorf("hour-budget tenant tripped cpu quota: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if used := ten.CPUUsed(); used < 0 {
		t.Fatalf("negative CPU accumulator after racing rolls: %v", used)
	}
}

func TestTenantSessionCap(t *testing.T) {
	gov := NewGovernor(Quota{})
	ten := gov.Tenant("carol")
	if err := ten.AddSession(2); err != nil {
		t.Fatal(err)
	}
	if err := ten.AddSession(2); err != nil {
		t.Fatal(err)
	}
	if err := ten.AddSession(2); err == nil {
		t.Fatal("third session should exceed cap 2")
	}
	if ten.Sessions() != 2 {
		t.Fatalf("Sessions = %d, want 2", ten.Sessions())
	}
	ten.EndSession()
	if err := ten.AddSession(2); err != nil {
		t.Fatalf("after EndSession: %v", err)
	}
	ten.EndSession()
	ten.EndSession()
}

func TestGovernorTenantIdentity(t *testing.T) {
	gov := NewGovernor(Quota{})
	if gov.Tenant("a") != gov.Tenant("a") {
		t.Fatal("same name should return same tenant")
	}
	if gov.Tenant("") != gov.Tenant("default") {
		t.Fatal("empty name should alias default")
	}
	gov.Tenant("b")
	ts := gov.Tenants()
	if len(ts) != 3 || ts[0].Name() != "a" || ts[1].Name() != "b" || ts[2].Name() != "default" {
		t.Fatalf("Tenants() = %v", ts)
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	b := NewBreaker("test_udf", BreakerConfig{Failures: 3, Window: time.Second, Cooldown: 30 * time.Millisecond})
	for i := 0; i < 3; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker rejected call %d: %v", i, err)
		}
		b.Record(true)
	}
	if st := b.Status(); st.State != "open" || st.Opens != 1 {
		t.Fatalf("after 3 fatals: %+v", st)
	}
	err := b.Allow()
	var be *BreakerOpenError
	if !errors.As(err, &be) {
		t.Fatalf("open breaker: got %v, want *BreakerOpenError", err)
	}
	// After the cooldown one probe is admitted; a failed probe re-opens.
	time.Sleep(40 * time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open probe rejected: %v", err)
	}
	b.Record(true)
	if st := b.Status(); st.State != "open" || st.Opens != 2 {
		t.Fatalf("after failed probe: %+v", st)
	}
	// A successful probe closes the circuit.
	time.Sleep(40 * time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe rejected: %v", err)
	}
	b.Record(false)
	if st := b.Status(); st.State != "closed" {
		t.Fatalf("after successful probe: %+v", st)
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("closed-again breaker rejected: %v", err)
	}
	b.Record(false)
}

// TestBreakerCountsAreItsOwn pins that a breaker's Opens and Sheds
// belong to that breaker: a new breaker for a name that an earlier one
// already opened and shed under (a dropped and re-created UDF) starts
// at zero, while the name's /metrics counters keep summing both.
func TestBreakerCountsAreItsOwn(t *testing.T) {
	cfg := BreakerConfig{Failures: 1, Cooldown: time.Minute}
	first := NewBreaker("test_udf_recreated", cfg)
	first.Record(true)
	if err := first.Allow(); err == nil {
		t.Fatal("open breaker admitted a call")
	}
	if st := first.Status(); st.Opens != 1 || st.Sheds != 1 {
		t.Fatalf("first breaker: %+v", st)
	}
	second := NewBreaker("test_udf_recreated", cfg)
	if st := second.Status(); st.Opens != 0 || st.Sheds != 0 {
		t.Fatalf("second breaker of the same name starts at %+v, want zero counts", st)
	}
	if v := obs.Default.Counter("predator_udf_breaker_opens_total", "udf", "test_udf_recreated").Value(); v < 1 {
		t.Fatalf("opens counter = %d, want it to keep counting for /metrics", v)
	}
}

func TestBreakerIgnoresNonFatal(t *testing.T) {
	b := NewBreaker("test_udf_nf", BreakerConfig{Failures: 2})
	for i := 0; i < 10; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		b.Record(false)
	}
	if st := b.Status(); st.State != "closed" || st.Opens != 0 {
		t.Fatalf("non-fatal outcomes opened the breaker: %+v", st)
	}
}

func TestBreakerSingleProbe(t *testing.T) {
	b := NewBreaker("test_udf_probe", BreakerConfig{Failures: 1, Cooldown: 10 * time.Millisecond})
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Record(true)
	time.Sleep(20 * time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe rejected: %v", err)
	}
	// While the probe is in flight, everyone else is shed.
	if err := b.Allow(); err == nil {
		t.Fatal("second call admitted during half-open probe")
	}
	b.Record(false)
}

func TestBreakerDisabledAndNil(t *testing.T) {
	var nb *Breaker
	if err := nb.Allow(); err != nil {
		t.Fatal("nil breaker should admit")
	}
	nb.Record(true)
	if st := nb.Status(); st.State != "closed" {
		t.Fatalf("nil breaker status: %+v", st)
	}
	b := NewBreaker("test_udf_off", BreakerConfig{Failures: -1})
	for i := 0; i < 20; i++ {
		if err := b.Allow(); err != nil {
			t.Fatal("disabled breaker should admit")
		}
		b.Record(true)
	}
}

func TestTenantConcurrency(t *testing.T) {
	gov := NewGovernor(Quota{MemBytes: 1 << 40})
	ten := gov.Tenant("racer")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r := NewReservation(ten)
				_ = r.Grow(128)
				ten.AddCPU(time.Microsecond)
				_ = r.CheckCPU()
				r.Release()
			}
		}()
	}
	wg.Wait()
	if ten.MemInUse() != 0 {
		t.Fatalf("leaked memory accounting: %d", ten.MemInUse())
	}
}

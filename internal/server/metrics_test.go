package server

import (
	"regexp"
	"strings"
	"testing"
	"time"

	"predator/internal/engine"
	"predator/internal/obs"
	"predator/internal/types"
)

var (
	expoTypeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	expoSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?|[-+]?Inf|NaN)$`)
)

// lintGovernanceExposition is the promtool-style subset of checks the
// obs package runs on its own registry, applied here because the
// governance metrics (admission gates, breakers, tenant quotas) are
// registered by packages obs cannot import: every line is a TYPE
// comment or well-formed sample, each family is typed exactly once
// before its samples, and no sample identity repeats.
func lintGovernanceExposition(t *testing.T, text string) {
	t.Helper()
	typed := map[string]bool{}
	seen := map[string]bool{}
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if m := expoTypeRe.FindStringSubmatch(line); m != nil {
			if typed[m[1]] {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, m[1])
			}
			typed[m[1]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := expoSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: not a valid sample line: %q", ln+1, line)
		}
		fam := m[1]
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(fam, s); base != fam && typed[base] {
				fam = base
				break
			}
		}
		if !typed[fam] {
			t.Fatalf("line %d: sample %s has no preceding TYPE", ln+1, m[1])
		}
		if seen[m[1]+m[2]] {
			t.Fatalf("line %d: duplicate sample %s%s", ln+1, m[1], m[2])
		}
		seen[m[1]+m[2]] = true
	}
}

// TestGovernanceMetricsExposition asserts the admission, breaker and
// quota metric families really land in the /metrics exposition once the
// corresponding subsystems have been exercised, and that the rendered
// text passes the lint /metrics is held to.
func TestGovernanceMetricsExposition(t *testing.T) {
	_, addr, eng := startSrv(t, Options{
		MaxConns:             8,
		MaxConcurrentQueries: 4,
		MaxSessionsPerUser:   8,
	}, engine.Options{})
	if err := eng.RegisterNativeIsolated("iso_ok", []types.Kind{types.KindInt}, types.KindInt); err != nil {
		t.Fatal(err)
	}
	cl := dial(t, addr) // hello binds a tenant: quota gauges register
	if _, err := cl.Exec(`CREATE TABLE m (x INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec(`INSERT INTO m VALUES (41)`); err != nil {
		t.Fatal(err)
	}
	// One isolated call creates the UDF's breaker (and its metrics).
	if res, err := cl.Exec(`SELECT iso_ok(x) FROM m`); err != nil || res.Rows[0][0].Int != 42 {
		t.Fatalf("isolated call: %v, %v", res, err)
	}
	var b strings.Builder
	if err := obs.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	lintGovernanceExposition(t, text)
	for _, name := range []string{
		"predator_server_admission_wait_seconds",
		"predator_server_admission_shed_total",
		"predator_server_admission_in_use",
		`gate="queries"`,
		`gate="connections"`,
		"predator_udf_breaker_state",
		"predator_udf_breaker_opens_total",
		"predator_udf_breaker_sheds_total",
		`udf="iso_ok"`,
		"predator_govern_mem_bytes",
		"predator_govern_cpu_ns_total",
		"predator_govern_sessions",
		"predator_server_connections_total",
		"predator_isolate_executor_cpu_ns_total",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("exposition missing %s", name)
		}
	}
}

// TestStorageMetricsExposition asserts the storage-resilience metric
// families (disk gauges, archive counters, scrubber counters) land in
// the /metrics exposition once archiving, an online backup and a scrub
// pass have run, and that the rendered text passes the lint.
func TestStorageMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	_, addr, eng := startSrv(t, Options{}, engine.Options{
		ArchiveDir:    dir + "/archive",
		ScrubInterval: time.Millisecond,
		ScrubPace:     -1, // flat out
	})
	cl := dial(t, addr)
	if _, err := cl.Exec(`CREATE TABLE sm (x INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec(`INSERT INTO sm VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec(`BACKUP TO '` + dir + `/backup'`); err != nil {
		t.Fatalf("BACKUP TO: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for eng.Scrubber().Status().Passes == 0 {
		if time.Now().After(deadline) {
			t.Fatal("scrubber completed no pass within deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var b strings.Builder
	if err := obs.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	lintGovernanceExposition(t, text)
	for _, name := range []string{
		"predator_storage_readonly",
		"predator_storage_current_lsn",
		"predator_storage_wal_bytes",
		"predator_storage_archive_lag_bytes",
		"predator_storage_archive_segments_total",
		"predator_storage_archive_bytes_total",
		"predator_storage_read_repairs_total",
		"predator_storage_wal_rebuilds_total",
		`predator_wal_records_total{type="image"}`,
		`predator_wal_records_total{type="delta"}`,
		`predator_wal_records_total{type="meta"}`,
		`predator_wal_records_total{type="commit"}`,
		`predator_wal_record_bytes_total{type="image"}`,
		`predator_wal_record_bytes_total{type="delta"}`,
		"predator_scrub_passes_total",
		"predator_scrub_pages_total",
		"predator_scrub_segments_total",
		"predator_scrub_corrupt_total",
		"predator_scrub_repairs_total",
		"predator_scrub_unrepaired_total",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("exposition missing %s", name)
		}
	}
	// Archiving and scrubbing really ran.
	if obs.Default.Counter("predator_storage_archive_segments_total").Value() == 0 {
		t.Error("archive segment counter did not advance")
	}
	if obs.Default.Counter("predator_scrub_pages_total").Value() == 0 {
		t.Error("scrub page counter did not advance")
	}
}

// TestFleetMetricsExposition asserts the executor-fleet metric families
// land in the /metrics exposition once a fleet has served crossings,
// and that the rendered text still passes the exposition lint.
func TestFleetMetricsExposition(t *testing.T) {
	_, addr, eng := startSrv(t, Options{}, engine.Options{FleetSize: 2})
	if err := eng.RegisterNativeIsolated("iso_ok", []types.Kind{types.KindInt}, types.KindInt); err != nil {
		t.Fatal(err)
	}
	cl := dial(t, addr)
	if _, err := cl.Exec(`CREATE TABLE fm (x INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec(`INSERT INTO fm VALUES (41)`); err != nil {
		t.Fatal(err)
	}
	// Two fleet crossings: the second reuses the first's warm stream.
	for i := 0; i < 2; i++ {
		if res, err := cl.Exec(`SELECT iso_ok(x) FROM fm`); err != nil || res.Rows[0][0].Int != 42 {
			t.Fatalf("fleet call: %v, %v", res, err)
		}
	}
	if v := eng.Fleet().InFlight(); v != 0 {
		t.Errorf("in-flight after queries = %d", v)
	}
	var b strings.Builder
	if err := obs.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	lintGovernanceExposition(t, text)
	for _, name := range []string{
		"predator_fleet_executors",
		"predator_fleet_resident_streams",
		"predator_fleet_stream_opens_total",
		"predator_fleet_stream_reuses_total",
		"predator_fleet_warm_hits_total",
		"predator_fleet_restarts_total",
		"predator_fleet_sheds_total",
		"predator_fleet_invocations_total",
		"predator_fleet_lost_streams_total",
		"predator_govern_fair_wait_seconds",
		"predator_govern_fair_sheds_total",
		"predator_govern_fair_in_flight",
		`queue="fleet"`,
	} {
		if !strings.Contains(text, name) {
			t.Errorf("exposition missing %s", name)
		}
	}
	// The fleet really served the crossings (not a dedicated fallback).
	if obs.Default.Counter("predator_fleet_invocations_total").Value() < 2 {
		t.Error("fleet invocation counter did not advance")
	}
}

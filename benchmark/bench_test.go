package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"predator"
)

func TestMain(m *testing.M) {
	predator.MaybeRunExecutor(natives)
	os.Exit(m.Run())
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median(append([]float64(nil), xs...)); got != 5.5 {
		t.Errorf("median of 1..10 = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 values = %v, want 2", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 99)) {
		t.Error("an empty sample must give NaN, not a number that looks measured")
	}
}

func TestSliceRates(t *testing.T) {
	// A 4 s window in 4 slices: 2, 0, 1 and 3 completions; one before
	// the window and one at its end are outside it.
	ends := []float64{-0.1, 0.1, 0.9, 2.5, 3.0, 3.5, 3.999, 4.0}
	got := sliceRates(ends, 4, 4)
	if want := []float64{2, 0, 1, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("sliceRates = %v, want %v", got, want)
	}
	if m := median(got); m != 1.5 {
		t.Errorf("median slice rate = %v, want 1.5", m)
	}
	// Half-second slices double the rate of the same counts.
	if got := sliceRates([]float64{0.1, 0.2, 0.6}, 1, 2); !reflect.DeepEqual(got, []float64{4, 2}) {
		t.Errorf("sliceRates over 0.5 s slices = %v, want [4 2]", got)
	}
}

// dueTimes returns the first n open-loop due offsets (seconds) of one
// connection, drawn the way runLoad draws them.
func dueTimes(w *workload, seed int64, conn, n int) []float64 {
	arrivals := rngFor(seed, streamArrivals, conn)
	out := make([]float64, n)
	var t time.Duration
	for i := range out {
		t += w.gap(arrivals)
		out[i] = t.Seconds()
	}
	return out
}

func TestSeedFixesInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, c := makeInputs(w, 7), makeInputs(w, 7), makeInputs(w, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different table contents", w.name)
		}
		if !w.insert && reflect.DeepEqual(a.expect, c.expect) && reflect.DeepEqual(a.payloads, c.payloads) && w.udf != "triv" {
			t.Errorf("%s: different seeds, same table contents", w.name)
		}
		texts := func(seed int64, conn int) []string {
			s := newStream(w, seed, conn)
			var out []string
			for i := 0; i < 20; i++ {
				text, _ := s.next()
				out = append(out, text)
			}
			return out
		}
		if !reflect.DeepEqual(texts(7, 0), texts(7, 0)) {
			t.Errorf("%s: same seed, different statements", w.name)
		}
		varies := w.insert || w.udf == "score"
		if varies && reflect.DeepEqual(texts(7, 0), texts(8, 0)) {
			t.Errorf("%s: different seeds, same keys and payloads", w.name)
		}
		if varies && reflect.DeepEqual(texts(7, 0), texts(7, 1)) {
			t.Errorf("%s: two connections issue the same statements", w.name)
		}
		if w.open {
			if !reflect.DeepEqual(dueTimes(w, 7, 0, 50), dueTimes(w, 7, 0, 50)) {
				t.Errorf("%s: same seed, different due times", w.name)
			}
			if reflect.DeepEqual(dueTimes(w, 7, 0, 50), dueTimes(w, 8, 0, 50)) {
				t.Errorf("%s: different seeds, same due times", w.name)
			}
			// 50 gaps at 1000/s per connection: about 50 ms in all.
			if last := dueTimes(w, 7, 0, 50)[49]; last < 0.02 || last > 0.12 {
				t.Errorf("%s: 50th arrival at %v s, want about 0.05 s", w.name, last)
			}
		}
	}
	ids := map[int64]bool{}
	ins := workloadByName("insert_commit")
	for conn := 0; conn < insertStride; conn++ {
		s := newStream(ins, 1, conn)
		for i := 0; i < 100; i++ {
			_, id := s.next()
			if ids[id] {
				t.Fatalf("insert id %d issued twice", id)
			}
			ids[id] = true
		}
	}
}

func TestReferenceFunctions(t *testing.T) {
	if got := scoreRef(10, 5); got != 71 {
		t.Errorf("scoreRef(10, 5) = %d, want (10*3+5)*2+1 = 71", got)
	}
	if got := scoreRef(400, 5); got != 411 {
		t.Errorf("scoreRef(400, 5) = %d, want (1205-1000)*2+1 = 411", got)
	}
	if got := genericRef([]byte{1, 2, 3, 250}, 10, 2); got != 522 {
		t.Errorf("genericRef = %d, want 10 + 2*256 = 522", got)
	}
	if got := userBytesPerInsert("INSERT INTO ev VALUES (16, 'user123', x'00')"); got != 8+7+64 {
		t.Errorf("userBytesPerInsert = %d, want 79", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},  // nested
		{Name: "b", Parent: 0, Start: 30, End: 60},  // overlaps a: 30..40 counted once
		{Name: "c", Parent: 0, Start: 90, End: 120}, // runs past its parent: only 90..100 counts
		{Name: "a1", Parent: 1, Start: 15, End: 25}, // grandchild: comes off a, not off root
		{Name: "lone", Parent: -1, Start: 200, End: 250},
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 10, 30, 30, 10, 50}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if d := durationsUS(spans, "a"); len(d) != 1 || d[0] != 0.03 {
		t.Errorf("durationsUS = %v, want [0.03]", d)
	}
}

func TestProcParsing(t *testing.T) {
	stat := "4242 (a b) c) S 1 4242 4242 0 -1 4194560 500 0 0 0 150 50 0 0 20 0 9 0 100 1000000 300 18446744073709551615"
	got, err := parseStatCPU(stat)
	if err != nil || got != 2.0 {
		t.Errorf("parseStatCPU = %v, %v; want 2.0 s (150+50 ticks)", got, err)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("parseStatCPU accepted garbage")
	}
	hwm, err := parseStatusHWM("Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n")
	if err != nil || hwm != 20 {
		t.Errorf("parseStatusHWM = %v, %v; want 20 MiB", hwm, err)
	}
	res, err := parseStatmResident("30000 5120 900 300 0 20000 0\n")
	if want := 5120 * float64(os.Getpagesize()) / (1 << 20); err != nil || res != want {
		t.Errorf("parseStatmResident = %v, %v; want %v MiB (5120 pages)", res, err, want)
	}
	if _, err := parseStatmResident("30000"); err == nil {
		t.Error("parseStatmResident accepted a short line")
	}
	if got := sampledSlices([]float64{0, 3, 0, 5}); !reflect.DeepEqual(got, []float64{3, 5}) {
		t.Errorf("sampledSlices = %v, want [3 5]", got)
	}
	if self, err := cpuSecondsAll(nil); err != nil || self < 0 {
		t.Errorf("cpuSecondsAll of this process = %v, %v", self, err)
	}
	if rss, err := peakRSSAllMB(nil); err != nil || rss <= 0 {
		t.Errorf("peakRSSAllMB of this process = %v, %v", rss, err)
	}
	if rss, err := residentAllMB(nil); err != nil || rss <= 0 {
		t.Errorf("residentAllMB of this process = %v, %v", rss, err)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "lat", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "rate", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		m         metricSpec
		base, new float64
		want      string
	}{
		{lower, 100, 105, verdictOK},
		{lower, 100, 111, verdictWorse},
		{lower, 100, 80, verdictUnresolved},
		{higher, 100, 95, verdictOK},
		{higher, 100, 89, verdictWorse},
		{higher, 100, 120, verdictUnresolved},
		{lower, 0, 1, verdictUnresolved},
		{metricSpec{Name: "setup_s", Better: "lower", Bound: 0.25, Slack: 0.25}, 0.004, 0.006, verdictOK},
		{metricSpec{Name: "setup_s", Better: "lower", Bound: 0.25, Slack: 0.25}, 1.0, 1.3, verdictWorse},
	} {
		if got := judge(c.m, c.base, c.new); got.Verdict != c.want {
			t.Errorf("judge(%s, %v -> %v) = %s (worse %+.2f), want %s", c.m.Better, c.base, c.new, got.Verdict, got.Worse, c.want)
		}
	}
	if c := judge(higher, 200, 100); c.Ratio != 0.5 || c.Worse != 0.5 {
		t.Errorf("judge ratio %v worse %v, want 0.5 and 0.5", c.Ratio, c.Worse)
	}
}

func specOf(table []metricSpec, name string) (metricSpec, bool) {
	for _, m := range table {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// benchmarkJSON mirrors BENCHMARK.json at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The tables in spec.go and workloads.go are what the run prints; they
// must be BENCHMARK.json, name for name.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default window is %d", bj.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v, want [benchmark]", bj.Paths)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range workloads {
		j := bj.Workloads[i]
		if j.Name != w.name || j.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, j.Name, j.Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or repeated", w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
		seen[w.name] = true
	}
	check := func(kind string, table []metricSpec, js []jsonMetric, bounded bool) {
		if len(table) != len(js) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(js), len(table))
		}
		for i, m := range table {
			j := js[i]
			if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, j, m)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s metric %q (unit %q) is malformed or repeated", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %s: better = %q", kind, m.Name, m.Better)
			}
			switch {
			case bounded && (j.Bound == nil || *j.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25):
				t.Errorf("%s metric %s: bound %v in BENCHMARK.json, %v in the program (0 < bound <= 0.25)", kind, m.Name, j.Bound, m.Bound)
			case !bounded && j.Bound != nil:
				t.Errorf("%s metric %s has a bound; per-layer metrics have none", kind, m.Name)
			}
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd, true)
	check("per_layer", perLayer, bj.PerLayer, false)
	if m, ok := specOf(endToEnd, "setup_s"); !ok || m.Unit != "s" || m.Better != "lower" {
		t.Error("end_to_end must hold setup_s in s, lower is better")
	}
}

// TestSmoke runs every workload through both passes with 1 s windows
// and no bounds: a change that breaks a workload, a reference answer or
// a signature in probes.go fails here, in tier-1, not in the pipeline.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run takes about 15 s")
	}
	start := time.Now()
	results, err := runSmoke(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2*len(workloads) {
		t.Fatalf("%d passes, want %d", len(results), 2*len(workloads))
	}
	for _, r := range results {
		table := endToEnd
		if r.Trace {
			table = perLayer
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s trace=%v: correct=%v, %d of %d failed: %s", r.Workload, r.Trace, r.Correct, r.Failed, r.Attempted, r.FirstErr)
		}
		for _, m := range table {
			v, ok := r.Metrics[m.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s trace=%v: metric %s = %v, present %v", r.Workload, r.Trace, m.Name, v, ok)
			}
			if !r.Trace && v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v; it may never be 0", r.Workload, m.Name, v)
			}
		}
		for name := range r.Metrics {
			if _, ok := specOf(table, name); !ok {
				t.Errorf("%s trace=%v: the run reports %s, which BENCHMARK.json does not list", r.Workload, r.Trace, name)
			}
		}
	}
	t.Logf("smoke run took %v", time.Since(start).Round(time.Millisecond))
}

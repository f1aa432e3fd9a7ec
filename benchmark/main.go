// Command benchmark is the repository's one benchmark: seven workloads
// driven over the wire against a server in this process, end-to-end
// metrics from a pass with tracing off, and per-layer metrics from a
// separate traced pass. See README.md.
//
//	go run ./benchmark                       every workload, both passes, benchmark/out/result.json
//	go run ./benchmark -workload scan_vm     one workload, both passes
//	go run ./benchmark --workload scan_vm --seed 7 --seconds 12 --trace 0
//	                                         one pass in this process; the last line of output is its result
//	go run ./benchmark -aa                   the end-to-end pass twice on the same build
//	go run ./benchmark -compare old.json new.json
//	go run ./benchmark -smoke                every workload, 1 s windows, answers checked, no bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"predator"
)

// defaultSeconds is the measured window of a full run: 4 slices of 3 s.
// The traced pass of a full run gets a quarter of it.
const defaultSeconds = 12

func main() {
	predator.MaybeRunExecutor(natives)

	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all seven)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of table contents, keys, payloads and arrival times")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "length of the measured window")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end pass only, 1: traced pass only; with -workload, runs in this process and ends with one result line")
	flag.StringVar(&o.outDir, "out", filepath.Join("benchmark", "out"), "directory for result.json, trace files and the databases")
	flag.BoolVar(&o.aa, "aa", false, "run the end-to-end pass of every workload twice and compare the two")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare old.json new.json")
	flag.BoolVar(&o.smoke, "smoke", false, "run both passes of every workload in this process with 1 s windows; checks answers, applies no bounds")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	outDir   string
	aa       bool
	compare  bool
	smoke    bool
}

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(args[0], args[1])
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	names := workloadNames()
	if o.workload != "" {
		if workloadByName(o.workload) == nil {
			return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
		}
		names = []string{o.workload}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	switch {
	case o.smoke:
		return printSmoke(o.outDir)
	case o.aa:
		return runAA(names, o.seed, o.seconds, o.outDir)
	case o.workload != "" && o.trace >= 0:
		return runOnePass(workloadByName(o.workload), o.seed, o.seconds, o.trace == 1, o.outDir)
	default:
		set, err := runSet(names, o.seed, o.seconds, o.trace, o.outDir)
		if err != nil {
			return err
		}
		set.print(os.Stdout)
		if err := writeJSON(filepath.Join(o.outDir, "result.json"), set); err != nil {
			return err
		}
		if n := set.failed(); n > 0 {
			return fmt.Errorf("%d failed operations", n)
		}
		return nil
	}
}

// runSmoke runs both passes of every workload in this process with 1 s
// windows and one set-up each. It is the tier-1 check that the
// workloads, their reference answers and the probe surface still work;
// its numbers mean nothing.
func runSmoke(dbRoot string) ([]*runResult, error) {
	var results []*runResult
	for _, w := range workloads {
		res, err := runEndToEnd(w, 1, time.Second, dbRoot, false)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
		if res, err = runTracedPass(w, 1, time.Second, dbRoot, ""); err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	return results, nil
}

func printSmoke(outDir string) error {
	dbRoot := filepath.Join(outDir, "db")
	if err := os.MkdirAll(dbRoot, 0o755); err != nil {
		return err
	}
	results, err := runSmoke(dbRoot)
	if err != nil {
		return err
	}
	var failed int64
	for _, r := range results {
		fmt.Printf("%-14s trace=%-5v attempted %6d failed %d %s\n", r.Workload, r.Trace, r.Attempted, r.Failed, r.FirstErr)
		failed += r.Failed
	}
	if failed > 0 {
		return fmt.Errorf("smoke: %d failed operations", failed)
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// resultLine is the last line a single pass prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOnePass runs one pass over one workload in this process, prints
// each metric by name with its unit and then the result line. The full
// record goes to <out>/pass-<workload>-<trace>.json for the parent.
func runOnePass(w *workload, seed int64, seconds int, traced bool, outDir string) error {
	dbRoot := filepath.Join(outDir, "db")
	if err := os.MkdirAll(dbRoot, 0o755); err != nil {
		return err
	}
	window := time.Duration(seconds) * time.Second
	var res *runResult
	var err error
	table := endToEnd
	if traced {
		table = perLayer
		res, err = runTracedPass(w, seed, window, dbRoot, outDir)
	} else {
		res, err = runEndToEnd(w, seed, window, dbRoot, true)
	}
	if err != nil {
		return err
	}
	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]metricValue)}
	for _, m := range table {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", w.name, m.Name)
		}
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Printf("%-14s %-38s %14.4f %s\n", w.name, m.Name, v, m.Unit)
	}
	for _, k := range sortedKeys(res.Loadgen) {
		fmt.Printf("%-14s %-38s %14.4f\n", w.name, "loadgen."+k, res.Loadgen[k])
	}
	if len(res.Absent) > 0 {
		fmt.Printf("%-14s absent (reported as 0): %s\n", w.name, strings.Join(res.Absent, " "))
	}
	if res.FirstErr != "" {
		fmt.Fprintf(os.Stderr, "benchmark: %s: first failure: %s\n", w.name, res.FirstErr)
	}
	if err := writeJSON(passFile(outDir, w.name, traced), res); err != nil {
		return err
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
	}
	return nil
}

func passFile(outDir, workload string, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("pass-%s-%d.json", workload, t))
}

// resultSet is result.json: every workload's passes from one invocation.
type resultSet struct {
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Go        string           `json:"go"`
	CPUs      int              `json:"cpus"`
	Workloads []workloadResult `json:"workloads"`
	// Claim is always null: this benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
}

type workloadResult struct {
	Name     string                 `json:"name"`
	Why      string                 `json:"why"`
	EndToEnd map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
	Absent   []string               `json:"absent,omitempty"`
	Loadgen  map[string]float64     `json:"loadgen,omitempty"`
	// Attempted and Failed add up both passes.
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	FirstErr  string `json:"first_error,omitempty"`
}

// runSet runs the named workloads, each pass in a fresh process so that
// peak memory, caches and the metrics registry start clean. trace
// selects the passes: 0 or 1 for one of them, anything else for both.
func runSet(names []string, seed int64, seconds, trace int, outDir string) (*resultSet, error) {
	set := &resultSet{Seed: seed, Seconds: seconds, Go: runtime.Version(), CPUs: runtime.NumCPU()}
	for _, name := range names {
		w := workloadByName(name)
		wr := workloadResult{Name: w.name, Why: w.why}
		if trace != 1 {
			res, err := runChild(w, seed, seconds, false, outDir)
			if err != nil {
				return nil, err
			}
			wr.EndToEnd = withUnits(res.Metrics, endToEnd)
			wr.Loadgen = res.Loadgen
			wr.add(res)
		}
		if trace != 0 {
			res, err := runChild(w, seed, max(seconds/4, 1), true, outDir)
			if err != nil {
				return nil, err
			}
			wr.PerLayer = withUnits(res.Metrics, perLayer)
			wr.Absent = res.Absent
			wr.add(res)
		}
		set.Workloads = append(set.Workloads, wr)
	}
	return set, nil
}

func (wr *workloadResult) add(res *runResult) {
	wr.Attempted += res.Attempted
	wr.Failed += res.Failed
	if wr.FirstErr == "" {
		wr.FirstErr = res.FirstErr
	}
}

func withUnits(values map[string]float64, table []metricSpec) map[string]metricValue {
	out := make(map[string]metricValue, len(table))
	for _, m := range table {
		if v, ok := values[m.Name]; ok {
			out[m.Name] = metricValue{Value: v, Unit: m.Unit}
		}
	}
	return out
}

// runChild runs one pass in a fresh process of this same program and
// reads back the record it leaves in outDir.
func runChild(w *workload, seed int64, seconds int, traced bool, outDir string) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s trace=%s seed=%d seconds=%d\n", w.name, t, seed, seconds)
	cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", t, "-out", outDir)
	cmd.Stderr = os.Stderr
	file := passFile(outDir, w.name, traced)
	os.Remove(file)
	runErr := cmd.Run()
	var res runResult
	if err := readJSON(file, &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", w.name, runErr)
		}
		return nil, err
	}
	// A pass with failed operations exits non-zero but still leaves its
	// record; the failures are reported with the rest.
	return &res, nil
}

func (s *resultSet) failed() int64 {
	var n int64
	for _, w := range s.Workloads {
		n += w.Failed
	}
	return n
}

func (s *resultSet) print(out *os.File) {
	for _, w := range s.Workloads {
		fmt.Fprintf(out, "\n%s — %s\n", w.Name, w.Why)
		for _, m := range endToEnd {
			if v, ok := w.EndToEnd[m.Name]; ok {
				fmt.Fprintf(out, "  %-38s %14.4f %s\n", m.Name, v.Value, v.Unit)
			}
		}
		if w.EndToEnd != nil {
			fmt.Fprintf(out, "  %-38s %14.6f ratio (%d of %d)\n", "fail_frac", float64(w.Failed)/float64(max(w.Attempted, 1)), w.Failed, w.Attempted)
		}
		for _, k := range sortedKeys(w.Loadgen) {
			fmt.Fprintf(out, "  %-38s %14.4f\n", "loadgen."+k, w.Loadgen[k])
		}
		for _, m := range perLayer {
			if v, ok := w.PerLayer[m.Name]; ok {
				fmt.Fprintf(out, "  %-38s %14.4f %s\n", m.Name, v.Value, v.Unit)
			}
		}
		if len(w.Absent) > 0 {
			fmt.Fprintf(out, "  absent (reported as 0): %s\n", strings.Join(w.Absent, " "))
		}
		if w.FirstErr != "" {
			fmt.Fprintf(out, "  first failure: %s\n", w.FirstErr)
		}
	}
	fmt.Fprintf(out, "\n\"claim\": null\n")
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer during the traced pass. Spans of
// one traced statement share Stmt; Parent is the index of the span that
// caused this one (-1 for a root). Times are nanoseconds from the start
// of the recorder.
type span struct {
	Name   string `json:"name"`
	Stmt   int    `json:"stmt"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the spans of the traced pass in memory; the file is
// written once, when the pass is over. It is used from one goroutine.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index, the handle for end and the
// parent of any span opened inside it.
func (r *recorder) begin(name string, stmt, parent int) int {
	r.spans = append(r.spans, span{Name: name, Stmt: stmt, Parent: parent, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) { r.spans[i].End = int64(time.Since(r.t0)) }

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover. Children that overlap one
// another are counted once, and the part of a child outside its parent
// is ignored.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// durationsUS collects the durations, in microseconds, of every span
// with the given name.
func durationsUS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// traceFile is the document written to out/trace-<workload>.json.
type traceFile struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Statements int                `json:"statements"`
	Kept       int                `json:"statements_kept"`
	SelfUS     map[string]float64 `json:"median_self_us"`
	Spans      []span             `json:"spans"`
}

// maxTraceStatements caps the statements whose spans go to the file, so
// a point-query pass of tens of thousands of statements stays readable;
// the medians reported use every span.
const maxTraceStatements = 500

func writeTrace(path, workload string, seed int64, spans []span) error {
	self := selfTimes(spans)
	byName := make(map[string][]float64)
	stmts := 0
	for i, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(self[i])/1e3)
		if s.Stmt+1 > stmts {
			stmts = s.Stmt + 1
		}
	}
	tf := traceFile{Workload: workload, Seed: seed, Statements: stmts, SelfUS: make(map[string]float64)}
	for name, xs := range byName {
		tf.SelfUS[name] = median(xs)
	}
	// Spans are appended in statement order, so the kept prefix holds
	// whole statements and parent indexes stay valid.
	cut := len(spans)
	for i, s := range spans {
		if s.Stmt >= maxTraceStatements {
			cut = i
			break
		}
	}
	tf.Spans = spans[:cut]
	tf.Kept = stmts
	if stmts > maxTraceStatements {
		tf.Kept = maxTraceStatements
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

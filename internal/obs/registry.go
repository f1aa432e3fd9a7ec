// Package obs is the observability spine of PREDATOR-Go: a
// dependency-free metrics registry (atomic counters, gauges and
// log-bucketed latency histograms) plus a lightweight per-query span
// tracer. Every layer of the system — storage, executor supervision,
// the query executor, the engine and the server — reports through the
// process-wide Default registry, which is surfaced three ways:
//
//   - SHOW STATS dumps the registry over the wire protocol,
//   - EXPLAIN ANALYZE renders per-operator and per-phase timings,
//   - predator-server -metrics-addr serves Prometheus text format.
//
// Naming scheme: metrics are prefixed "predator_<layer>_", use
// Prometheus conventions (_total for counters, _seconds for latency
// histograms) and identify sub-series with labels, e.g.
// predator_udf_invoke_seconds{design="IC++"}.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (it may go up and down).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add applies a delta.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates durations into logarithmic buckets: bucket i
// covers durations up to 1µs·2^i, doubling from 1µs to ~67s, with a
// final +Inf bucket for anything larger. Zero and negative observations
// land in the first bucket; the layout is fixed so Observe is a single
// atomic add with no allocation.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sumNS   atomic.Int64
}

// histBuckets is 27 finite buckets (1µs<<0 .. 1µs<<26 ≈ 67s) plus +Inf.
const histBuckets = 28

// histUpper returns the upper bound of finite bucket i.
func histUpper(i int) time.Duration { return time.Microsecond << i }

// bucketIndex maps a duration to its bucket.
func bucketIndex(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	for i := 0; i < histBuckets-1; i++ {
		if d <= histUpper(i) {
			return i
		}
	}
	return histBuckets - 1 // +Inf
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.buckets[bucketIndex(d)].Add(1)
	h.count.Add(1)
	if d > 0 {
		h.sumNS.Add(int64(d))
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNS.Load()) }

// Mean returns the average observed duration (0 with no observations).
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / time.Duration(n)
}

// Quantile estimates the q-quantile (0 < q ≤ 1) from the bucket
// boundaries: it returns the upper bound of the bucket holding the
// q·count-th observation, which over-estimates by at most one doubling.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= target {
			if i == histBuckets-1 {
				// +Inf bucket: report the largest finite bound.
				return histUpper(histBuckets - 2)
			}
			return histUpper(i)
		}
	}
	return histUpper(histBuckets - 2)
}

// snapshot copies the bucket counts (cumulative, Prometheus-style).
func (h *Histogram) cumulative() [histBuckets]int64 {
	var out [histBuckets]int64
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		out[i] = cum
	}
	return out
}

// ValueHistogram accumulates dimensionless counts (batch sizes, row
// counts) into power-of-two buckets: bucket i covers values up to 2^i,
// from 1 to 2^19, with a final +Inf bucket. Like Histogram, Observe is
// a single atomic add with no allocation.
type ValueHistogram struct {
	buckets [vhistBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// vhistBuckets is 20 finite buckets (1 .. 2^19 = 524288) plus +Inf.
const vhistBuckets = 21

// vhistUpper returns the upper bound of finite bucket i.
func vhistUpper(i int) int64 { return 1 << i }

// Observe records one value.
func (h *ValueHistogram) Observe(v int64) {
	i := 0
	for i < vhistBuckets-1 && v > vhistUpper(i) {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	if v > 0 {
		h.sum.Add(v)
	}
}

// Count returns the number of observations.
func (h *ValueHistogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observed values.
func (h *ValueHistogram) Sum() int64 { return h.sum.Load() }

// Mean returns the average observed value (0 with no observations).
func (h *ValueHistogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// cumulative copies the bucket counts (cumulative, Prometheus-style).
func (h *ValueHistogram) cumulative() [vhistBuckets]int64 {
	var out [vhistBuckets]int64
	var cum int64
	for i := 0; i < vhistBuckets; i++ {
		cum += h.buckets[i].Load()
		out[i] = cum
	}
	return out
}

// metricKind distinguishes registry entries for rendering.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindValueHistogram
)

// entry is one registered metric instance (a base name + label set).
type entry struct {
	name   string // base metric name
	labels string // canonical rendered labels: `k="v",k2="v2"` or ""
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
	vh     *ValueHistogram
}

// id is the full identity used as the map key and SHOW STATS name.
func (e *entry) id() string {
	if e.labels == "" {
		return e.name
	}
	return e.name + "{" + e.labels + "}"
}

// Registry is a named collection of metrics. All methods are safe for
// concurrent use; metric handles are cached and stable, so hot paths
// should resolve them once and keep the pointer.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// Default is the process-wide registry every layer reports into
// (mirroring how supervision counters were already process-global).
var Default = NewRegistry()

// labelEscaper escapes a label value for the exposition format. Built
// once: every labelled lookup — several per statement — renders labels.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// renderLabels canonicalizes k,v pairs: sorted, escaped, `k="v"` form.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		labels = append(labels, "")
	}
	pairs := make([]string, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		v := labelEscaper.Replace(labels[i+1])
		pairs = append(pairs, fmt.Sprintf(`%s=%q`, labels[i], v))
	}
	sort.Strings(pairs)
	return strings.Join(pairs, ",")
}

// lookup finds or creates the entry for (name, labels, kind).
func (r *Registry) lookup(name string, kind metricKind, labels []string) *entry {
	e := &entry{name: name, labels: renderLabels(labels), kind: kind}
	key := e.id()
	r.mu.RLock()
	got, ok := r.entries[key]
	r.mu.RUnlock()
	if ok {
		return got
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.entries[key]; ok {
		return got
	}
	switch kind {
	case kindCounter:
		e.c = &Counter{}
	case kindGauge:
		e.g = &Gauge{}
	case kindHistogram:
		e.h = &Histogram{}
	case kindValueHistogram:
		e.vh = &ValueHistogram{}
	}
	r.entries[key] = e
	return e
}

// Counter returns (creating if needed) the counter with the given base
// name and optional k,v label pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return r.lookup(name, kindCounter, labels).c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return r.lookup(name, kindGauge, labels).g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	return r.lookup(name, kindHistogram, labels).h
}

// ValueHistogram returns (creating if needed) the named count-valued
// histogram (batch sizes and similar dimensionless distributions).
func (r *Registry) ValueHistogram(name string, labels ...string) *ValueHistogram {
	return r.lookup(name, kindValueHistogram, labels).vh
}

// Stat is one row of a registry dump (SHOW STATS).
type Stat struct {
	Name  string
	Value string
}

// Dump flattens the registry into sorted name/value rows. Histograms
// expand into _count, _sum_seconds, _mean_seconds, _p50_seconds and
// _p99_seconds derived rows.
func (r *Registry) Dump() []Stat {
	r.mu.RLock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].id() < entries[j].id() })
	var out []Stat
	for _, e := range entries {
		switch e.kind {
		case kindCounter:
			out = append(out, Stat{e.id(), fmt.Sprintf("%d", e.c.Value())})
		case kindGauge:
			out = append(out, Stat{e.id(), fmt.Sprintf("%d", e.g.Value())})
		case kindHistogram:
			derived := func(suffix, val string) Stat {
				name := e.name + suffix
				if e.labels != "" {
					name += "{" + e.labels + "}"
				}
				return Stat{name, val}
			}
			out = append(out,
				derived("_count", fmt.Sprintf("%d", e.h.Count())),
				derived("_sum_seconds", fmt.Sprintf("%.6f", e.h.Sum().Seconds())),
				derived("_mean_seconds", fmt.Sprintf("%.6f", e.h.Mean().Seconds())),
				derived("_p50_seconds", fmt.Sprintf("%.6f", e.h.Quantile(0.50).Seconds())),
				derived("_p99_seconds", fmt.Sprintf("%.6f", e.h.Quantile(0.99).Seconds())),
			)
		case kindValueHistogram:
			derived := func(suffix, val string) Stat {
				name := e.name + suffix
				if e.labels != "" {
					name += "{" + e.labels + "}"
				}
				return Stat{name, val}
			}
			out = append(out,
				derived("_count", fmt.Sprintf("%d", e.vh.Count())),
				derived("_sum", fmt.Sprintf("%d", e.vh.Sum())),
				derived("_mean", fmt.Sprintf("%.2f", e.vh.Mean())),
			)
		}
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	// Group instances of the same base name under one TYPE header.
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].name != entries[j].name {
			return entries[i].name < entries[j].name
		}
		return entries[i].labels < entries[j].labels
	})
	var b strings.Builder
	lastName := ""
	for _, e := range entries {
		if e.name != lastName {
			typ := "counter"
			switch e.kind {
			case kindGauge:
				typ = "gauge"
			case kindHistogram, kindValueHistogram:
				typ = "histogram"
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", e.name, typ)
			lastName = e.name
		}
		switch e.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s %d\n", e.id(), e.c.Value())
		case kindGauge:
			fmt.Fprintf(&b, "%s %d\n", e.id(), e.g.Value())
		case kindHistogram:
			cum := e.h.cumulative()
			for i := 0; i < histBuckets; i++ {
				le := "+Inf"
				if i < histBuckets-1 {
					le = fmt.Sprintf("%g", histUpper(i).Seconds())
				}
				labels := renderLabels([]string{"le", le})
				if e.labels != "" {
					labels = e.labels + "," + labels
				}
				fmt.Fprintf(&b, "%s_bucket{%s} %d\n", e.name, labels, cum[i])
			}
			suffix := ""
			if e.labels != "" {
				suffix = "{" + e.labels + "}"
			}
			fmt.Fprintf(&b, "%s_sum%s %.9f\n", e.name, suffix, e.h.Sum().Seconds())
			fmt.Fprintf(&b, "%s_count%s %d\n", e.name, suffix, e.h.Count())
		case kindValueHistogram:
			cum := e.vh.cumulative()
			for i := 0; i < vhistBuckets; i++ {
				le := "+Inf"
				if i < vhistBuckets-1 {
					le = fmt.Sprintf("%d", vhistUpper(i))
				}
				labels := renderLabels([]string{"le", le})
				if e.labels != "" {
					labels = e.labels + "," + labels
				}
				fmt.Fprintf(&b, "%s_bucket{%s} %d\n", e.name, labels, cum[i])
			}
			suffix := ""
			if e.labels != "" {
				suffix = "{" + e.labels + "}"
			}
			fmt.Fprintf(&b, "%s_sum%s %d\n", e.name, suffix, e.vh.Sum())
			fmt.Fprintf(&b, "%s_count%s %d\n", e.name, suffix, e.vh.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Package obs is lagraphd's zero-dependency telemetry subsystem: metric
// primitives (counters, gauges, histograms, with labels) rendered in the
// Prometheus text exposition format, plus a lightweight request/job
// tracing facility (trace.go) with an in-memory ring and a structured
// access/slow-query log.
//
// The design follows the Prometheus client data model without importing
// it: a Registry holds metric families in registration order; each family
// holds labeled series created on first use; instruments are lock-free
// atomics on the hot path. Func variants (CounterFunc, GaugeFunc) collect
// a value at scrape time, bridging subsystems that already maintain their
// own counters — the value is still defined exactly once, in the
// subsystem, and read at scrape time (/stats is a JSON view of a scrape).
//
// Registration is idempotent: asking for a family that already exists
// with the same type and label names returns the existing one, so two
// engines wired to one registry share series instead of colliding.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default latency histogram buckets (seconds),
// matching the Prometheus client default.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// metricKind is the exposition TYPE of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// atomicFloat is a float64 with atomic add/load, stored as bits.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) Add(v float64) {
	for {
		old := a.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if a.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (a *atomicFloat) Set(v float64) { a.bits.Store(math.Float64bits(v)) }
func (a *atomicFloat) Load() float64 { return math.Float64frombits(a.bits.Load()) }

// Counter is a monotonically increasing value.
type Counter struct{ v atomicFloat }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds v; negative deltas are ignored (counters are monotone).
func (c *Counter) Add(v float64) {
	if v > 0 {
		c.v.Add(v)
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.Load() }

// Int returns the current count truncated to int64 (the subsystems count
// integral events; their in-process snapshots read them back through this).
func (c *Counter) Int() int64 { return int64(c.v.Load()) }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomicFloat }

func (g *Gauge) Inc()           { g.v.Add(1) }
func (g *Gauge) Dec()           { g.v.Add(-1) }
func (g *Gauge) Add(v float64)  { g.v.Add(v) }
func (g *Gauge) Set(v float64)  { g.v.Set(v) }
func (g *Gauge) Value() float64 { return g.v.Load() }
func (g *Gauge) Int() int64     { return int64(g.v.Load()) }

// Histogram observes a distribution into cumulative buckets.
type Histogram struct {
	upper  []float64 // sorted upper bounds, +Inf excluded
	counts []atomic.Int64
	sum    atomicFloat
	count  atomic.Int64
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{upper: buckets, counts: make([]atomic.Int64, len(buckets)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bound >= v
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// series is one labeled instance inside a family.
type series struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
	collect     func() float64 // Func instruments; nil otherwise
}

// family is one named metric with its type, help and series.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string  // label names, fixed at registration
	bucket []float64 // histogram upper bounds

	mu     sync.Mutex
	series map[string]*series // key: joined label values
	order  []string
}

// seriesKey joins label values unambiguously.
func seriesKey(values []string) string { return strings.Join(values, "\x00") }

// get returns (creating if needed) the series for the label values.
func (f *family) get(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q expects %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labelValues: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		s.counter = &Counter{}
	case kindGauge:
		s.gauge = &Gauge{}
	case kindHistogram:
		s.hist = newHistogram(f.bucket)
	}
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// snapshot returns the series in creation order.
func (f *family) snapshot() []*series {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*series, 0, len(f.order))
	for _, k := range f.order {
		out = append(out, f.series[k])
	}
	return out
}

// Registry holds metric families and renders them for scraping.
type Registry struct {
	mu      sync.Mutex
	fams    map[string]*family
	order   []*family
	sources []*Registry // additional registries rendered after this one
}

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// AddSource appends another registry whose families are rendered after
// this one's on every scrape — the composition hook for subsystems that
// own a private registry (the durable store). Adding a source twice, or
// the registry itself, is a no-op.
func (r *Registry) AddSource(src *Registry) {
	if src == nil || src == r {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.sources {
		if s == src {
			return
		}
	}
	r.sources = append(r.sources, src)
}

var nameRe = func(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register returns the named family, creating it if new. Re-registering
// with the same type and label names returns the existing family;
// mismatches panic (a programming error, like the Prometheus client).
func (r *Registry) register(name, help string, kind metricKind, labels []string, buckets []float64) *family {
	if !nameRe(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !nameRe(l) || strings.HasPrefix(l, "__") {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with different type or labels", name))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %q re-registered with different labels", name))
			}
		}
		return f
	}
	if len(buckets) > 0 && !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("obs: histogram %q buckets not sorted", name))
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels: append([]string(nil), labels...),
		bucket: append([]float64(nil), buckets...),
		series: make(map[string]*series),
	}
	r.fams[name] = f
	r.order = append(r.order, f)
	return f
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, nil, nil).get(nil).counter
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, nil, nil).get(nil).gauge
}

// Histogram registers (or returns) an unlabeled histogram. Buckets are
// upper bounds in increasing order; +Inf is implicit. Nil selects
// DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.register(name, help, kindHistogram, nil, buckets).get(nil).hist
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (created on first
// use), in the order the labels were registered.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).counter }

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, labels, nil)}
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

func (v *GaugeVec) With(values ...string) *Gauge { return v.f.get(values).gauge }

// Func makes the series for the given label values collect fn at scrape
// time — the labeled sibling of GaugeFunc, used for per-component
// readiness where the value is defined by a probe, not a setter.
func (v *GaugeVec) Func(fn func() float64, values ...string) {
	s := v.f.get(values)
	v.f.mu.Lock()
	s.collect = fn
	v.f.mu.Unlock()
}

// GaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, kindGauge, labels, nil)}
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).hist }

// HistogramVec registers (or returns) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{r.register(name, help, kindHistogram, labels, buckets)}
}

// CounterFunc registers a counter collected at scrape time. The function
// must be monotone and safe to call concurrently — typically a closure
// over an existing subsystem atomic, so the counter stays defined in one
// place.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindCounter, nil, nil)
	s := f.get(nil)
	f.mu.Lock()
	s.collect = fn
	f.mu.Unlock()
}

// GaugeFunc registers a gauge collected at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge, nil, nil)
	s := f.get(nil)
	f.mu.Lock()
	s.collect = fn
	f.mu.Unlock()
}

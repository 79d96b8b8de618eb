package obs

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"
)

// Runtime telemetry: a RuntimeSource samples the Go runtime's metrics
// (runtime/metrics) into Prometheus families — heap and total memory,
// GC cycle count and pause quantiles, goroutine count, scheduling
// latency, GOMAXPROCS — plus high-watermark gauges for the two values
// that matter most in a post-mortem (heap bytes, goroutines). The
// source owns a private Registry composed into the server's via
// AddSource, exactly like the durable store's.
//
// Samples are collected lazily at scrape time, rate-limited so a tight
// scrape loop never turns metrics.Read into a hot path.

// runtimeSampleNames are the runtime/metrics samples the source reads.
// All of them exist since Go 1.17; unknown names read as KindBad and are
// skipped, so a future runtime renaming degrades to zeros, not panics.
var runtimeSampleNames = []string{
	"/sched/goroutines:goroutines",
	"/sched/gomaxprocs:threads",
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/total:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/goal:bytes",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
}

// runtimeRefreshInterval rate-limits metrics.Read: scrapes closer
// together than this reuse the previous sample set.
const runtimeRefreshInterval = 100 * time.Millisecond

// RuntimeSource samples runtime/metrics into a private Registry.
type RuntimeSource struct {
	reg *Registry

	mu          sync.Mutex
	samples     []metrics.Sample
	lastRefresh time.Time
	minRefresh  time.Duration

	// Sampled values, all guarded by mu.
	goroutines  float64
	gomaxprocs  float64
	heapBytes   float64
	totalBytes  float64
	gcCycles    float64
	heapGoal    float64
	gcPauseP50  float64
	gcPauseMax  float64
	schedLatP50 float64
	schedLatP99 float64

	// High watermarks (monotone over the process lifetime).
	heapHW      float64
	goroutineHW float64
}

// NewRuntimeSource builds the source and registers its families.
func NewRuntimeSource() *RuntimeSource {
	rs := &RuntimeSource{
		reg:        NewRegistry(),
		samples:    make([]metrics.Sample, len(runtimeSampleNames)),
		minRefresh: runtimeRefreshInterval,
	}
	for i, n := range runtimeSampleNames {
		rs.samples[i].Name = n
	}
	gauge := func(name, help string, read func(*RuntimeSource) float64) {
		rs.reg.GaugeFunc(name, help, func() float64 { return rs.value(read) })
	}
	gauge("go_goroutines", "Current number of goroutines.",
		func(r *RuntimeSource) float64 { return r.goroutines })
	gauge("go_goroutines_high_watermark", "Highest goroutine count observed since process start.",
		func(r *RuntimeSource) float64 { return r.goroutineHW })
	gauge("go_gomaxprocs", "Current GOMAXPROCS setting.",
		func(r *RuntimeSource) float64 { return r.gomaxprocs })
	gauge("go_heap_objects_bytes", "Bytes of live heap objects plus unswept dead objects.",
		func(r *RuntimeSource) float64 { return r.heapBytes })
	gauge("go_heap_high_watermark_bytes", "Highest heap-object bytes observed since process start.",
		func(r *RuntimeSource) float64 { return r.heapHW })
	gauge("go_heap_goal_bytes", "Heap size target of the next GC cycle.",
		func(r *RuntimeSource) float64 { return r.heapGoal })
	gauge("go_memory_total_bytes", "Total bytes of memory mapped by the Go runtime.",
		func(r *RuntimeSource) float64 { return r.totalBytes })
	gauge("go_gc_pause_p50_seconds", "Median stop-the-world GC pause (process lifetime).",
		func(r *RuntimeSource) float64 { return r.gcPauseP50 })
	gauge("go_gc_pause_max_seconds", "Longest stop-the-world GC pause bucket observed (process lifetime).",
		func(r *RuntimeSource) float64 { return r.gcPauseMax })
	gauge("go_sched_latency_p50_seconds", "Median goroutine scheduling latency (process lifetime).",
		func(r *RuntimeSource) float64 { return r.schedLatP50 })
	gauge("go_sched_latency_p99_seconds", "99th-percentile goroutine scheduling latency (process lifetime).",
		func(r *RuntimeSource) float64 { return r.schedLatP99 })
	rs.reg.CounterFunc("go_gc_cycles_total", "Completed GC cycles since process start.",
		func() float64 { return rs.value(func(r *RuntimeSource) float64 { return r.gcCycles }) })
	return rs
}

// Registry exposes the source's families for Registry.AddSource.
func (rs *RuntimeSource) Registry() *Registry { return rs.reg }

// value refreshes (rate-limited) and reads one sampled field under mu.
func (rs *RuntimeSource) value(read func(*RuntimeSource) float64) float64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.refreshLocked()
	return read(rs)
}

// refreshLocked re-samples runtime/metrics unless the previous sample set
// is fresh enough.
func (rs *RuntimeSource) refreshLocked() {
	if time.Since(rs.lastRefresh) < rs.minRefresh {
		return
	}
	rs.lastRefresh = time.Now()
	metrics.Read(rs.samples)
	for i := range rs.samples {
		s := &rs.samples[i]
		switch s.Name {
		case "/sched/goroutines:goroutines":
			rs.goroutines = sampleFloat(s)
			rs.goroutineHW = math.Max(rs.goroutineHW, rs.goroutines)
		case "/sched/gomaxprocs:threads":
			rs.gomaxprocs = sampleFloat(s)
		case "/memory/classes/heap/objects:bytes":
			rs.heapBytes = sampleFloat(s)
			rs.heapHW = math.Max(rs.heapHW, rs.heapBytes)
		case "/memory/classes/total:bytes":
			rs.totalBytes = sampleFloat(s)
		case "/gc/cycles/total:gc-cycles":
			rs.gcCycles = sampleFloat(s)
		case "/gc/heap/goal:bytes":
			rs.heapGoal = sampleFloat(s)
		case "/gc/pauses:seconds":
			if h := sampleHist(s); h != nil {
				rs.gcPauseP50 = histQuantile(h, 0.50)
				rs.gcPauseMax = histMax(h)
			}
		case "/sched/latencies:seconds":
			if h := sampleHist(s); h != nil {
				rs.schedLatP50 = histQuantile(h, 0.50)
				rs.schedLatP99 = histQuantile(h, 0.99)
			}
		}
	}
}

// sampleFloat converts a scalar sample to float64 (0 for bad kinds).
func sampleFloat(s *metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// sampleHist returns the sample's histogram, or nil for bad kinds.
func sampleHist(s *metrics.Sample) *metrics.Float64Histogram {
	if s.Value.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	return s.Value.Float64Histogram()
}

// histQuantile estimates quantile q (0..1] from a runtime histogram by
// returning the upper bound of the bucket holding the q-th observation.
// Buckets has len(Counts)+1 boundaries; ±Inf boundaries fall back to the
// finite neighbor.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			hi := h.Buckets[i+1]
			if math.IsInf(hi, +1) {
				return h.Buckets[i]
			}
			return hi
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// histMax returns the upper bound of the highest non-empty bucket.
func histMax(h *metrics.Float64Histogram) float64 {
	for i := len(h.Counts) - 1; i >= 0; i-- {
		if h.Counts[i] == 0 {
			continue
		}
		hi := h.Buckets[i+1]
		if math.IsInf(hi, +1) {
			return h.Buckets[i]
		}
		return hi
	}
	return 0
}

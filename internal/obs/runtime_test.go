package obs

import (
	"strings"
	"testing"
	"time"
)

// scrapeRuntime composes a fresh source into a scraped registry the way
// the server does and validates the rendering with the strict parser.
func scrapeRuntime(t *testing.T) *Exposition {
	t.Helper()
	rs := NewRuntimeSource()
	rs.minRefresh = time.Hour // one sample set for the whole scrape
	reg := NewRegistry()
	reg.AddSource(rs.Registry())

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	exp, err := ValidateExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("runtime families rejected by strict parser: %v", err)
	}
	return exp
}

// TestRuntimeSourceExposition asserts all twelve runtime families are
// rendered with their declared types.
func TestRuntimeSourceExposition(t *testing.T) {
	exp := scrapeRuntime(t)
	for fam, kind := range map[string]string{
		"go_goroutines":                "gauge",
		"go_goroutines_high_watermark": "gauge",
		"go_gomaxprocs":                "gauge",
		"go_heap_objects_bytes":        "gauge",
		"go_heap_high_watermark_bytes": "gauge",
		"go_heap_goal_bytes":           "gauge",
		"go_memory_total_bytes":        "gauge",
		"go_gc_cycles_total":           "counter",
		"go_gc_pause_p50_seconds":      "gauge",
		"go_gc_pause_max_seconds":      "gauge",
		"go_sched_latency_p50_seconds": "gauge",
		"go_sched_latency_p99_seconds": "gauge",
	} {
		if got := exp.Types[fam]; got != kind {
			t.Errorf("family %s: type %q, want %q", fam, got, kind)
		}
	}
}

// TestRuntimeSourceSnapshot asserts the sampled values one scrape reads
// are sane: a live Go process has goroutines, GOMAXPROCS and heap bytes,
// and each high watermark is at least its current value.
func TestRuntimeSourceSnapshot(t *testing.T) {
	exp := scrapeRuntime(t)
	val := map[string]float64{}
	for _, s := range exp.Samples {
		val[s.Name] = s.Value
	}
	if val["go_goroutines"] < 1 {
		t.Errorf("go_goroutines = %v, want >= 1", val["go_goroutines"])
	}
	if val["go_gomaxprocs"] < 1 {
		t.Errorf("go_gomaxprocs = %v, want >= 1", val["go_gomaxprocs"])
	}
	if val["go_heap_objects_bytes"] <= 0 {
		t.Errorf("go_heap_objects_bytes = %v, want > 0", val["go_heap_objects_bytes"])
	}
	if val["go_heap_high_watermark_bytes"] < val["go_heap_objects_bytes"] {
		t.Errorf("heap watermark %v below current %v",
			val["go_heap_high_watermark_bytes"], val["go_heap_objects_bytes"])
	}
	if val["go_goroutines_high_watermark"] < val["go_goroutines"] {
		t.Errorf("goroutine watermark %v below current %v",
			val["go_goroutines_high_watermark"], val["go_goroutines"])
	}
}

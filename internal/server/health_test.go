package server

import (
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"lagraph/internal/jobs"
	"lagraph/internal/registry"
	"lagraph/internal/store"
)

// TestHealthzQueueComponentFlips fills the job queue: while it is full
// /healthz is 503 and names the queue component, and the readiness gauges
// agree; once the queue drains /healthz is 200 again.
func TestHealthzQueueComponentFlips(t *testing.T) {
	reg := registry.New(0)
	srv := New(reg, Options{Jobs: jobs.Options{Workers: 1, QueueDepth: 1}})
	ts := newHTTPServer(t, srv)
	loadSyntheticGraph(t, ts, "g", "kron", 5)

	// One never-converging job occupies the single worker, a second fills
	// the depth-1 queue, the third bounces 429.
	code, j1 := doJSON(t, "POST", ts+"/graphs/g/jobs", map[string]any{
		"algorithm": "pagerank", "params": neverConverges,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit blocker: %d %v", code, j1)
	}
	pollJob(t, ts, j1["id"].(string), func(s string) bool { return s == "running" })
	code, j2 := doJSON(t, "POST", ts+"/graphs/g/jobs", map[string]any{
		"algorithm": "pagerank", "params": map[string]any{"tol": -1.0, "max_iter": 1 << 29},
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit queued job: %d %v", code, j2)
	}
	code, body := doJSON(t, "POST", ts+"/graphs/g/jobs", map[string]any{
		"algorithm": "pagerank", "params": map[string]any{"tol": -1.0, "max_iter": 1 << 28},
	})
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow submission: %d %v, want 429", code, body)
	}

	code, health := doJSON(t, "GET", ts+"/healthz", nil)
	if code != http.StatusServiceUnavailable || health["status"] != "degraded" {
		t.Fatalf("healthz under saturation: %d %v", code, health)
	}
	comps := health["components"].(map[string]any)
	queue := comps["queue"].(map[string]any)
	if queue["ready"] != false || queue["detail"] == "" {
		t.Fatalf("queue component under saturation: %v", queue)
	}
	if comps["compactor"].(map[string]any)["ready"] != true {
		t.Fatalf("compactor component: %v", comps)
	}
	scrape := getBody(t, ts+"/metrics")
	if !strings.Contains(scrape, `component_ready{component="queue"} 0`) {
		t.Error("/metrics missing component_ready{queue} 0 during saturation")
	}
	if !strings.Contains(scrape, `component_ready{component="compactor"} 1`) {
		t.Error("/metrics missing component_ready{compactor} 1")
	}

	for _, j := range []map[string]any{j1, j2} {
		if code, _ := doJSON(t, "DELETE", ts+"/jobs/"+j["id"].(string), nil); code != http.StatusOK {
			t.Fatalf("cancel %v: %d", j["id"], code)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _ = doJSON(t, "GET", ts+"/healthz", nil)
		if code == http.StatusOK || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code != http.StatusOK {
		t.Fatalf("healthz never recovered after drain: %d", code)
	}
}

// TestHealthzStoreComponentFlips boots a durable server, then destroys
// its data directory out from under it: the store component must flip to
// not-ready (and /healthz to 503) before any WAL append discovers the
// problem the hard way.
func TestHealthzStoreComponentFlips(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir, Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(0)
	srv := New(reg, Options{Store: st})
	ts := newHTTPServer(t, srv)

	code, health := doJSON(t, "GET", ts+"/healthz", nil)
	if code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthy daemon: %d %v", code, health)
	}
	comps := health["components"].(map[string]any)
	for _, name := range []string{"store", "queue", "compactor"} {
		c, ok := comps[name].(map[string]any)
		if !ok || c["ready"] != true {
			t.Fatalf("component %s not ready on a healthy daemon: %v", name, comps)
		}
	}

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	code, health = doJSON(t, "GET", ts+"/healthz", nil)
	if code != http.StatusServiceUnavailable || health["status"] != "degraded" {
		t.Fatalf("healthz with destroyed data dir: %d %v", code, health)
	}
	st2 := health["components"].(map[string]any)["store"].(map[string]any)
	if st2["ready"] != false || !strings.Contains(st2["detail"].(string), "not writable") {
		t.Fatalf("store component after destruction: %v", st2)
	}
	if !strings.Contains(getBody(t, ts+"/metrics"), `component_ready{component="store"} 0`) {
		t.Error("/metrics component_ready{store} still 1 after data-dir destruction")
	}
}

// TestRetiredDebugRoutes404 pins the removal of the incident and bundle
// routes: traces, the slow-query log, /metrics and pprof carry that
// evidence now.
func TestRetiredDebugRoutes404(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	for _, path := range []string{"/debug/incidents", "/debug/incidents/inc-000001", "/debug/bundle"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestTracesLimitDefaultAndCap pins the /debug/traces listing bounds:
// the default applies without ?limit=, explicit limits are capped, and
// non-positive or garbage limits are rejected.
func TestTracesLimitDefaultAndCap(t *testing.T) {
	ts, _ := newTestServer(t, 0)

	code, body := doJSON(t, "GET", ts.URL+"/debug/traces", nil)
	if code != http.StatusOK || body["limit"].(float64) != defaultTraceLimit {
		t.Fatalf("default limit: %d %v", code, body["limit"])
	}
	code, body = doJSON(t, "GET", ts.URL+"/debug/traces?limit=100000", nil)
	if code != http.StatusOK || body["limit"].(float64) != maxTraceLimit {
		t.Fatalf("capped limit: %d %v", code, body["limit"])
	}
	for _, bad := range []string{"0", "-3", "abc"} {
		if code, _ := doJSON(t, "GET", ts.URL+"/debug/traces?limit="+bad, nil); code != http.StatusBadRequest {
			t.Fatalf("limit=%s: %d, want 400", bad, code)
		}
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

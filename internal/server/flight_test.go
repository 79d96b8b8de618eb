package server

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"lagraph/internal/algo"
	"lagraph/internal/jobs"
	"lagraph/internal/obs"
	"lagraph/internal/registry"
	"lagraph/internal/store"
)

// failingCatalog is Builtin plus a kernel that always errors — the
// job-failure trigger's fuel.
func failingCatalog(t *testing.T) *algo.Catalog {
	t.Helper()
	c := algo.Builtin()
	c.MustRegister(algo.Descriptor{
		Name: "fail.always",
		Tier: algo.TierAdvanced,
		Doc:  "test kernel: always fails",
		Run: func(context.Context, *algo.Graph, algo.Params) (algo.Result, error) {
			return nil, errors.New("kernel exploded")
		},
	})
	return c
}

// incidentKinds polls GET /debug/incidents until every wanted kind is
// retained (trigger hooks run just off the state mutex, so the capture
// can trail the observable state change by a beat).
func incidentKinds(t *testing.T, base string, want ...string) map[string]map[string]any {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := doJSON(t, "GET", base+"/debug/incidents", nil)
		if code != http.StatusOK {
			t.Fatalf("GET /debug/incidents: %d", code)
		}
		byKind := map[string]map[string]any{}
		for _, raw := range body["incidents"].([]any) {
			inc := raw.(map[string]any)
			byKind[inc["kind"].(string)] = inc
		}
		missing := false
		for _, k := range want {
			if _, ok := byKind[k]; !ok {
				missing = true
			}
		}
		if !missing {
			return byKind
		}
		if time.Now().After(deadline) {
			t.Fatalf("incidents %v never all captured; have %v", want, body["incidents"])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFlightRecorderE2E is the acceptance scenario (run under -race in
// CI): a slow query, a failing job and a saturated queue each freeze the
// flight ring into an incident; /debug/incidents serves them,
// /debug/incidents/{id} serves a full capture with profile summaries,
// /healthz flips its queue component while the queue is full, and
// /debug/bundle ships a well-formed tar.gz holding logs, traces, metric
// snapshots and a goroutine summary.
func TestFlightRecorderE2E(t *testing.T) {
	reg := registry.New(0)
	srv := New(reg, Options{
		Jobs:           jobs.Options{Workers: 1, QueueDepth: 1},
		SlowThreshold:  time.Nanosecond, // every request is a slow query
		IncidentWindow: time.Hour,
		Catalog:        failingCatalog(t),
	})
	ts := newHTTPServer(t, srv)

	loadSyntheticGraph(t, ts, "g", "kron", 5)

	// Slow query: the load itself crossed the 1ns threshold. Every later
	// request folds into the same incident — the debounce window is an
	// hour — so exactly one slow_query incident exists all test long.
	incidentKinds(t, ts, "slow_query")

	// Job failure.
	code, job := doJSON(t, "POST", ts+"/graphs/g/jobs", map[string]any{"algorithm": "fail.always"})
	if code != http.StatusAccepted {
		t.Fatalf("submit failing job: %d %v", code, job)
	}
	pollJob(t, ts, job["id"].(string), func(s string) bool { return s == "failed" })
	incidentKinds(t, ts, "job_failure")

	// Queue saturation: one never-converging job occupies the single
	// worker, a second fills the depth-1 queue, the third bounces 429.
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
	byKind := incidentKinds(t, ts, "slow_query", "job_failure", "queue_saturated")

	// With the queue full, /healthz degrades and names the component.
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

	// The readiness gauges agree with the body.
	scrape := getBody(t, ts+"/metrics")
	if !strings.Contains(scrape, `component_ready{component="queue"} 0`) {
		t.Error("/metrics missing component_ready{queue} 0 during saturation")
	}
	if !strings.Contains(scrape, `component_ready{component="compactor"} 1`) {
		t.Error("/metrics missing component_ready{compactor} 1")
	}
	if !strings.Contains(scrape, "go_goroutines") || !strings.Contains(scrape, "incidents_total") {
		t.Error("/metrics missing runtime or recorder families")
	}

	// Drain the queue; /healthz recovers.
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

	// One full capture: the slow-query incident carries logs? (no logger
	// wired here), traces, at least one metric snapshot, and profile
	// summaries. Its debounce folded every later slow request.
	slow := byKind["slow_query"]
	code, inc := doJSON(t, "GET", ts+"/debug/incidents/"+slow["id"].(string), nil)
	if code != http.StatusOK {
		t.Fatalf("GET incident: %d %v", code, inc)
	}
	if n := inc["goroutines"].(map[string]any)["count"].(float64); n <= 0 {
		t.Fatalf("goroutine summary count = %v", n)
	}
	if snaps := inc["metric_snapshots"].([]any); len(snaps) == 0 {
		t.Fatal("incident has no metric snapshots")
	}
	if traces := inc["traces"]; traces == nil {
		t.Fatal("incident has no trace capture")
	}
	if co := slow["coalesced"].(float64); co < 1 {
		t.Fatalf("slow_query coalesced = %v, want >= 1 (every request was slow)", co)
	}
	if _, ok := inc["heap"].(map[string]any)["sys_bytes"]; !ok {
		t.Fatalf("heap summary missing: %v", inc["heap"])
	}

	// Unknown incident id → 404.
	if code, _ := doJSON(t, "GET", ts+"/debug/incidents/inc-999999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown incident: %d, want 404", code)
	}

	// The bundle: one GET, a complete offline-diagnosis kit.
	files := fetchBundle(t, ts)
	for _, name := range []string{
		"bundle/build.json", "bundle/metrics.prom", "bundle/healthz.json",
		"bundle/incidents.json", "bundle/traces.json", "bundle/goroutines.txt",
	} {
		if _, ok := files[name]; !ok {
			t.Fatalf("bundle missing %s; has %v", name, keys(files))
		}
	}
	exp, err := obs.ValidateExposition(bytes.NewReader(files["bundle/metrics.prom"]))
	if err != nil {
		t.Fatalf("bundle metrics snapshot rejected by strict parser: %v", err)
	}
	if _, ok := exp.Types["incidents_total"]; !ok {
		t.Error("bundle scrape missing incidents_total")
	}
	var incidents []map[string]any
	if err := json.Unmarshal(files["bundle/incidents.json"], &incidents); err != nil {
		t.Fatalf("bundle incidents.json: %v", err)
	}
	kinds := map[string]bool{}
	for _, inc := range incidents {
		kinds[inc["kind"].(string)] = true
	}
	for _, k := range []string{"slow_query", "job_failure", "queue_saturated"} {
		if !kinds[k] {
			t.Errorf("bundle incidents.json missing kind %s (has %v)", k, kinds)
		}
	}
	if !bytes.Contains(files["bundle/goroutines.txt"], []byte("goroutine profile")) {
		t.Error("bundle goroutines.txt is not a goroutine profile dump")
	}
	var build map[string]any
	if err := json.Unmarshal(files["bundle/build.json"], &build); err != nil || build["go_version"] == "" {
		t.Fatalf("bundle build.json: %v %v", err, build)
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
	srv := New(reg, Options{Store: st, IncidentWindow: time.Hour})
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

// TestDebugEndpointsWithRecorderDisabled pins the -incident-window 0
// surface: incidents report enabled=false, incident lookups 404, and the
// bundle still works (scrape, traces, build info — just no incidents).
func TestDebugEndpointsWithRecorderDisabled(t *testing.T) {
	ts, _ := newTestServer(t, 0)

	code, body := doJSON(t, "GET", ts.URL+"/debug/incidents", nil)
	if code != http.StatusOK || body["enabled"] != false || body["count"].(float64) != 0 {
		t.Fatalf("incidents with recorder off: %d %v", code, body)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/debug/incidents/inc-000001", nil); code != http.StatusNotFound {
		t.Fatalf("incident lookup with recorder off: %d, want 404", code)
	}
	files := fetchBundle(t, ts.URL)
	var incidents []any
	if err := json.Unmarshal(files["bundle/incidents.json"], &incidents); err != nil || len(incidents) != 0 {
		t.Fatalf("disabled-recorder bundle incidents: %v %v", err, incidents)
	}
	if _, err := obs.ValidateExposition(bytes.NewReader(files["bundle/metrics.prom"])); err != nil {
		t.Fatalf("disabled-recorder bundle scrape: %v", err)
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

// fetchBundle GETs /debug/bundle and unpacks the tar.gz into a
// name→content map.
func fetchBundle(t *testing.T, base string) map[string][]byte {
	t.Helper()
	resp, err := http.Get(base + "/debug/bundle")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/bundle: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/gzip" {
		t.Fatalf("bundle Content-Type = %q", ct)
	}
	gz, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatalf("bundle is not gzip: %v", err)
	}
	tr := tar.NewReader(gz)
	files := map[string][]byte{}
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("bundle tar: %v", err)
		}
		b, err := io.ReadAll(tr)
		if err != nil {
			t.Fatalf("bundle entry %s: %v", hdr.Name, err)
		}
		files[hdr.Name] = b
	}
	return files
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

func keys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

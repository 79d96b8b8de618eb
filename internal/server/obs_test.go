package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"lagraph/internal/obs"
	"lagraph/internal/registry"
	"lagraph/internal/store"
)

// TestMetricsEndpointConformance boots the full stack (durable store
// included), exercises a load, a mutation and an algorithm run, and
// asserts GET /metrics serves strictly valid exposition covering every
// subsystem's series with the values the traffic implies.
func TestMetricsEndpointConformance(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir(), Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(0)
	srv := New(reg, Options{Store: st})
	ts := newHTTPServer(t, srv)

	loadSyntheticGraph(t, ts, "g", "kron", 6)
	if code, body := doJSON(t, "POST", ts+"/graphs/g/edges", map[string]any{
		"ops": []map[string]any{{"op": "upsert", "src": 0, "dst": 5, "weight": 2}},
	}); code != http.StatusOK {
		t.Fatalf("mutate: %d %v", code, body)
	}
	if code, body := doJSON(t, "POST", ts+"/graphs/g/algorithms/pagerank", map[string]any{}); code != http.StatusOK {
		t.Fatalf("pagerank: %d %v", code, body)
	}

	resp, err := http.Get(ts + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	exp, err := obs.ValidateExposition(resp.Body)
	if err != nil {
		t.Fatalf("exposition rejected by strict parser: %v", err)
	}

	// One family per subsystem proves the whole stack is wired into the
	// one scraped registry (the store arrives via AddSource).
	for _, fam := range []string{
		"http_requests_total", "http_request_seconds", "http_in_flight",
		"jobs_submitted_total", "jobs_run_seconds", "jobs_queued",
		"registry_resident_bytes", "registry_property_computes_total", "registry_algorithm_runs_total",
		"stream_batches_total", "stream_apply_seconds", "stream_pending_delta_ops",
		"store_wal_appends_total", "store_wal_append_seconds", "store_checkpoints_total",
	} {
		if _, ok := exp.Types[fam]; !ok {
			t.Errorf("family %s missing from /metrics", fam)
		}
	}

	value := func(name string, labels map[string]string) (float64, bool) {
		for _, s := range exp.Samples {
			if s.Name != name {
				continue
			}
			match := true
			for k, v := range labels {
				if s.Labels[k] != v {
					match = false
					break
				}
			}
			if match {
				return s.Value, true
			}
		}
		return 0, false
	}
	if v, ok := value("jobs_completed_total", nil); !ok || v < 1 {
		t.Errorf("jobs_completed_total = %v (ok=%v), want >= 1", v, ok)
	}
	if v, ok := value("stream_batches_total", nil); !ok || v != 1 {
		t.Errorf("stream_batches_total = %v (ok=%v), want 1", v, ok)
	}
	if v, ok := value("store_wal_appends_total", nil); !ok || v != 1 {
		t.Errorf("store_wal_appends_total = %v (ok=%v), want 1", v, ok)
	}
	if v, ok := value("registry_algorithm_runs_total", nil); !ok || v != 1 {
		t.Errorf("registry_algorithm_runs_total = %v (ok=%v), want 1", v, ok)
	}
	if v, ok := value("http_requests_total", map[string]string{
		"route": "/graphs/{name}/algorithms/{alg}", "method": "POST", "code": "200",
	}); !ok || v != 1 {
		t.Errorf("http_requests_total{algorithms route} = %v (ok=%v), want 1", v, ok)
	}
	if v, ok := value("jobs_run_seconds_count", map[string]string{"algorithm": "pagerank"}); !ok || v < 1 {
		t.Errorf("jobs_run_seconds_count{pagerank} = %v (ok=%v), want >= 1", v, ok)
	}
}

// newHTTPServer wires a Server into httptest with cleanup, returning the
// base URL.
func newHTTPServer(t *testing.T, srv *Server) string {
	t.Helper()
	h := httptest.NewServer(srv.Handler())
	t.Cleanup(h.Close)
	t.Cleanup(srv.Close)
	return h.URL
}

// TestTraceLifecycle runs a job with a client-proposed trace id and
// asserts the id is echoed, the trace is retrievable from /debug/traces,
// and it carries the property-materialization and kernel-run spans.
func TestTraceLifecycle(t *testing.T) {
	reg := registry.New(0)
	srv := New(reg, Options{})
	ts := newHTTPServer(t, srv)

	loadSyntheticGraph(t, ts, "g", "kron", 6)

	req, err := http.NewRequest("POST", ts+"/graphs/g/algorithms/bfs", strings.NewReader(`{"source":0}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Trace-Id", "e2e-trace-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bfs run: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != "e2e-trace-42" {
		t.Fatalf("X-Trace-Id echo = %q, want the proposed id", got)
	}

	// The trace is retrievable by its id with the expected span tree.
	info, ok := srv.Tracer().Get("e2e-trace-42")
	if !ok {
		t.Fatal("finished trace not in the ring")
	}
	parents := map[string]string{}
	for _, sp := range info.Spans {
		parents[sp.Name] = sp.Parent
	}
	for _, want := range []string{"http POST /graphs/{name}/algorithms/{alg}", "properties", "kernel:bfs"} {
		if _, ok := parents[want]; !ok {
			t.Errorf("span %q missing; trace has %v", want, parents)
		}
	}
	// Property materialization and the kernel run are consecutive phases
	// of the job, so their spans are siblings — not kernel under properties.
	if parents["kernel:bfs"] != parents["properties"] {
		t.Errorf("kernel:bfs has parent %q, properties has %q; want siblings",
			parents["kernel:bfs"], parents["properties"])
	}

	// And over HTTP: /debug/traces/{id} serves the same snapshot.
	code, body := doJSON(t, "GET", ts+"/debug/traces/e2e-trace-42", nil)
	if code != http.StatusOK || body["id"] != "e2e-trace-42" {
		t.Fatalf("GET /debug/traces/{id}: %d %v", code, body)
	}
	spans, _ := body["spans"].([]any)
	if len(spans) != len(info.Spans) {
		t.Fatalf("HTTP snapshot has %d spans, tracer has %d", len(spans), len(info.Spans))
	}

	// The listing includes it too (the load request traced as well).
	code, body = doJSON(t, "GET", ts+"/debug/traces", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /debug/traces: %d", code)
	}
	if n, _ := body["count"].(float64); n < 2 {
		t.Fatalf("trace ring holds %v traces, want >= 2", n)
	}

	// An invalid proposed id is replaced, not adopted.
	req, _ = http.NewRequest("GET", ts+"/healthz", nil)
	req.Header.Set("X-Trace-Id", "bad id with spaces")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got == "" || got == "bad id with spaces" {
		t.Fatalf("invalid proposed id handling: echoed %q", got)
	}
}

// TestWaitAndEncodeSpans: the request's own share of an algorithm call is
// named. A cold request's trace holds wait (for the job) and encode
// (append + write, carrying the body's size) under the root span, beside
// the job's properties and kernel:<name>; a result-cache hit holds the
// root, wait and encode alone, and its encode wrote the graph's stored
// bytes (reused) where the cold one rendered them.
func TestWaitAndEncodeSpans(t *testing.T) {
	srv := New(registry.New(0), Options{})
	ts := newHTTPServer(t, srv)
	loadSyntheticGraph(t, ts, "g", "kron", 6)

	const root = "http POST /graphs/{name}/algorithms/{alg}"
	for _, tc := range []struct {
		id     string
		want   []string
		reused string
	}{
		{"span-cold", []string{root, "wait", "properties", "kernel:pagerank", "encode"}, "false"},
		{"span-hit", []string{root, "wait", "encode"}, "true"},
	} {
		req, err := http.NewRequest("POST", ts+"/graphs/g/algorithms/pagerank", strings.NewReader(`{"limit":64}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Trace-Id", tc.id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %v", tc.id, resp.StatusCode, err)
		}
		info := finishedTrace(t, srv, tc.id)
		var names []string
		spans := map[string]obs.SpanInfo{}
		for _, sp := range info.Spans {
			names = append(names, sp.Name)
			spans[sp.Name] = sp
		}
		// The worker may open the job's spans before the handler opens wait.
		slices.Sort(names)
		slices.Sort(tc.want)
		if !slices.Equal(names, tc.want) {
			t.Errorf("%s: spans %q, want %q", tc.id, names, tc.want)
		}
		for _, name := range []string{"wait", "encode"} {
			if spans[name].Parent != root {
				t.Errorf("%s: span %q has parent %q, want the root span", tc.id, name, spans[name].Parent)
			}
		}
		want := []obs.Attr{obs.String("bytes", strconv.Itoa(len(body))), obs.String("reused", tc.reused)}
		if !slices.Equal(spans["encode"].Attrs, want) {
			t.Errorf("%s: encode attrs %v, want %v", tc.id, spans["encode"].Attrs, want)
		}
	}
}

// finishedTrace waits for a request's trace to enter the ring. A body
// carries its length, so it can be read whole before the handler has
// returned and the trace finished.
func finishedTrace(t *testing.T, srv *Server, id string) obs.TraceInfo {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if info, ok := srv.Tracer().Get(id); ok {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: trace never finished", id)
		}
	}
}

// scrapeMetrics fetches and strictly validates one /metrics scrape.
func scrapeMetrics(t *testing.T, base string) *obs.Exposition {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	exp, err := obs.ValidateExposition(resp.Body)
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	return exp
}

// TestStatsIsProjectionOfMetrics: GET /stats is one /metrics scrape as
// JSON. Every unlabelled counter and gauge appears once, with the same
// value, at the path the projection rule gives it — trailing _total
// dropped, a jobs_/registry_/stream_/store_ prefix turned into a section —
// and /stats holds nothing else.
func TestStatsIsProjectionOfMetrics(t *testing.T) {
	ts, srv := newDurableServer(t, t.TempDir())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	loadSyntheticGraph(t, ts.URL, "g", "kron", 6)
	for _, params := range []map[string]any{{"max_iter": 10}, {"max_iter": 11}} {
		if code, body := doJSON(t, "POST", ts.URL+"/graphs/g/algorithms/pagerank", params); code != http.StatusOK {
			t.Fatalf("pagerank: %d %v", code, body)
		}
	}
	if code, body := doJSON(t, "POST", ts.URL+"/graphs/g/edges", map[string]any{
		"ops": []map[string]any{{"op": "upsert", "src": 0, "dst": 5, "weight": 2}},
	}); code != http.StatusOK {
		t.Fatalf("mutate: %d %v", code, body)
	}

	exp := scrapeMetrics(t, ts.URL)
	code, stats := doJSON(t, "GET", ts.URL+"/stats", nil)
	if code != http.StatusOK {
		t.Fatalf("/stats: %d", code)
	}
	got := map[string]any{} // /stats flattened to section.key paths
	for k, v := range stats {
		if section, ok := v.(map[string]any); ok {
			for kk, vv := range section {
				got[k+"."+kk] = vv
			}
		} else {
			got[k] = v
		}
	}
	for _, s := range exp.Samples {
		if kind := exp.Types[s.Name]; len(s.Labels) > 0 || kind != "counter" && kind != "gauge" {
			continue
		}
		path := strings.TrimSuffix(s.Name, "_total")
		for _, section := range []string{"jobs", "registry", "stream", "store"} {
			if rest, ok := strings.CutPrefix(path, section+"_"); ok {
				path = section + "." + rest
				break
			}
		}
		v, ok := got[path]
		delete(got, path)
		switch {
		case !ok:
			t.Errorf("%s has no /stats key %s", s.Name, path)
		case path == "uptime_seconds" || strings.HasPrefix(path, "go_"):
			// Sampled afresh by each read; presence is the contract.
		case v != s.Value:
			t.Errorf("/stats %s = %v, /metrics %s = %v", path, v, s.Name, s.Value)
		}
	}
	if len(got) > 0 {
		t.Errorf("/stats keys with no /metrics family: %v", got)
	}
	// What the benchmark's counts check reads, after the traffic above:
	// PageRank's AT and RowDegree, then the first mutation's NDiag.
	for path, want := range map[string]float64{
		"jobs.completed": 2, "jobs.cache_hits": 0, "jobs.dedup_hits": 0, "jobs.failed": 0,
		"algorithm_errors": 0, "stream.batches": 1, "stream.compactions": 0,
		"registry.property_computes": 3, "store.wal_appends": 1,
	} {
		v := stats[path]
		if section, key, ok := strings.Cut(path, "."); ok {
			m, _ := stats[section].(map[string]any)
			v = m[key]
		}
		if v != want {
			t.Errorf("/stats %s = %v, want %v", path, v, want)
		}
	}
}

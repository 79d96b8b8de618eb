package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"lagraph/internal/algo"
	"lagraph/internal/jobs"
	"lagraph/internal/registry"
	"lagraph/internal/tenant"
)

// End-to-end multi-tenant admission tests: bearer auth, namespace
// isolation, quotas, priority classes, and 429/413 semantics — all over
// the real handler stack, run under -race by CI.

const testTokens = `{"tenants":[
	{"name":"acme","tokens":["tok-a"],"default_priority":"interactive"},
	{"name":"globex","tokens":["tok-b"]}
]}`

func tenantConfig(t *testing.T, raw string) *tenant.Config {
	t.Helper()
	cfg, err := tenant.Parse([]byte(raw))
	if err != nil {
		t.Fatalf("tenant.Parse: %v", err)
	}
	return cfg
}

func newTenantServer(t *testing.T, opts Options) *httptest.Server {
	t.Helper()
	if opts.Tenants == nil {
		opts.Tenants = tenantConfig(t, testTokens)
	}
	reg := registry.New(0)
	srv := New(reg, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	return ts
}

// doAuth is doJSON with a bearer token and the response headers.
func doAuth(t *testing.T, method, url, token string, body any) (int, map[string]any, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	out := map[string]any{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatalf("%s %s: decode: %v", method, url, err)
	}
	return resp.StatusCode, out, resp.Header
}

func loadTenantGraph(t *testing.T, base, token, name string, scale int) {
	t.Helper()
	code, body, _ := doAuth(t, "POST", base+"/graphs", token, map[string]any{
		"name": name, "class": "kron", "scale": scale, "edge_factor": 4, "seed": 42,
	})
	if code != http.StatusCreated {
		t.Fatalf("load %s: status %d, body %v", name, code, body)
	}
}

func TestTenantAuth(t *testing.T) {
	ts := newTenantServer(t, Options{})

	// Data plane: no token, junk tokens, and wrong schemes are all 401
	// with a challenge; nothing leaks about why.
	for _, token := range []string{"", "nope", "tok-a-but-wrong"} {
		code, body, hdr := doAuth(t, "GET", ts.URL+"/graphs", token, nil)
		if code != http.StatusUnauthorized {
			t.Fatalf("token %q: status %d, want 401 (body %v)", token, code, body)
		}
		if !strings.Contains(hdr.Get("WWW-Authenticate"), "Bearer") {
			t.Fatalf("token %q: missing WWW-Authenticate challenge", token)
		}
	}
	if code, _, _ := doAuth(t, "GET", ts.URL+"/algorithms", "", nil); code != 401 {
		t.Fatalf("catalog without token: %d, want 401", code)
	}

	// A valid token works.
	if code, _, _ := doAuth(t, "GET", ts.URL+"/graphs", "tok-a", nil); code != 200 {
		t.Fatalf("valid token: %d, want 200", code)
	}

	// Operator plane stays open: health, stats, and metrics must answer
	// when token distribution itself is what broke.
	for _, path := range []string{"/healthz", "/stats", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("operator plane %s: %v %d", path, err, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// The unauthorized probes above are visible in the admission metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), `tenant_admission_total{tenant="unknown",outcome="unauthorized"} 4`) {
		t.Fatalf("metrics missing unauthorized admissions:\n%s", raw)
	}
}

func TestTenantIsolation(t *testing.T) {
	ts := newTenantServer(t, Options{})

	// Both tenants own a graph named "g" — same display name, no clash.
	loadTenantGraph(t, ts.URL, "tok-a", "g", 5)
	loadTenantGraph(t, ts.URL, "tok-b", "g", 6)

	// Each sees exactly its own, under its own name.
	for _, tc := range []struct {
		token string
		nodes float64
	}{{"tok-a", 32}, {"tok-b", 64}} {
		code, body, _ := doAuth(t, "GET", ts.URL+"/graphs", tc.token, nil)
		graphs := body["graphs"].([]any)
		if code != 200 || len(graphs) != 1 {
			t.Fatalf("%s list: %d, %v", tc.token, code, body)
		}
		g0 := graphs[0].(map[string]any)
		if g0["name"] != "g" || g0["nodes"].(float64) != tc.nodes {
			t.Fatalf("%s list entry: %v", tc.token, g0)
		}
	}

	// acme runs a job on its g; globex cannot see it by id, in the list,
	// by result/report, nor cancel it — all indistinguishable from a job
	// that never existed.
	code, body, _ := doAuth(t, "POST", ts.URL+"/graphs/g/jobs", "tok-a",
		map[string]any{"algorithm": "pagerank"})
	if code != http.StatusAccepted {
		t.Fatalf("acme submit: %d %v", code, body)
	}
	if body["graph"] != "g" {
		t.Fatalf("acme job record leaks scoped name: %v", body["graph"])
	}
	id := body["id"].(string)
	for _, probe := range []struct{ method, path string }{
		{"GET", "/jobs/" + id},
		{"GET", "/jobs/" + id + "/result"},
		{"GET", "/jobs/" + id + "/report"},
		{"DELETE", "/jobs/" + id},
	} {
		if code, body, _ := doAuth(t, probe.method, ts.URL+probe.path, "tok-b", nil); code != 404 {
			t.Fatalf("globex %s %s: %d %v, want 404", probe.method, probe.path, code, body)
		}
	}
	_, body, _ = doAuth(t, "GET", ts.URL+"/jobs", "tok-b", nil)
	if jobs := body["jobs"].([]any); len(jobs) != 0 {
		t.Fatalf("globex job list sees acme's jobs: %v", jobs)
	}
	// The owner still can.
	if code, body, _ := doAuth(t, "GET", ts.URL+"/jobs/"+id, "tok-a", nil); code != 200 || body["graph"] != "g" {
		t.Fatalf("acme get job: %d %v", code, body)
	}

	// Cross-tenant graph access: read, mutate, run, delete all 404.
	loadTenantGraph(t, ts.URL, "tok-a", "private", 5)
	for _, probe := range []struct {
		method, path string
		payload      any
	}{
		{"GET", "/graphs/private", nil},
		{"DELETE", "/graphs/private", nil},
		{"POST", "/graphs/private/edges", map[string]any{"ops": []any{map[string]any{"op": "upsert", "src": 0, "dst": 1}}}},
		{"POST", "/graphs/private/algorithms/pagerank", map[string]any{}},
		{"POST", "/graphs/private/jobs", map[string]any{"algorithm": "pagerank"}},
	} {
		code, body, _ := doAuth(t, probe.method, ts.URL+probe.path, "tok-b", probe.payload)
		if code != 404 {
			t.Fatalf("globex %s %s: %d %v, want 404", probe.method, probe.path, code, body)
		}
		// Scoped engine names must not leak through error messages.
		if msg, _ := body["error"].(string); strings.Contains(msg, "acme/") || strings.Contains(msg, "globex/") {
			t.Fatalf("globex %s %s: error leaks scoped name: %q", probe.method, probe.path, msg)
		}
	}

	// Deleting your own graph under its display name works.
	if code, body, _ := doAuth(t, "DELETE", ts.URL+"/graphs/private", "tok-a", nil); code != 200 || body["deleted"] != "private" {
		t.Fatalf("acme delete: %d %v", code, body)
	}
}

func TestTenantGraphQuota(t *testing.T) {
	cfg := tenantConfig(t, `{"tenants":[
		{"name":"acme","tokens":["tok-a"],"max_graphs":1},
		{"name":"globex","tokens":["tok-b"]}
	]}`)
	ts := newTenantServer(t, Options{Tenants: cfg})

	loadTenantGraph(t, ts.URL, "tok-a", "one", 5)
	code, body, _ := doAuth(t, "POST", ts.URL+"/graphs", "tok-a", map[string]any{
		"name": "two", "class": "kron", "scale": 5, "edge_factor": 4,
	})
	if code != http.StatusInsufficientStorage {
		t.Fatalf("over-quota load: %d %v, want 507", code, body)
	}
	// The error names the exhausted quota and the numbers.
	msg, _ := body["error"].(string)
	for _, frag := range []string{"max_graphs", "limit 1", `"acme"`} {
		if !strings.Contains(msg, frag) {
			t.Fatalf("quota error %q does not name %q", msg, frag)
		}
	}
	// globex (no quota) is unaffected.
	loadTenantGraph(t, ts.URL, "tok-b", "one", 5)
	loadTenantGraph(t, ts.URL, "tok-b", "two", 5)

	// Releasing the slot restores admission.
	if code, _, _ := doAuth(t, "DELETE", ts.URL+"/graphs/one", "tok-a", nil); code != 200 {
		t.Fatalf("delete: %d", code)
	}
	loadTenantGraph(t, ts.URL, "tok-a", "two", 5)
}

// blockingCatalog registers a kernel that parks until release is closed,
// so tests can pin workers and stage queue states deterministically.
func blockingCatalog(t *testing.T) (*algo.Catalog, func()) {
	t.Helper()
	gate := make(chan struct{})
	c := algo.Builtin()
	c.MustRegister(algo.Descriptor{
		Name: "test.block",
		Tier: algo.TierAdvanced,
		Doc:  "test kernel: parks until the test releases it",
		Params: []algo.Spec{
			{Name: "id", Type: algo.TInt, Default: 0, Doc: "dedup buster"},
		},
		Run: func(ctx context.Context, _ *algo.Graph, _ algo.Params) (algo.Result, error) {
			select {
			case <-gate:
				return algo.Result{"ok": true}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	released := false
	return c, func() {
		if !released {
			released = true
			close(gate)
		}
	}
}

func TestTenantJobQuotaAnd429(t *testing.T) {
	cfg := tenantConfig(t, `{"tenants":[
		{"name":"acme","tokens":["tok-a"],"max_queued_jobs":1},
		{"name":"globex","tokens":["tok-b"]}
	]}`)
	catalog, release := blockingCatalog(t)
	defer release()
	ts := newTenantServer(t, Options{Tenants: cfg, Catalog: catalog, Jobs: jobs.Options{Workers: 1, QueueDepth: 2}})
	loadTenantGraph(t, ts.URL, "tok-a", "g", 5)
	loadTenantGraph(t, ts.URL, "tok-b", "g", 5)

	submit := func(token string, id int) (int, map[string]any, http.Header) {
		return doAuth(t, "POST", ts.URL+"/graphs/g/jobs", token,
			map[string]any{"algorithm": "test.block", "params": map[string]any{"id": id}})
	}
	// First job occupies the single worker; acme may queue one more.
	code, body, _ := submit("tok-a", 1)
	if code != http.StatusAccepted {
		t.Fatalf("job 1: %d %v", code, body)
	}
	// Until the worker has taken job 1 it counts as queued, and job 2
	// would breach the quota one submission early.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		_, info, _ := doAuth(t, "GET", ts.URL+"/jobs/"+body["id"].(string), "tok-a", nil)
		if info["state"] == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job 1 never started: %v", info)
		}
	}
	if code, body, _ := submit("tok-a", 2); code != http.StatusAccepted {
		t.Fatalf("job 2: %d %v", code, body)
	}
	// Third acme submission breaches max_queued_jobs: 429 + Retry-After,
	// error naming the quota.
	var hdr http.Header
	code, body, hdr = submit("tok-a", 3)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %d %v, want 429", code, body)
	}
	ra, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 120 {
		t.Fatalf("quota 429 Retry-After = %q, want integer in [1,120]", hdr.Get("Retry-After"))
	}
	msg, _ := body["error"].(string)
	for _, frag := range []string{"max_queued_jobs", `"acme"`} {
		if !strings.Contains(msg, frag) {
			t.Fatalf("quota error %q does not name %q", msg, frag)
		}
	}

	// globex still has queue room: acme's quota is not global backpressure.
	if code, body, _ := submit("tok-b", 1); code != http.StatusAccepted {
		t.Fatalf("globex submit: %d %v", code, body)
	}

	// Now the shared queue is full (depth 3): even globex gets the
	// saturation 429, also with Retry-After.
	code, body, hdr = submit("tok-b", 2)
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: %d %v, want 429", code, body)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 || ra > 120 {
		t.Fatalf("saturation 429 Retry-After = %q, want integer in [1,120]", hdr.Get("Retry-After"))
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "queue full") {
		t.Fatalf("saturation error %q does not mention the queue", msg)
	}

	// Admission outcomes all landed in the metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`tenant_admission_total{tenant="acme",outcome="queued"} 2`,
		`tenant_admission_total{tenant="acme",outcome="over_quota"} 1`,
		`tenant_admission_total{tenant="globex",outcome="queued"} 1`,
		`tenant_admission_total{tenant="globex",outcome="rejected"} 1`,
	} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("metrics missing %q:\n%s", want, raw)
		}
	}

	// /stats carries the tenant section with live queue usage.
	_, stats, _ := doAuth(t, "GET", ts.URL+"/stats", "", nil)
	tenants, ok := stats["tenant"].([]any)
	if !ok || len(tenants) != 2 {
		t.Fatalf("/stats tenant section: %v", stats["tenant"])
	}
	acme := tenants[0].(map[string]any)
	if acme["name"] != "acme" || acme["max_queued_jobs"].(float64) != 1 {
		t.Fatalf("acme stats: %v", acme)
	}
	release()
}

func TestTenantPriorityAndDefaultClass(t *testing.T) {
	catalog, release := blockingCatalog(t)
	defer release()
	ts := newTenantServer(t, Options{Catalog: catalog, Jobs: jobs.Options{Workers: 1, QueueDepth: 16}})
	loadTenantGraph(t, ts.URL, "tok-a", "g", 5)

	// An invalid priority is rejected up front on both endpoints.
	code, body, _ := doAuth(t, "POST", ts.URL+"/graphs/g/jobs", "tok-a",
		map[string]any{"algorithm": "test.block", "priority": "asap"})
	if code != 400 || !strings.Contains(body["error"].(string), "priority") {
		t.Fatalf("bad async priority: %d %v", code, body)
	}
	code, body, _ = doAuth(t, "POST", ts.URL+"/graphs/g/algorithms/pagerank?priority=asap", "tok-a", nil)
	if code != 400 || !strings.Contains(body["error"].(string), "priority") {
		t.Fatalf("bad sync priority: %d %v", code, body)
	}

	// Valid classes are accepted; acme's default (interactive) applies
	// when the submission names none. The queue drains once released.
	for _, spec := range []map[string]any{
		{"algorithm": "test.block", "params": map[string]any{"id": 1}},
		{"algorithm": "test.block", "params": map[string]any{"id": 2}, "priority": "batch"},
		{"algorithm": "test.block", "params": map[string]any{"id": 3}, "priority": "interactive"},
	} {
		if code, body, _ := doAuth(t, "POST", ts.URL+"/graphs/g/jobs", "tok-a", spec); code != 202 {
			t.Fatalf("submit %v: %d %v", spec, code, body)
		}
	}
	release()
}

// TestSingleTenantModeUnchanged pins the no-auth-tokens regression: no
// Authorization header needed, no tenant section in /stats, and the idle
// jobs stats carry no per-class queue map — the pre-tenancy wire shapes.
func TestSingleTenantModeUnchanged(t *testing.T) {
	ts, _ := newTestServer(t, 0)

	loadSyntheticGraph(t, ts.URL, "g", "kron", 5)
	if code, _ := doJSON(t, "POST", ts.URL+"/graphs/g/algorithms/pagerank", nil); code != 200 {
		t.Fatalf("sync run without auth: %d", code)
	}
	code, stats := doJSON(t, "GET", ts.URL+"/stats", nil)
	if code != 200 {
		t.Fatalf("stats: %d", code)
	}
	if _, present := stats["tenant"]; present {
		t.Fatalf("single-tenant /stats grew a tenant section: %v", stats["tenant"])
	}
	jobsStats := stats["jobs"].(map[string]any)
	if _, present := jobsStats["queued_by_class"]; present {
		t.Fatalf("idle jobs stats grew queued_by_class: %v", jobsStats)
	}
	// Job records carry the original field set — no class/tenant leakage.
	code, body := doJSON(t, "POST", ts.URL+"/graphs/g/jobs", map[string]any{"algorithm": "pagerank"})
	if code != 202 {
		t.Fatalf("submit: %d %v", code, body)
	}
	for _, forbidden := range []string{"class", "tenant", "priority"} {
		if _, present := body[forbidden]; present {
			t.Fatalf("job record grew %q: %v", forbidden, body)
		}
	}
}

// TestOversizedBodies413 covers the shared 413 mapping on all four body
// paths: graph upload (including the Matrix Market scanner path), sync
// algorithm params, job submission, and mutation batches.
func TestOversizedBodies413(t *testing.T) {
	reg := registry.New(0)
	srv := New(reg, Options{MaxUploadBytes: 512, MaxParamsBytes: 128})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	loadSyntheticGraph(t, ts.URL, "g", "kron", 5)

	big := strings.Repeat("x", 1024)
	post := func(path, ctype, body string) int {
		req, err := http.NewRequest("POST", ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatalf("NewRequest: %v", err)
		}
		req.Header.Set("Content-Type", ctype)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	// Synthetic-spec upload: oversized JSON body.
	if code := post("/graphs", "application/json", `{"name":"`+big+`"}`); code != 413 {
		t.Fatalf("oversized synthetic spec: %d, want 413", code)
	}
	// Matrix Market upload: valid lines, body larger than the cap — the
	// MaxBytesError must survive the mmio scanner (the %w wrap).
	mm := "%%MatrixMarket matrix coordinate real general\n64 64 200\n" +
		strings.Repeat("1 1 1.0\n", 200)
	if code := post("/graphs?format=mm&name=big", "text/plain", mm); code != 413 {
		t.Fatalf("oversized MM upload: %d, want 413", code)
	}
	// Sync algorithm params over the params cap.
	if code := post("/graphs/g/algorithms/pagerank", "application/json", `{"pad":"`+big+`"}`); code != 413 {
		t.Fatalf("oversized sync params: %d, want 413", code)
	}
	// Job submission over the params cap.
	if code := post("/graphs/g/jobs", "application/json", `{"algorithm":"`+big+`"}`); code != 413 {
		t.Fatalf("oversized job spec: %d, want 413", code)
	}
	// Mutation batch over the upload cap — valid JSON throughout, so the
	// decoder reads past the byte cap rather than erroring on syntax.
	ops := strings.Repeat(`{"op":"upsert","src":1,"dst":2},`, 40)
	if code := post("/graphs/g/edges", "application/json", `{"ops":[`+strings.TrimSuffix(ops, ",")+`]}`); code != 413 {
		t.Fatalf("oversized mutation batch: %d, want 413", code)
	}
}

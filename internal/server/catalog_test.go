package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"lagraph/internal/algo"
	"lagraph/internal/registry"
)

// TestAlgorithmIntrospection: GET /algorithms round-trips every
// registered descriptor with its schema, and GET /algorithms/{name}
// serves single entries.
func TestAlgorithmIntrospection(t *testing.T) {
	ts, _ := newTestServer(t, 0)

	code, body := doJSON(t, "GET", ts.URL+"/algorithms", nil)
	if code != 200 {
		t.Fatalf("list: %d %v", code, body)
	}
	listed := body["algorithms"].([]any)
	if int(body["count"].(float64)) != len(listed) {
		t.Fatalf("count %v != len %d", body["count"], len(listed))
	}
	byName := map[string]map[string]any{}
	for _, x := range listed {
		in := x.(map[string]any)
		byName[in["name"].(string)] = in
	}
	for _, in := range algo.Default().List() {
		got, ok := byName[in.Name]
		if !ok {
			t.Errorf("descriptor %q missing from GET /algorithms", in.Name)
			continue
		}
		if got["tier"] != string(in.Tier) || got["doc"] != in.Doc {
			t.Errorf("%s: tier/doc mismatch: %v", in.Name, got)
		}
		if len(got["params"].([]any)) != len(in.Params) {
			t.Errorf("%s: param count %d, want %d", in.Name, len(got["params"].([]any)), len(in.Params))
		}
		// The single-entry endpoint agrees.
		code, one := doJSON(t, "GET", ts.URL+"/algorithms/"+in.Name, nil)
		if code != 200 || one["name"] != in.Name {
			t.Errorf("GET /algorithms/%s: %d %v", in.Name, code, one)
		}
	}
	if len(byName) != len(algo.Default().List()) {
		t.Errorf("GET /algorithms has %d entries, catalog has %d", len(byName), len(algo.Default().List()))
	}

	// The schema itself round-trips: pagerank's damping spec carries its
	// typed default and exclusive bounds.
	var damping map[string]any
	for _, p := range byName["pagerank"]["params"].([]any) {
		if spec := p.(map[string]any); spec["name"] == "damping" {
			damping = spec
		}
	}
	if damping == nil || damping["type"] != "float" || damping["default"].(float64) != 0.85 ||
		damping["min_exclusive"] != true || damping["max_exclusive"] != true {
		t.Fatalf("damping schema did not round-trip: %v", damping)
	}
}

// TestUnknownAlgorithmListsKnownNames: 404s for unknown algorithms name
// the catalog's known algorithms, on introspection, sync and async paths.
func TestUnknownAlgorithmListsKnownNames(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	loadSyntheticGraph(t, ts.URL, "g", "kron", 5)

	for _, req := range []struct {
		method, url string
		body        any
	}{
		{"GET", ts.URL + "/algorithms/nope", nil},
		{"POST", ts.URL + "/graphs/g/algorithms/nope", nil},
		{"POST", ts.URL + "/graphs/g/jobs", map[string]any{"algorithm": "nope"}},
	} {
		code, body := doJSON(t, req.method, req.url, req.body)
		if code != 404 {
			t.Fatalf("%s %s: %d %v", req.method, req.url, code, body)
		}
		msg := body["error"].(string)
		for _, want := range []string{"bfs", "pagerank", "lcc"} {
			if !strings.Contains(msg, want) {
				t.Errorf("%s %s: error %q does not list %q", req.method, req.url, msg, want)
			}
		}
	}
}

// TestValidationErrorsNameTheField: every parameter-validation failure —
// schema-level or kernel-level, sync or async — is a 400 whose body
// names the offending field.
func TestValidationErrorsNameTheField(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	loadSyntheticGraph(t, ts.URL, "g", "kron", 5) // 32 vertices

	cases := []struct {
		alg    string
		params map[string]any
		field  string
	}{
		{"bfs", map[string]any{"sauce": 3}, "sauce"},               // unknown param
		{"bfs", map[string]any{"source": -2}, "source"},            // schema range
		{"bfs", map[string]any{"source": 1 << 30}, "source"},       // kernel-side bounds
		{"pagerank", map[string]any{"damping": 1.5}, "damping"},    // schema range
		{"tc.advanced", map[string]any{"method": "x"}, "method"},   // enum
		{"sssp", map[string]any{"delta": -1}, "delta"},             // exclusive min
		{"bc", map[string]any{"sources": []int{0, 99}}, "sources"}, // kernel-side bounds
		{"bfs", map[string]any{"limit": 0}, "limit"},               // schema range
	}
	for _, tc := range cases {
		// Sync path.
		code, body := doJSON(t, "POST", ts.URL+"/graphs/g/algorithms/"+tc.alg, tc.params)
		if code != 400 {
			t.Errorf("sync %s %v: status %d, want 400 (%v)", tc.alg, tc.params, code, body)
			continue
		}
		if body["field"] != tc.field {
			t.Errorf("sync %s %v: field = %v, want %q (%v)", tc.alg, tc.params, body["field"], tc.field, body)
		}
		// Async path: schema failures reject at submission.
		code, body = doJSON(t, "POST", ts.URL+"/graphs/g/jobs",
			map[string]any{"algorithm": tc.alg, "params": tc.params})
		if tc.params["source"] == 1<<30 || tc.alg == "bc" {
			continue // kernel-side failures surface on the job, tested below
		}
		if code != 400 || body["field"] != tc.field {
			t.Errorf("async %s %v: %d field=%v, want 400 %q", tc.alg, tc.params, code, body["field"], tc.field)
		}
	}
}

// dummyCatalog builds a Builtin catalog plus one runtime-registered test
// kernel — the extensibility proof: a single Register call, zero edits
// to server or jobs dispatch code.
func dummyCatalog(t *testing.T, runs *atomic.Int32) *algo.Catalog {
	t.Helper()
	c := algo.Builtin()
	c.MustRegister(algo.Descriptor{
		Name: "dummy.echo",
		Tier: algo.TierAdvanced,
		Doc:  "test kernel: echoes its parameters and the graph size",
		Params: []algo.Spec{
			{Name: "k", Type: algo.TInt, Default: 7, Min: algo.F64(1), Doc: "echoed knob"},
			{Name: "tag", Type: algo.TString, Default: "x", Doc: "echoed tag"},
		},
		Run: func(_ context.Context, g *algo.Graph, p algo.Params) (algo.Result, error) {
			runs.Add(1)
			return algo.Result{
				"k":     p.Int("k"),
				"tag":   p.String("tag"),
				"nodes": g.NumNodes(),
			}, nil
		},
	})
	return c
}

// TestRuntimeRegisteredKernelEndToEnd drives a runtime-registered kernel
// through every layer: introspection, the synchronous endpoint, the
// async jobs path, and the canonical-params result cache (including the
// key-order regression: identical params in different JSON key order
// must dedup to one computation).
func TestRuntimeRegisteredKernelEndToEnd(t *testing.T) {
	var runs atomic.Int32
	reg := registry.New(0)
	srv := New(reg, Options{Catalog: dummyCatalog(t, &runs)})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	loadSyntheticGraph(t, ts.URL, "g", "kron", 5)

	// Introspection sees it.
	code, body := doJSON(t, "GET", ts.URL+"/algorithms/dummy.echo", nil)
	if code != 200 || body["tier"] != "advanced" {
		t.Fatalf("introspection: %d %v", code, body)
	}

	// Sync endpoint runs it.
	code, body = doJSON(t, "POST", ts.URL+"/graphs/g/algorithms/dummy.echo",
		map[string]any{"k": 3, "tag": "hello"})
	if code != 200 {
		t.Fatalf("sync run: %d %v", code, body)
	}
	if body["k"].(float64) != 3 || body["tag"] != "hello" || body["nodes"].(float64) != 32 ||
		body["algorithm"] != "dummy.echo" || body["graph"] != "g" {
		t.Fatalf("sync result: %v", body)
	}
	if runs.Load() != 1 {
		t.Fatalf("runs = %d, want 1", runs.Load())
	}

	// Async jobs path, with a key-order-scrambled but identical parameter
	// object: decoded JSON key order must not affect the cache key, so
	// this is a pure cache hit — no second computation. (The raw string
	// body pins the wire-level key order; a Go map would not.)
	sendRaw := func(raw string) (int, map[string]any) {
		t.Helper()
		req, err := http.NewRequest("POST", ts.URL+"/graphs/g/jobs", strings.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out := map[string]any{}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	code, job := sendRaw(`{"algorithm": "dummy.echo", "params": {"tag": "hello", "k": 3}}`)
	if code != http.StatusAccepted {
		t.Fatalf("async submit: %d %v", code, job)
	}
	if job["state"] != "done" || job["cache_hit"] != true {
		t.Fatalf("key-order-scrambled resubmission was not a cache hit: %v", job)
	}
	if runs.Load() != 1 {
		t.Fatalf("runs = %d after identical resubmissions, want 1 (canonical keying)", runs.Load())
	}

	// Different params compute again, and the job result endpoint serves
	// the envelope.
	code, job = doJSON(t, "POST", ts.URL+"/graphs/g/jobs", map[string]any{
		"algorithm": "dummy.echo", "params": map[string]any{"k": 4},
	})
	if code != http.StatusAccepted {
		t.Fatalf("fresh submit: %d %v", code, job)
	}
	id := job["id"].(string)
	pollJob(t, ts.URL, id, func(s string) bool { return s == "done" })
	code, res := doJSON(t, "GET", ts.URL+"/jobs/"+id+"/result", nil)
	if code != 200 || res["k"].(float64) != 4 || res["tag"] != "x" {
		t.Fatalf("job result: %d %v", code, res)
	}
	if runs.Load() != 2 {
		t.Fatalf("runs = %d, want 2", runs.Load())
	}

	// Its schema validates like any built-in: 400 naming the field.
	code, body = doJSON(t, "POST", ts.URL+"/graphs/g/algorithms/dummy.echo",
		map[string]any{"k": 0})
	if code != 400 || body["field"] != "k" {
		t.Fatalf("validation: %d %v", code, body)
	}
}

// TestReservedResultKeyFailsLoudly: a kernel whose result collides with
// the response envelope (graph/algorithm/seconds) is a registration bug
// surfaced as a 500, never silently clobbered output.
func TestReservedResultKeyFailsLoudly(t *testing.T) {
	c := algo.Builtin()
	c.MustRegister(algo.Descriptor{
		Name: "bad.echo", Tier: algo.TierAdvanced, Doc: "test kernel with a reserved result key",
		Run: func(_ context.Context, _ *algo.Graph, _ algo.Params) (algo.Result, error) {
			return algo.Result{"seconds": 99}, nil
		},
	})
	reg := registry.New(0)
	srv := New(reg, Options{Catalog: c})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	loadSyntheticGraph(t, ts.URL, "g", "kron", 5)

	code, body := doJSON(t, "POST", ts.URL+"/graphs/g/algorithms/bad.echo", nil)
	if code != http.StatusInternalServerError {
		t.Fatalf("reserved-key kernel: %d %v, want 500", code, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "seconds") {
		t.Fatalf("error %q does not name the colliding key", msg)
	}
}

// TestLCCOverHTTP: the new kernel is reachable with zero server changes —
// the acceptance proof for the catalog refactor.
func TestLCCOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	loadSyntheticGraph(t, ts.URL, "und", "kron", 7)
	loadSyntheticGraph(t, ts.URL, "dir", "twitter", 6)

	code, body := doJSON(t, "POST", ts.URL+"/graphs/und/algorithms/lcc", nil)
	if code != 200 {
		t.Fatalf("lcc: %d %v", code, body)
	}
	coeffs, ok := body["coefficients"].(map[string]any)
	if !ok || coeffs["nvals"].(float64) <= 0 {
		t.Fatalf("lcc result: %v", body)
	}
	if _, ok := body["mean"]; !ok {
		t.Fatalf("lcc result missing mean: %v", body)
	}
	// Directed graphs are rejected as a 400, not a 500.
	if code, _ := doJSON(t, "POST", ts.URL+"/graphs/dir/algorithms/lcc", nil); code != 400 {
		t.Fatalf("lcc on directed: %d, want 400", code)
	}
	// And the async path works too.
	code, job := doJSON(t, "POST", ts.URL+"/graphs/und/jobs", map[string]any{"algorithm": "lcc"})
	if code != http.StatusAccepted {
		t.Fatalf("async lcc: %d %v", code, job)
	}
	pollJob(t, ts.URL, job["id"].(string), func(s string) bool { return s == "done" })
}

// TestAdvancedVariantsOverHTTP: the advanced-tier catalog entries are
// first-class endpoints.
func TestAdvancedVariantsOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	loadSyntheticGraph(t, ts.URL, "und", "kron", 7)
	loadSyntheticGraph(t, ts.URL, "dir", "twitter", 6)

	for _, tc := range []struct {
		graph, alg string
		params     map[string]any
		wantField  string
	}{
		{"und", "bfs.level", map[string]any{"source": 1}, "level"},
		{"und", "pagerank.gx", map[string]any{"max_iter": 20}, "ranks"},
		{"und", "cc.advanced", nil, "components"},
		{"und", "tc.advanced", map[string]any{"method": "burkhardt"}, "triangles"},
		{"und", "tc.advanced", map[string]any{"method": "sandia-ll", "presort": true}, "triangles"},
		{"dir", "bfs.level", map[string]any{"source": 0}, "level"},
		{"dir", "pagerank.gx", nil, "ranks"},
	} {
		url := fmt.Sprintf("%s/graphs/%s/algorithms/%s", ts.URL, tc.graph, tc.alg)
		code, body := doJSON(t, "POST", url, tc.params)
		if code != 200 {
			t.Errorf("%s on %s: status %d, body %v", tc.alg, tc.graph, code, body)
			continue
		}
		if _, ok := body[tc.wantField]; !ok {
			t.Errorf("%s on %s: missing %q in %v", tc.alg, tc.graph, tc.wantField, body)
		}
	}
	// tc.advanced on a directed graph is a client error.
	if code, _ := doJSON(t, "POST", ts.URL+"/graphs/dir/algorithms/tc.advanced", nil); code != 400 {
		t.Fatalf("tc.advanced on directed: want 400")
	}
	// cc.advanced on a non-symmetric directed graph is a client error
	// (symmetry materializes to false, the kernel refuses).
	if code, _ := doJSON(t, "POST", ts.URL+"/graphs/dir/algorithms/cc.advanced", nil); code != 400 {
		t.Fatalf("cc.advanced on asymmetric directed: want 400")
	}
}

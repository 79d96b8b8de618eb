package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"lagraph/internal/registry"
	"lagraph/internal/stream"
)

// pathGraphMM is a 4-vertex directed path 0→1→2 with vertex 3 isolated,
// in Matrix Market form (1-based indices).
const pathGraphMM = `%%MatrixMarket matrix coordinate real general
4 4 2
1 2 1.0
2 3 1.0
`

// newMutationServer builds a server with mutation-friendly options.
func newMutationServer(t *testing.T, opts Options) (*httptest.Server, *registry.Registry, *Server) {
	t.Helper()
	reg := registry.New(0)
	srv := New(reg, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	return ts, reg, srv
}

func loadPathGraph(t *testing.T, base, name string) {
	t.Helper()
	code, body := postBody(t, base, "format=mm&name="+name+"&kind=directed", []byte(pathGraphMM))
	if code != http.StatusCreated {
		t.Fatalf("load: %d %v", code, body)
	}
}

func mutate(t *testing.T, base, name string, ops []map[string]any) (int, map[string]any) {
	t.Helper()
	return doJSON(t, "POST", base+"/graphs/"+name+"/edges", map[string]any{"ops": ops})
}

// TestGraphInfoExposesVersionAndDeltaState is the GET /graphs/{name}
// contract: registry version, cached-property list, and delta-log state
// move with mutations.
func TestGraphInfoExposesVersionAndDeltaState(t *testing.T) {
	// The ratio trigger would compact this tiny graph after one op; keep
	// the delta log visible for the assertions.
	ts, _, _ := newMutationServer(t, Options{Stream: stream.Options{CompactRatio: 1000}})
	loadPathGraph(t, ts.URL, "g")

	code, info := doJSON(t, "GET", ts.URL+"/graphs/g", nil)
	if code != 200 {
		t.Fatalf("get: %d", code)
	}
	if info["version"].(float64) != 1 || info["pending_delta_ops"].(float64) != 0 {
		t.Fatalf("fresh graph info: %v", info)
	}
	if props, _ := info["cached_properties"].([]any); len(props) != 0 {
		t.Fatalf("fresh graph has cached properties: %v", props)
	}

	// A BFS run materializes AT + RowDegree on the entry.
	if code, body := doJSON(t, "POST", ts.URL+"/graphs/g/algorithms/bfs",
		map[string]any{"source": 0}); code != 200 {
		t.Fatalf("bfs: %d %v", code, body)
	}
	_, info = doJSON(t, "GET", ts.URL+"/graphs/g", nil)
	if !containsStr(info["cached_properties"], "RowDegree") {
		t.Fatalf("cached properties after bfs: %v", info["cached_properties"])
	}

	// A mutation bumps the version, reports the delta log, and carries only
	// NDiag (the stream engine's incremental self-loop count) to the
	// snapshot: degrees and AT are recomputed by the next reader.
	code, res := mutate(t, ts.URL, "g", []map[string]any{
		{"op": "upsert", "src": 2, "dst": 3},
	})
	if code != 200 {
		t.Fatalf("mutate: %d %v", code, res)
	}
	if res["version"].(float64) != 2 || res["edges"].(float64) != 3 {
		t.Fatalf("mutate result: %v", res)
	}

	_, info = doJSON(t, "GET", ts.URL+"/graphs/g", nil)
	if info["version"].(float64) != 2 {
		t.Fatalf("version after mutate: %v", info["version"])
	}
	if info["pending_delta_ops"].(float64) != 1 {
		t.Fatalf("pending_delta_ops after mutate: %v", info["pending_delta_ops"])
	}
	if info["edges"].(float64) != 3 {
		t.Fatalf("edges after mutate: %v", info["edges"])
	}
	if props, _ := info["cached_properties"].([]any); len(props) != 1 || props[0] != "NDiag" {
		t.Fatalf("carried properties: %v, want [NDiag]", info["cached_properties"])
	}
}

// TestPropertyComputeCountedOnlyWhenOneRan: registry_property_computes_total
// moves only when a property was computed. After a batch the snapshot
// carries only NDiag, so PageRank computes the transpose and the degrees
// again; republishing the same graph under its version (what compaction
// does) computes nothing.
func TestPropertyComputeCountedOnlyWhenOneRan(t *testing.T) {
	ts, reg, _ := newMutationServer(t, Options{Stream: stream.Options{CompactRatio: 1000}})
	loadPathGraph(t, ts.URL, "g")
	computes := func() float64 {
		for _, s := range scrapeMetrics(t, ts.URL).Samples {
			if s.Name == "registry_property_computes_total" {
				return s.Value
			}
		}
		t.Fatal("registry_property_computes_total not scraped")
		return 0
	}
	step := func(what string, want float64, do func()) {
		t.Helper()
		before := computes()
		do()
		if got := computes() - before; got != want {
			t.Fatalf("%s: property computes moved by %v, want %v", what, got, want)
		}
	}
	pagerank := func() {
		if code, body := doJSON(t, "POST", ts.URL+"/graphs/g/algorithms/pagerank", map[string]any{}); code != 200 {
			t.Fatalf("pagerank: %d %v", code, body)
		}
	}

	step("PageRank on the loaded graph (AT, RowDegree)", 2, pagerank)
	if code, res := mutate(t, ts.URL, "g", []map[string]any{{"op": "upsert", "src": 2, "dst": 3}}); code != 200 {
		t.Fatalf("mutate: %d %v", code, res)
	}
	step("PageRank after a batch (AT, RowDegree)", 2, pagerank)

	lease, err := reg.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	info := lease.Entry().Info()
	e, err := reg.Swap("g", lease.Graph(), registry.SwapStats{
		Nodes: info.Nodes, Edges: info.Edges, KeepVersion: true, Prev: lease.Entry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	step("EnsureProperties after a KeepVersion swap of the same graph", 0, func() {
		if err := e.EnsureProperties(registry.PropAT, registry.PropRowDegree); err != nil {
			t.Fatal(err)
		}
	})
}

func containsStr(list any, want string) bool {
	items, ok := list.([]any)
	if !ok {
		return false
	}
	for _, it := range items {
		if it == want {
			return true
		}
	}
	return false
}

// TestHTTPSnapshotIsolationAndCacheRekey is the acceptance criterion over
// the wire: a job submitted before a mutation batch is keyed to — and
// computes against — the pre-mutation snapshot even if it runs after the
// batch lands; a submission after the batch sees the new version; and an
// identical post-mutation resubmission hits the re-keyed result cache.
func TestHTTPSnapshotIsolationAndCacheRekey(t *testing.T) {
	ts, _, _ := newMutationServer(t, Options{})
	loadPathGraph(t, ts.URL, "g")

	// Async job against v1.
	code, job := doJSON(t, "POST", ts.URL+"/graphs/g/jobs", map[string]any{
		"algorithm": "bfs", "params": map[string]any{"source": 0},
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, job)
	}
	if job["graph_version"].(float64) != 1 {
		t.Fatalf("job keyed to version %v, want 1", job["graph_version"])
	}
	id := job["id"].(string)

	// Mutation lands (possibly before the job runs — irrelevant: the job
	// holds a lease on the v1 snapshot).
	if code, res := mutate(t, ts.URL, "g", []map[string]any{
		{"op": "upsert", "src": 2, "dst": 3},
	}); code != 200 || res["version"].(float64) != 2 {
		t.Fatalf("mutate: %d %v", code, res)
	}

	// The pre-mutation job reaches {0,1,2} — vertex 3 was not connected
	// in the snapshot it started on.
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, info := doJSON(t, "GET", ts.URL+"/jobs/"+id, nil)
		if code != 200 {
			t.Fatalf("poll: %d", code)
		}
		if info["state"] == "done" {
			break
		}
		if info["state"] == "failed" || info["state"] == "cancelled" {
			t.Fatalf("job ended %v: %v", info["state"], info["error"])
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}
	code, result := doJSON(t, "GET", ts.URL+"/jobs/"+id+"/result", nil)
	if code != 200 {
		t.Fatalf("result: %d %v", code, result)
	}
	if result["reached"].(float64) != 3 {
		t.Fatalf("pre-mutation job reached %v, want 3", result["reached"])
	}

	// A synchronous submission after the batch sees the new graph.
	code, after := doJSON(t, "POST", ts.URL+"/graphs/g/algorithms/bfs",
		map[string]any{"source": 0})
	if code != 200 {
		t.Fatalf("post-mutation bfs: %d %v", code, after)
	}
	if after["reached"].(float64) != 4 {
		t.Fatalf("post-mutation bfs reached %v, want 4", after["reached"])
	}

	// An identical post-mutation submission is a pure cache hit on the
	// re-keyed (graph, v2, bfs, params) entry.
	hitsBefore := jobsStats(t, ts.URL)["cache_hits"].(float64)
	code, again := doJSON(t, "POST", ts.URL+"/graphs/g/jobs", map[string]any{
		"algorithm": "bfs", "params": map[string]any{"source": 0},
	})
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: %d %v", code, again)
	}
	if again["state"] != "done" || again["cache_hit"] != true {
		t.Fatalf("resubmission not a cache hit: %v", again)
	}
	if again["graph_version"].(float64) != 2 {
		t.Fatalf("resubmission keyed to %v, want 2", again["graph_version"])
	}
	if got := jobsStats(t, ts.URL)["cache_hits"].(float64); got != hitsBefore+1 {
		t.Fatalf("cache hits %v -> %v, want +1", hitsBefore, got)
	}
}

// TestMutateValidationStatuses maps mutation failures onto HTTP codes.
func TestMutateValidationStatuses(t *testing.T) {
	ts, _, _ := newMutationServer(t, Options{Stream: stream.Options{MaxBatchOps: 2}})
	loadPathGraph(t, ts.URL, "g")

	cases := []struct {
		name string
		ops  []map[string]any
		want int
	}{
		{"unknown graph", []map[string]any{{"op": "upsert", "src": 0, "dst": 1}}, 404},
		{"empty batch", nil, 400},
		{"bad op kind", []map[string]any{{"op": "nope", "src": 0, "dst": 1}}, 400},
		{"out of range", []map[string]any{{"op": "upsert", "src": 0, "dst": 9}}, 400},
		{"too large", []map[string]any{
			{"op": "upsert", "src": 0, "dst": 1},
			{"op": "upsert", "src": 1, "dst": 2},
			{"op": "upsert", "src": 2, "dst": 3},
		}, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		name := "g"
		if tc.name == "unknown graph" {
			name = "zzz"
		}
		if code, body := mutate(t, ts.URL, name, tc.ops); code != tc.want {
			t.Fatalf("%s: %d %v, want %d", tc.name, code, body, tc.want)
		}
	}

	// Nothing above changed the graph.
	_, info := doJSON(t, "GET", ts.URL+"/graphs/g", nil)
	if info["version"].(float64) != 1 || info["edges"].(float64) != 2 {
		t.Fatalf("graph changed by rejected batches: %v", info)
	}
}

// TestMutateWeightedEdges checks weights flow into SSSP results.
func TestMutateWeightedEdges(t *testing.T) {
	ts, _, _ := newMutationServer(t, Options{})
	loadPathGraph(t, ts.URL, "g")

	if code, res := mutate(t, ts.URL, "g", []map[string]any{
		{"op": "upsert", "src": 2, "dst": 3, "weight": 7.5},
	}); code != 200 {
		t.Fatalf("mutate: %d %v", code, res)
	}
	code, out := doJSON(t, "POST", ts.URL+"/graphs/g/algorithms/sssp",
		map[string]any{"source": 0, "delta": 2})
	if code != 200 {
		t.Fatalf("sssp: %d %v", code, out)
	}
	// 0→1 (1.0) →2 (1.0) →3 (7.5): distance to vertex 3 is 9.5.
	entries := out["distances"].(map[string]any)["entries"].([]any)
	var d3 float64 = -1
	for _, e := range entries {
		ent := e.(map[string]any)
		if ent["i"].(float64) == 3 {
			d3 = ent["v"].(float64)
		}
	}
	if d3 != 9.5 {
		t.Fatalf("dist(3) = %v, want 9.5", d3)
	}
}

package server

import (
	"net/http/httptest"
	"testing"

	"lagraph/internal/registry"
	"lagraph/internal/store"
)

// Durable-service tests: the full HTTP stack over a data directory,
// restarted between requests the way a crashed daemon would be.

// newDurableServer boots the handler stack against dir, recovering
// whatever it holds. The caller restarts by calling it again on the same
// dir after closing the previous incarnation.
func newDurableServer(t *testing.T, dir string) (*httptest.Server, *Server) {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, Fsync: true})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	reg := registry.New(0)
	srv := New(reg, Options{Store: st})
	ts := httptest.NewServer(srv.Handler())
	return ts, srv
}

func TestDurableServerSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ts, srv := newDurableServer(t, dir)

	// Load one graph, mutate it twice.
	loadSyntheticGraph(t, ts.URL, "persisted", "kron", 5)
	for round := 0; round < 2; round++ {
		code, body := doJSON(t, "POST", ts.URL+"/graphs/persisted/edges", map[string]any{
			"ops": []map[string]any{
				{"op": "upsert", "src": round, "dst": 20 + round, "weight": 2.5},
				{"op": "delete", "src": 0, "dst": 1},
			},
		})
		if code != 200 {
			t.Fatalf("mutate round %d: HTTP %d: %v", round, code, body)
		}
	}
	code, info := doJSON(t, "GET", ts.URL+"/graphs/persisted", nil)
	if code != 200 {
		t.Fatalf("info: HTTP %d", code)
	}
	wantVersion := info["version"].(float64)
	wantEdges := info["edges"].(float64)
	if wantVersion != 3 {
		t.Fatalf("pre-restart version = %v, want 3", wantVersion)
	}

	// "Crash" the daemon and boot a fresh one on the same directory.
	ts.Close()
	srv.Close()
	ts2, srv2 := newDurableServer(t, dir)
	defer ts2.Close()
	defer srv2.Close()

	code, info = doJSON(t, "GET", ts2.URL+"/graphs/persisted", nil)
	if code != 200 {
		t.Fatalf("post-restart info: HTTP %d: %v", code, info)
	}
	if info["version"].(float64) != wantVersion || info["edges"].(float64) != wantEdges {
		t.Fatalf("post-restart graph = v%v/%v edges, want v%v/%v",
			info["version"], info["edges"], wantVersion, wantEdges)
	}

	// The recovered graph serves algorithms and further mutations.
	if code, body := doJSON(t, "POST", ts2.URL+"/graphs/persisted/algorithms/pagerank",
		map[string]any{"max_iter": 10}); code != 200 {
		t.Fatalf("post-restart pagerank: HTTP %d: %v", code, body)
	}
	code, res := doJSON(t, "POST", ts2.URL+"/graphs/persisted/edges", map[string]any{
		"ops": []map[string]any{{"op": "upsert", "src": 5, "dst": 6}},
	})
	if code != 200 || res["version"].(float64) != wantVersion+1 {
		t.Fatalf("post-restart mutation: HTTP %d, version %v (want %v)",
			code, res["version"], wantVersion+1)
	}

	// /stats exposes the store section with the recovery gauges.
	sto := statsSection(t, ts2.URL, "store")
	if sto["recovered_graphs"] != 1.0 || sto["recovery_replayed_batches"] != 2.0 {
		t.Fatalf("store stats = %v, want 1 graph / 2 batches recovered", sto)
	}
}

func TestDurableServerDeleteIsDurable(t *testing.T) {
	dir := t.TempDir()
	ts, srv := newDurableServer(t, dir)
	loadSyntheticGraph(t, ts.URL, "doomed", "urand", 4)
	loadSyntheticGraph(t, ts.URL, "kept", "urand", 4)
	if code, body := doJSON(t, "DELETE", ts.URL+"/graphs/doomed", nil); code != 200 {
		t.Fatalf("delete: HTTP %d: %v", code, body)
	}
	ts.Close()
	srv.Close()

	ts2, srv2 := newDurableServer(t, dir)
	defer ts2.Close()
	defer srv2.Close()
	if code, _ := doJSON(t, "GET", ts2.URL+"/graphs/doomed", nil); code != 404 {
		t.Fatalf("deleted graph resurrected: HTTP %d", code)
	}
	if code, _ := doJSON(t, "GET", ts2.URL+"/graphs/kept", nil); code != 200 {
		t.Fatalf("kept graph lost: HTTP %d", code)
	}
}

func TestDurableServerUploadPathsPersist(t *testing.T) {
	dir := t.TempDir()
	ts, srv := newDurableServer(t, dir)

	// Matrix Market upload (the non-synthetic load path).
	mm := "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 2 1.5\n2 3 2.5\n3 1 3.5\n"
	code, body := postBody(t, ts.URL, "format=mm&name=mmup&kind=directed", []byte(mm))
	if code != 201 {
		t.Fatalf("mm upload: HTTP %d: %v", code, body)
	}
	ts.Close()
	srv.Close()

	ts2, srv2 := newDurableServer(t, dir)
	defer ts2.Close()
	defer srv2.Close()
	code, info := doJSON(t, "GET", ts2.URL+"/graphs/mmup", nil)
	if code != 200 || info["edges"].(float64) != 3 {
		t.Fatalf("recovered upload: HTTP %d, %v", code, info)
	}
}

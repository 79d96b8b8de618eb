package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"lagraph/internal/registry"
)

// encodeReused sends one algorithm request under a trace id of its own and
// returns its body and its encode span's reused attribute.
func encodeReused(t *testing.T, srv *Server, url, params, id string) ([]byte, string) {
	t.Helper()
	req, err := http.NewRequest("POST", url, strings.NewReader(params))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Trace-Id", id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	_, err = body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %d %v %s", id, resp.StatusCode, err, body.Bytes())
	}
	for _, sp := range finishedTrace(t, srv, id).Spans {
		if sp.Name == "encode" {
			for _, a := range sp.Attrs {
				if a.Key == "reused" {
					return body.Bytes(), a.Value
				}
			}
		}
	}
	t.Fatalf("%s: no encode span with a reused attribute", id)
	return nil, ""
}

// bodySlotOf reads the graph's body slot under its mutex.
func bodySlotOf(srv *Server, graph string) (bodySlot, bool) {
	srv.bodyMu.Lock()
	defer srv.bodyMu.Unlock()
	slot, ok := srv.bodies[graph]
	return slot, ok
}

// TestBodySlotWireIdentity: a repeat of a graph's last default response
// writes the stored bytes, which are the cold response's bytes. An
// ?explain=1 rendering between repeats leaves the stored bytes alone, a
// mutation's new version is rendered afresh, and deleting the graph
// drops its slot.
func TestBodySlotWireIdentity(t *testing.T) {
	srv := New(registry.New(0), Options{})
	ts := newHTTPServer(t, srv)
	loadSyntheticGraph(t, ts, "g", "kron", 8)
	params := `{"limit":256}` // n: whole vectors on the wire

	for i, alg := range []string{"bfs", "pagerank"} {
		url := ts + "/graphs/g/algorithms/" + alg
		trace := func(step string) string { return alg + "-" + step }

		cold, reused := encodeReused(t, srv, url, params, trace("cold"))
		if reused != "false" {
			t.Errorf("%s: cold encode reused=%s, want false", alg, reused)
		}
		for _, step := range []string{"hit1", "hit2"} {
			hit, reused := encodeReused(t, srv, url, params, trace(step))
			if !bytes.Equal(hit, cold) || reused != "true" {
				t.Errorf("%s %s: reused=%s, equal to cold %v", alg, step, reused, bytes.Equal(hit, cold))
			}
		}

		if _, explained := rawRequest(t, "POST", url+"?explain=1", params); !bytes.Contains(explained, []byte(`"report"`)) {
			t.Errorf("%s: explain body carries no report", alg)
		}
		if hit, reused := encodeReused(t, srv, url, params, trace("after-explain")); !bytes.Equal(hit, cold) || reused != "true" {
			t.Errorf("%s: hit after explain: reused=%s, equal to cold %v", alg, reused, bytes.Equal(hit, cold))
		}

		old, _ := bodySlotOf(srv, "g")
		if code, body := mutate(t, ts, "g", []map[string]any{{"op": "upsert", "src": i, "dst": 255}}); code != http.StatusOK {
			t.Fatalf("mutate: %d %v", code, body)
		}
		fresh, reused := encodeReused(t, srv, url, params, trace("mutated"))
		slot, _ := bodySlotOf(srv, "g")
		if reused != "false" || slot.resp == old.resp {
			t.Errorf("%s: the new version's response was not rendered afresh (reused=%s)", alg, reused)
		}
		if want := stdlibBody(t, slot.resp, false); !bytes.Equal(fresh, want) || !bytes.Equal(slot.body, want) {
			t.Errorf("%s: the new version's body is not its stdlib rendering", alg)
		}
	}

	if code, body := doJSON(t, "DELETE", ts+"/graphs/g", nil); code != http.StatusOK {
		t.Fatalf("delete: %d %v", code, body)
	}
	if _, ok := bodySlotOf(srv, "g"); ok {
		t.Error("the deleted graph still has a body slot")
	}
}

// TestBodySlotNotKeptForRemovedGraph: a response rendered after its graph
// was deleted (its job done, the remove listener already run) is written
// but leaves no slot behind.
func TestBodySlotNotKeptForRemovedGraph(t *testing.T) {
	srv := New(registry.New(0), Options{})
	ts := newHTTPServer(t, srv)
	loadSyntheticGraph(t, ts, "g", "kron", 8)
	// Its trace finishes after the slot is stored.
	encodeReused(t, srv, ts+"/graphs/g/algorithms/pagerank", `{"limit":256}`, "cold")
	slot, ok := bodySlotOf(srv, "g")
	if !ok {
		t.Fatal("the cold response kept no slot")
	}
	if code, body := doJSON(t, "DELETE", ts+"/graphs/g", nil); code != http.StatusOK {
		t.Fatalf("delete: %d %v", code, body)
	}

	rec := httptest.NewRecorder()
	srv.writeAlgoResponse(context.Background(), rec, slot.resp, false)
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), slot.body) {
		t.Errorf("late write: %d, equal to the cold body %v", rec.Code, bytes.Equal(rec.Body.Bytes(), slot.body))
	}
	if _, ok := bodySlotOf(srv, "g"); ok {
		t.Error("a response written after its graph was deleted left a slot")
	}
}

// TestBodySlotConcurrentRepeats: goroutines alternate two queries on one
// graph, so its one slot is replaced under them again and again; every
// body must still be its query's cold body.
func TestBodySlotConcurrentRepeats(t *testing.T) {
	srv := New(registry.New(0), Options{})
	ts := newHTTPServer(t, srv)
	loadSyntheticGraph(t, ts, "g", "kron", 8)
	url := ts + "/graphs/g/algorithms/pagerank"
	queries := []string{`{"limit":64}`, `{"limit":256}`}
	var cold [2][]byte
	for q, params := range queries {
		_, cold[q] = rawRequest(t, "POST", url, params)
	}
	if bytes.Equal(cold[0], cold[1]) {
		t.Fatal("the two queries' cold bodies are the same bytes")
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 24 {
				q := (g + i/2) % 2 // each query twice in a row: a repeat, then a switch
				resp, err := http.Post(url, "application/json", strings.NewReader(queries[q]))
				if err != nil {
					errs <- err
					return
				}
				var body bytes.Buffer
				_, err = body.ReadFrom(resp.Body)
				resp.Body.Close()
				if err == nil && !bytes.Equal(body.Bytes(), cold[q]) {
					err = fmt.Errorf("goroutine %d request %d: body of %s differs from its cold body", g, i, queries[q])
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

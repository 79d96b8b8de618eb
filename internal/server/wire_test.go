package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lagraph/internal/algo"
	"lagraph/internal/registry"
)

// rawRequest sends one request and returns the response with its body
// read whole — the bytes on the wire, not a decoded view of them.
func rawRequest(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: read body: %v", method, url, err)
	}
	if resp.ContentLength != int64(len(b)) {
		t.Errorf("%s %s: Content-Length %d, body is %d bytes", method, url, resp.ContentLength, len(b))
	}
	return resp, b
}

// stdlibBody renders an algorithm response the way the server did before
// it had an encoder of its own: the flat envelope map through
// encoding/json's indenting encoder.
func stdlibBody(t *testing.T, resp *algoResponse, explain bool) []byte {
	t.Helper()
	m := map[string]any{"graph": resp.Graph, "algorithm": resp.Algorithm, "seconds": resp.Seconds}
	for k, v := range resp.Result {
		m[k] = v
	}
	if explain {
		m["report"] = resp.Report
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAlgorithmBodiesMatchStdlibEncoder: for every catalog algorithm the
// cold response, its cache-hit repeat, the ?explain=1 rendering and the
// async GET /jobs/{id}/result are the bytes encoding/json would have
// written for the cached result, each with a true Content-Length.
func TestAlgorithmBodiesMatchStdlibEncoder(t *testing.T) {
	srv := New(registry.New(0), Options{})
	ts := newHTTPServer(t, srv)
	loadSyntheticGraph(t, ts, "und", "kron", 6)

	for _, name := range algo.Default().Names() {
		t.Run(name, func(t *testing.T) {
			d, _ := algo.Default().Get(name)
			params := "{}"
			for _, s := range d.Params {
				if s.Name == "limit" {
					params = `{"limit":1000}` // past n: whole vectors on the wire
				}
			}
			url := ts + "/graphs/und/algorithms/" + name
			resp, cold := rawRequest(t, "POST", url, params)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("cold: %d %s", resp.StatusCode, cold)
			}
			if _, hit := rawRequest(t, "POST", url, params); !bytes.Equal(hit, cold) {
				t.Errorf("cache hit differs from the cold response\n hit: %s\ncold: %s", hit, cold)
			}
			_, explained := rawRequest(t, "POST", url+"?explain=1", params)

			resp, queued := rawRequest(t, "POST", ts+"/graphs/und/jobs", `{"algorithm":"`+name+`","params":`+params+`}`)
			var info struct{ ID string }
			if err := json.Unmarshal(queued, &info); err != nil || resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: %d %s (%v)", resp.StatusCode, queued, err)
			}
			pollJob(t, ts, info.ID, func(s string) bool { return s == "done" })
			if _, polled := rawRequest(t, "GET", ts+"/jobs/"+info.ID+"/result", ""); !bytes.Equal(polled, cold) {
				t.Errorf("GET /jobs/{id}/result differs from the synchronous response\n got: %s\nwant: %s", polled, cold)
			}

			job, _ := srv.Jobs().Get(info.ID)
			v, _ := job.Result()
			cached := v.(*algoResponse)
			if want := stdlibBody(t, cached, false); !bytes.Equal(cold, want) {
				t.Errorf("plain body is not the stdlib rendering\n got: %s\nwant: %s", cold, want)
			}
			if want := stdlibBody(t, cached, true); !bytes.Equal(explained, want) {
				t.Errorf("explain body is not the stdlib rendering\n got: %s\nwant: %s", explained, want)
			}
		})
	}
}

// TestUnencodableResultIs500: a kernel result the encoder refuses (NaN,
// ±Inf) answers 500 with the usual error body — cold and from the result
// cache — not 200 with an empty one.
func TestUnencodableResultIs500(t *testing.T) {
	c := algo.Builtin()
	c.MustRegister(algo.Descriptor{
		Name: "bad.nan", Tier: algo.TierAdvanced, Doc: "test kernel with a NaN scalar",
		Run: func(context.Context, *algo.Graph, algo.Params) (algo.Result, error) {
			return algo.Result{"mean": math.NaN()}, nil
		},
	})
	c.MustRegister(algo.Descriptor{
		Name: "bad.inf", Tier: algo.TierAdvanced, Doc: "test kernel with an infinite vector entry",
		Run: func(context.Context, *algo.Graph, algo.Params) (algo.Result, error) {
			return algo.Result{"v": &algo.VecSummary{NVals: 1, Entries: []algo.VecEntry{{I: 0, V: math.Inf(1)}}}}, nil
		},
	})
	srv := New(registry.New(0), Options{Catalog: c})
	ts := newHTTPServer(t, srv)
	loadSyntheticGraph(t, ts, "g", "kron", 5)

	for _, name := range []string{"bad.nan", "bad.inf", "bad.nan"} { // the repeat is a cache hit
		resp, body := rawRequest(t, "POST", ts+"/graphs/g/algorithms/"+name, "")
		var e errorBody
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("%s: body %q is not an error document: %v", name, body, err)
		}
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(e.Error, "unsupported value") {
			t.Errorf("%s: %d %q, want 500 naming the unsupported value", name, resp.StatusCode, e.Error)
		}
	}

	// The small documents take the same road: encode, then answer.
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"uptime_seconds": math.Inf(-1)})
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "unsupported value") {
		t.Errorf("writeJSON(-Inf): %d %q, want 500 with an error body", rec.Code, rec.Body)
	}
}

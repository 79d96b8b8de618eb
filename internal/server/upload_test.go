package server

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lagraph/internal/gen"
	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
	"lagraph/internal/registry"
	"lagraph/internal/store"
)

// postBody uploads raw bytes to POST /graphs with the given query string.
func postBody(t *testing.T, base, query string, body []byte) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(base+"/graphs?"+query, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /graphs?%s: %v", query, err)
	}
	defer resp.Body.Close()
	out := map[string]any{}
	decodeInto(t, resp, out)
	return resp.StatusCode, out
}

func decodeInto(t *testing.T, resp *http.Response, out map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if buf.Len() == 0 {
		return
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("decode response: %v (%s)", err, buf.String())
	}
}

// TestMMUploadRealRoundTrip writes a weighted directed matrix with
// MMWrite, uploads it through POST /graphs?format=mm, and verifies the
// resident graph matches the original entry for entry (via a PageRank
// comparison against a locally built graph).
func TestMMUploadRealRoundTrip(t *testing.T) {
	ts, reg := newTestServer(t, 0)

	rows := []int{0, 0, 1, 2, 3, 3}
	cols := []int{1, 2, 2, 0, 0, 1}
	vals := []float64{1.5, 2, 0.5, 3, 1, 4}
	A, err := grb.MatrixFromTuples(4, 4, rows, cols, vals, nil)
	if err != nil {
		t.Fatalf("MatrixFromTuples: %v", err)
	}
	var mm bytes.Buffer
	if err := lagraph.MMWrite(&mm, A); err != nil {
		t.Fatalf("MMWrite: %v", err)
	}

	code, body := postBody(t, ts.URL, "format=mm&name=real&kind=directed", mm.Bytes())
	if code != http.StatusCreated {
		t.Fatalf("upload: %d %v", code, body)
	}
	if body["nodes"].(float64) != 4 || body["edges"].(float64) != 6 {
		t.Fatalf("round trip changed shape: %v", body)
	}

	// The uploaded matrix must be value-identical to the original.
	lease, err := reg.Acquire("real")
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer lease.Release()
	eq, err := lagraph.IsAll(lease.Graph().A, A, func(a, b float64) bool { return a == b })
	if err != nil {
		t.Fatalf("IsAll: %v", err)
	}
	if !eq {
		t.Fatal("uploaded matrix differs from original")
	}

	// And it must answer algorithm calls.
	if code, body := doJSON(t, "POST", ts.URL+"/graphs/real/algorithms/pagerank", nil); code != 200 {
		t.Fatalf("pagerank on upload: %d %v", code, body)
	}
}

// TestMMUploadInteger exercises the integer field with symmetric storage:
// the parser must expand the symmetric entries, and the undirected load
// must pass the symmetry check.
func TestMMUploadInteger(t *testing.T) {
	ts, _ := newTestServer(t, 0)

	mm := strings.Join([]string{
		"%%MatrixMarket matrix coordinate integer symmetric",
		"% a 4-vertex path plus one chord",
		"4 4 4",
		"2 1 5",
		"3 2 7",
		"4 3 2",
		"3 1 9",
		"",
	}, "\n")
	code, body := postBody(t, ts.URL, "format=mm&name=int&kind=undirected", []byte(mm))
	if code != http.StatusCreated {
		t.Fatalf("upload: %d %v", code, body)
	}
	// 4 stored off-diagonal entries expand to 8 directed edges.
	if body["edges"].(float64) != 8 {
		t.Fatalf("edges = %v, want 8 (symmetric expansion)", body["edges"])
	}
	code, res := doJSON(t, "POST", ts.URL+"/graphs/int/algorithms/tc", nil)
	if code != 200 {
		t.Fatalf("tc: %d %v", code, res)
	}
	if res["triangles"].(float64) != 1 {
		t.Fatalf("triangles = %v, want 1 (the 1-2-3 chord)", res["triangles"])
	}
}

// TestMMUploadPattern exercises the pattern field: entries carry no
// values, and the resulting unit-weight graph runs CC.
func TestMMUploadPattern(t *testing.T) {
	ts, _ := newTestServer(t, 0)

	mm := strings.Join([]string{
		"%%MatrixMarket matrix coordinate pattern symmetric",
		"5 5 3",
		"2 1",
		"3 2",
		"5 4",
		"",
	}, "\n")
	code, body := postBody(t, ts.URL, "format=mm&name=pat&kind=undirected", []byte(mm))
	if code != http.StatusCreated {
		t.Fatalf("upload: %d %v", code, body)
	}
	code, res := doJSON(t, "POST", ts.URL+"/graphs/pat/algorithms/cc", nil)
	if code != 200 {
		t.Fatalf("cc: %d %v", code, res)
	}
	// {1,2,3} and {4,5}: two components.
	if res["components"].(float64) != 2 {
		t.Fatalf("components = %v, want 2", res["components"])
	}
}

// TestMMUploadRejectsAsymmetricUndirected: claiming kind=undirected for an
// asymmetric matrix must fail CheckGraph, not load a corrupt graph.
func TestMMUploadRejectsAsymmetricUndirected(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	mm := strings.Join([]string{
		"%%MatrixMarket matrix coordinate real general",
		"3 3 2",
		"1 2 1.0",
		"2 3 1.0",
		"",
	}, "\n")
	code, body := postBody(t, ts.URL, "format=mm&name=bad&kind=undirected", []byte(mm))
	if code != http.StatusBadRequest {
		t.Fatalf("asymmetric undirected upload: %d %v, want 400", code, body)
	}
}

// TestBinUploadRoundTrip writes the fast binary container with BinWrite
// and uploads it through POST /graphs?format=bin.
func TestBinUploadRoundTrip(t *testing.T) {
	ts, reg := newTestServer(t, 0)

	// A 6-cycle with weights.
	n := 6
	var rows, cols []int
	var vals []float64
	for i := 0; i < n; i++ {
		rows = append(rows, i)
		cols = append(cols, (i+1)%n)
		vals = append(vals, float64(i+1))
	}
	A, err := grb.MatrixFromTuples(n, n, rows, cols, vals, nil)
	if err != nil {
		t.Fatalf("MatrixFromTuples: %v", err)
	}
	var bin bytes.Buffer
	if err := lagraph.BinWrite(&bin, A); err != nil {
		t.Fatalf("BinWrite: %v", err)
	}

	code, body := postBody(t, ts.URL, "format=bin&name=cycle", bin.Bytes())
	if code != http.StatusCreated {
		t.Fatalf("upload: %d %v", code, body)
	}
	if body["nodes"].(float64) != float64(n) || body["edges"].(float64) != float64(n) {
		t.Fatalf("round trip changed shape: %v", body)
	}
	lease, err := reg.Acquire("cycle")
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer lease.Release()
	eq, err := lagraph.IsAll(lease.Graph().A, A, func(a, b float64) bool { return a == b })
	if err != nil {
		t.Fatalf("IsAll: %v", err)
	}
	if !eq {
		t.Fatal("uploaded binary matrix differs from original")
	}

	// BFS from 0 on a directed cycle reaches everything.
	code, res := doJSON(t, "POST", ts.URL+"/graphs/cycle/algorithms/bfs", map[string]any{"source": 0})
	if code != 200 {
		t.Fatalf("bfs: %d %v", code, res)
	}
	if res["reached"].(float64) != float64(n) {
		t.Fatalf("reached = %v, want %d", res["reached"], n)
	}

	// A corrupted container is rejected cleanly.
	garbage := append([]byte("XXXXXXXX"), bin.Bytes()[8:]...)
	if code, _ := postBody(t, ts.URL, "format=bin&name=junk", garbage); code != http.StatusBadRequest {
		t.Fatalf("corrupt upload: %d, want 400", code)
	}
}

// cycleUpload serialises the directed n-cycle i → i+1 (weights i+1) the
// way an upload client would. Its layout is fully known — 33-byte header,
// ptr = 0..n, idx = 1..n-1,0 — so the forgeries below can aim at one
// field each.
func cycleUpload(t *testing.T, n int) []byte {
	t.Helper()
	var rows, cols []int
	var vals []float64
	for i := 0; i < n; i++ {
		rows, cols, vals = append(rows, i), append(cols, (i+1)%n), append(vals, float64(i+1))
	}
	A, err := grb.MatrixFromTuples(n, n, rows, cols, vals, nil)
	if err != nil {
		t.Fatalf("MatrixFromTuples: %v", err)
	}
	var bin bytes.Buffer
	if err := lagraph.BinWrite(&bin, A); err != nil {
		t.Fatalf("BinWrite: %v", err)
	}
	return bin.Bytes()
}

// TestBinUploadRejectsForgedContainers: every way a ?format=bin body can
// lie is a 400 naming the check that caught it — never a 5xx, never a
// panic, never an allocation of the forged size. The decoder is
// grb.DeserializeMatrix, the one FuzzDeserializeMatrix covers; this pins
// that the HTTP path inherits each of its checks.
func TestBinUploadRejectsForgedContainers(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	const (
		n       = 6
		hdr     = 8 + 1 + 3*8 // magic, type tag, nrows/ncols/nvals
		nvalsAt = 8 + 1 + 2*8
		ptrAt   = hdr
		idxAt   = hdr + (n+1)*8
	)
	good := cycleUpload(t, n)
	forge := func(at int, v uint64) []byte {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(b[at:], v)
		return b
	}
	ints, err := grb.MatrixFromTuples(2, 2, []int{0}, []int{1}, []int64{7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var intBody bytes.Buffer
	if err := grb.SerializeMatrix(&intBody, ints); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, caughtBy string // caughtBy: the decoder check, by its message
		body           []byte
	}{
		{"int64 matrix", "type tag", intBody.Bytes()},
		{"cut mid-idx", "DeserializeMatrix idx", good[:idxAt+8*2+3]},
		{"header claims 2^60 entries", "ptr/nvals mismatch", forge(nvalsAt, 1<<60)},
		// ptr[1] = 3 swallows rows 1 and 2 (still sorted, in range), so the
		// first violation is row 1 starting after it ends.
		{"ptr not monotone", "row pointers not monotone at row 1", forge(ptrAt+8, 3)},
		{"column out of range", "outside [0,6)", forge(idxAt, 1<<40)},
	} {
		code, body := postBody(t, ts.URL, "format=bin&name=forged", tc.body)
		msg, _ := body["error"].(string)
		if code != http.StatusBadRequest || !strings.Contains(msg, tc.caughtBy) {
			t.Errorf("%s: HTTP %d %q, want 400 mentioning %q", tc.name, code, msg, tc.caughtBy)
		}
	}
	// Nothing forged became resident; the pristine body still loads.
	if code, body := postBody(t, ts.URL, "format=bin&name=forged", good); code != http.StatusCreated {
		t.Fatalf("pristine upload: %d %v", code, body)
	}
}

// TestCheckpointIsAnUpload: the store's checkpoint file and a ?format=bin
// body are one container. Save a graph, post the checkpoint's bytes back
// as an upload, and get the same graph. The file is found by the layout
// the store package documents: <data-dir>/g-<hex(name)>/checkpoint-<V>.bin.
func TestCheckpointIsAnUpload(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	defer st.Close()
	e, err := gen.Generate("twitter", 6, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	e.AddUniformWeights(3, 1, 255)
	g, err := lagraph.FromEdgeList(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveGraph("saved", g, 1); err != nil {
		t.Fatalf("SaveGraph: %v", err)
	}
	ckpt, err := os.ReadFile(filepath.Join(dir, "g-"+hex.EncodeToString([]byte("saved")), "checkpoint-1.bin"))
	if err != nil {
		t.Fatalf("reading the checkpoint file: %v", err)
	}

	ts, reg := newTestServer(t, 0)
	code, body := postBody(t, ts.URL, "format=bin&name=back&kind="+lagraph.KindName(g.Kind), ckpt)
	if code != http.StatusCreated {
		t.Fatalf("upload of checkpoint bytes: %d %v", code, body)
	}
	lease, err := reg.Acquire("back")
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer lease.Release()
	if lease.Graph().Kind != g.Kind {
		t.Fatalf("kind = %v, want %v", lease.Graph().Kind, g.Kind)
	}
	if eq, err := lagraph.IsEqual(lease.Graph().A, g.A); err != nil || !eq {
		t.Fatalf("uploaded checkpoint differs from the saved graph (err %v)", err)
	}
}

// TestSyntheticLoadBoundsEdgeFactor: scale alone does not bound a
// synthetic load — edge_factor multiplies it — so the pair is bounded
// before anything is generated. The oversized request must answer 400 at
// once (the client timeout is the assertion: generating it would take
// minutes, or abort the process allocating).
func TestSyntheticLoadBoundsEdgeFactor(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Post(ts.URL+"/graphs", "application/json",
		strings.NewReader(`{"name":"huge","class":"kron","scale":22,"edge_factor":100000}`))
	if err != nil {
		t.Fatalf("oversized load did not answer promptly: %v", err)
	}
	defer resp.Body.Close()
	out := map[string]any{}
	decodeInto(t, resp, out)
	if msg, _ := out["error"].(string); resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "edge_factor") {
		t.Fatalf("HTTP %d %v, want 400 naming edge_factor", resp.StatusCode, out)
	}

	// The bound is on the product, so it moves with scale; validation
	// alone is checked here — generating scale 22 is not a unit test.
	for _, tc := range []struct {
		scale, ef int
		ok        bool
	}{
		{22, 32, true}, {22, 33, false}, {22, 0, true}, // 0 → the default 8
		{10, 1 << 17, true}, {10, 1<<17 + 1, false},
		{1, 1 << 62, false}, // no overflow on the way to the answer
	} {
		spec := loadSpec{Name: "g", Class: "kron", Scale: tc.scale, EdgeFactor: tc.ef}
		if err := spec.validate(); (err == nil) != tc.ok {
			t.Errorf("scale %d edge_factor %d: validate = %v, want ok=%v", tc.scale, tc.ef, err, tc.ok)
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

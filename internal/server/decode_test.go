package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"unsafe"

	"lagraph/internal/stream"
)

// decodeIdentityLimit is the upload cap of the error-identity table: the
// last row is one byte over it.
const decodeIdentityLimit = 256

// decodeIdentityBodies are bodies the fast path does not take (the last
// for its read error), each of which decodeMutateBody must answer exactly
// as encoding/json does. Those that
// decode name an edge outside the 4-vertex test graph, so the batch is
// rejected after decoding and the error shows what was decoded.
var decodeIdentityBodies = []struct{ name, body string }{
	{"unknown field", `{"ops":[{"op":"upsert","src":0,"dst":1,"color":"red"}]}`},
	{"case-variant key", `{"ops":[{"op":"upsert","SRC":2,"dst":9}]}`},
	{"duplicate key", `{"ops":[{"op":"upsert","src":0,"src":2,"dst":9}]}`},
	{"null weight", `{"ops":[{"op":"upsert","src":0,"dst":9,"weight":null}]}`},
	{"escaped op", `{"ops":[{"op":"\u0064elete","src":0,"dst":9}]}`},
	{"exponent int", `{"ops":[{"op":"upsert","src":1e3,"dst":1}]}`},
	{"int over 2^64", `{"ops":[{"op":"upsert","src":18446744073709551616,"dst":1}]}`},
	{"trailing garbage", `{"ops":[{"op":"upsert","src":0,"dst":9}]} x`},
	{"empty body", ``},
	{"null ops", `{"ops":null}`},
	{"one byte over the cap", `{"ops":[{"op":"upsert","src":0,"dst":9}` +
		strings.Repeat(` `, decodeIdentityLimit-40) + `]}`},
}

// stdMutate is the mutation handler as it decoded before parseOps:
// encoding/json straight off the capped body.
func (s *Server) stdMutate(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes)
	var spec mutateSpec
	if err := decodeJSONBody(r.Body, &spec); err != nil {
		writeBodyError(w, err)
		return
	}
	res, err := s.stream.ApplyCtx(r.Context(), r.PathValue("name"), spec.Ops)
	if err != nil {
		writeMutateError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, mutateResponse{Result: res})
}

// TestMutateErrorIdentity: for every body the fast path does not take,
// POST /graphs/{name}/edges answers with encoding/json's status and bytes.
func TestMutateErrorIdentity(t *testing.T) {
	ts, _, srv := newMutationServer(t, Options{MaxUploadBytes: decodeIdentityLimit})
	loadPathGraph(t, ts.URL, "g")
	mux := http.NewServeMux()
	mux.HandleFunc("POST /graphs/{name}/edges", srv.stdMutate)

	if n := len(decodeIdentityBodies[len(decodeIdentityBodies)-1].body); n != decodeIdentityLimit+1 {
		t.Fatalf("over-cap body is %d bytes, want %d", n, decodeIdentityLimit+1)
	}
	for _, tc := range decodeIdentityBodies {
		if _, ok := parseOps([]byte(tc.body)); ok && len(tc.body) <= decodeIdentityLimit {
			t.Errorf("%s: parseOps took %q", tc.name, tc.body)
		}
		do := func(h http.Handler) *httptest.ResponseRecorder {
			req := httptest.NewRequest("POST", "/graphs/g/edges", strings.NewReader(tc.body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec
		}
		got, want := do(srv.Handler()), do(mux)
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Errorf("%s: got %d %s, encoding/json gives %d %s",
				tc.name, got.Code, got.Body, want.Code, want.Body)
		}
		if got.Code/100 != 4 {
			t.Errorf("%s: status %d, want a 4xx", tc.name, got.Code)
		}
	}
	_, info := doJSON(t, "GET", ts.URL+"/graphs/g", nil)
	if info["version"].(float64) != 1 {
		t.Fatalf("a rejected body changed the graph: %v", info)
	}
}

// canonicalBatch is a body shaped like the benchmark's: json.Marshal of n
// ops, half deletes, half upserts, every other upsert weighted.
func canonicalBatch(n int) []byte {
	rng := rand.New(rand.NewSource(1))
	ops := make([]stream.Op, n)
	for k := range ops {
		ops[k] = stream.Op{Op: stream.OpDelete, Src: rng.Intn(8192), Dst: rng.Intn(8192)}
		if k%2 == 1 {
			ops[k].Op = stream.OpUpsert
		}
		if k%4 == 1 {
			w := rng.Float64() * 100
			ops[k].Weight = &w
		}
	}
	b, err := json.Marshal(map[string]any{"ops": ops})
	if err != nil {
		panic(err)
	}
	return b
}

// sameOps compares op lists, weights by their bits.
func sameOps(a, b []stream.Op) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d ops against %d", len(a), len(b))
	}
	for k := range a {
		x, y := a[k], b[k]
		if x.Op != y.Op || x.Src != y.Src || x.Dst != y.Dst || (x.Weight == nil) != (y.Weight == nil) ||
			x.Weight != nil && math.Float64bits(*x.Weight) != math.Float64bits(*y.Weight) {
			return fmt.Errorf("op %d: %+v against %+v", k, x, y)
		}
	}
	return nil
}

// TestParseOpsCanonical: json.Marshal's bodies and whitespace-laden ones
// take the fast path, which decodes them as encoding/json does into one
// weight array.
func TestParseOpsCanonical(t *testing.T) {
	indented, err := json.MarshalIndent(json.RawMessage(canonicalBatch(16)), "", "\t ")
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{
		canonicalBatch(256),
		indented,
		[]byte(` {"ops":[{"weight":-0,"dst":3,"src":0,"op":"upsert"},{"op":"delete","src":-0,"dst":12}]}` + "\n"),
		[]byte(`{"ops":[{"op":"upsert","src":1,"dst":2,"weight":1.5e-3},{"op":"upsert","src":2,"dst":1,"weight":2E+2}]}`),
	} {
		ops, ok := parseOps(body)
		if !ok {
			t.Fatalf("parseOps refused %s", body)
		}
		var spec mutateSpec
		if err := decodeJSONBody(bytes.NewReader(body), &spec); err != nil {
			t.Fatal(err)
		}
		if err := sameOps(ops, spec.Ops); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		var weights []*float64
		for _, op := range ops {
			if op.Weight != nil {
				weights = append(weights, op.Weight)
			}
		}
		for k := 1; k < len(weights); k++ {
			if uintptr(unsafe.Pointer(weights[k]))-uintptr(unsafe.Pointer(weights[0])) != uintptr(k)*8 {
				t.Fatalf("weight %d is not next in the batch's one array", k)
			}
		}
	}
}

// TestMutateDecodeAllocationBudget pins what decoding a canonical 256-op
// body allocates — the body buffer, the ops and the weights — against
// encoding/json on the same bytes.
func TestMutateDecodeAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	body := canonicalBatch(256)
	rd := bytes.NewReader(body)
	fast := testing.AllocsPerRun(50, func() {
		rd.Reset(body)
		if _, err := decodeMutateBody(rd, int64(len(body))); err != nil {
			t.Fatal(err)
		}
	})
	std := testing.AllocsPerRun(50, func() {
		rd.Reset(body)
		var spec mutateSpec
		if err := decodeJSONBody(rd, &spec); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a 256-op body: %.0f allocations, encoding/json %.0f", fast, std)
	const budget = 3
	if fast > budget {
		t.Fatalf("decoding a 256-op body allocated %.0f times, budget %d", fast, budget)
	}
	if std < 10*fast {
		t.Fatalf("encoding/json allocates %.0f times, not 10× the fast path's %.0f", std, fast)
	}
}

// FuzzDecodeMutateBody holds decodeMutateBody to encoding/json on every
// body: the same ops, or the same error text. limit, when below the
// body's length, caps both reads as -max-upload-bytes does, so the read
// error replays after the bytes.
func FuzzDecodeMutateBody(f *testing.F) {
	for _, tc := range decodeIdentityBodies {
		f.Add([]byte(tc.body), uint16(decodeIdentityLimit))
	}
	f.Add(canonicalBatch(4), uint16(math.MaxUint16))
	f.Add(canonicalBatch(4), uint16(100))
	f.Add([]byte(`{"ops":[{"op":"upsert","src":01,"dst":1}]}`), uint16(math.MaxUint16))
	f.Add([]byte(`{"ops":[{"op":"upsert","src":1,"dst":1,"weight":1.}]}`), uint16(math.MaxUint16))
	f.Add([]byte(`{"ops":[{"op":"upsert","src":1,"dst":1,"weight":1e999}]}`), uint16(math.MaxUint16))
	f.Add([]byte(`{"ops":[]}`), uint16(math.MaxUint16))
	f.Fuzz(func(t *testing.T, body []byte, limit uint16) {
		reader := func() io.Reader {
			if int(limit) < len(body) {
				return http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), int64(limit))
			}
			return bytes.NewReader(body)
		}
		ops, err := decodeMutateBody(reader(), int64(len(body)))
		var spec mutateSpec
		stdErr := decodeJSONBody(reader(), &spec)
		if (err == nil) != (stdErr == nil) || err != nil && err.Error() != stdErr.Error() {
			t.Fatalf("%q: error %v, encoding/json %v", body, err, stdErr)
		}
		if err == nil {
			if err := sameOps(ops, spec.Ops); err != nil {
				t.Fatalf("%q: %v", body, err)
			}
		}
	})
}

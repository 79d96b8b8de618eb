package server

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"lagraph/internal/registry"
	"lagraph/internal/stream"
)

// Streaming mutation API:
//
//	POST /graphs/{name}/edges
//	{"ops": [
//	  {"op": "upsert", "src": 0, "dst": 3, "weight": 2.5},
//	  {"op": "delete", "src": 1, "dst": 2}
//	]}
//
// The batch is atomic (any invalid operation rejects the whole batch) and
// publishes a new copy-on-write snapshot of the graph: in-flight jobs keep
// reading the snapshot they started on, the result cache re-keys under the
// bumped registry version, and new submissions see the mutated graph.
// Undirected graphs mirror every operation so the pattern stays symmetric.

// mutateSpec is the JSON body of POST /graphs/{name}/edges.
type mutateSpec struct {
	Ops []stream.Op `json:"ops"`
}

// mutateResponse wraps the stream result with the request timing.
type mutateResponse struct {
	stream.Result
	Seconds float64 `json:"seconds"`
}

// handleMutateGraph is POST /graphs/{name}/edges.
func (s *Server) handleMutateGraph(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	// Mutation batches are bulk traffic like uploads, not parameter
	// bodies: give them the upload budget.
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes)
	ops, err := decodeMutateBody(r.Body, min(r.ContentLength, s.opts.MaxUploadBytes))
	if err != nil {
		writeBodyError(w, err)
		return
	}
	res, err := s.stream.ApplyCtx(r.Context(), r.PathValue("name"), ops)
	if err != nil {
		writeMutateError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, mutateResponse{
		Result:  res,
		Seconds: time.Since(start).Seconds(),
	})
}

// decodeMutateBody reads a mutation body of about size bytes and decodes
// it. parseOps takes the canonical shape in one pass; any other body goes
// through decodeJSONBody over the same bytes and then body again, whose
// error recurs as a MaxBytesReader's does: encoding/json's status and text.
func decodeMutateBody(body io.Reader, size int64) ([]stream.Op, error) {
	buf := bytes.NewBuffer(make([]byte, 0, max(size, 0)+bytes.MinRead))
	_, err := buf.ReadFrom(body)
	if ops, ok := parseOps(buf.Bytes()); ok && err == nil {
		return ops, nil
	}
	var spec mutateSpec
	err = decodeJSONBody(io.MultiReader(bytes.NewReader(buf.Bytes()), body), &spec)
	return spec.Ops, err
}

// parseOps decodes the canonical body — whitespace between tokens, an op's
// keys in any order, once each, "op" required — or reports false. Counting
// '{' sizes the batch (up to 2¹⁷ ops) and the one array behind its weights.
//
//	{"ops":[{"op":"upsert"|"delete","src":int,"dst":int,"weight":number}…]}
func parseOps(b []byte) ([]stream.Op, bool) {
	s := opScanner{b: b}
	ops := make([]stream.Op, 0, min(bytes.Count(b, []byte("{")), 1<<17))
	weights := make([]float64, 0, cap(ops))
	if !s.skip('{') || string(s.str()) != "ops" || !s.skip(':') || !s.skip('[') {
		return nil, false
	}
	for more := true; more; more = s.skip(',') {
		op, seen, err := stream.Op{}, uint8(0), error(nil)
		for more := s.skip('{'); more; more = s.skip(',') {
			k, bit, ok := s.str(), uint8(0), s.skip(':')
			switch string(k) {
			case "op":
				bit, op.Op = 1, opKinds[string(s.str())]
			case "src":
				bit = 2
				op.Src, err = strconv.Atoi(string(s.num()))
			case "dst":
				bit = 4
				op.Dst, err = strconv.Atoi(string(s.num()))
			case "weight":
				weights = append(weights, 0)
				bit, op.Weight = 8, &weights[len(weights)-1]
				*op.Weight, err = strconv.ParseFloat(string(s.num()), 64)
			}
			if !ok || err != nil || bit == 0 || seen&bit != 0 {
				return nil, false
			}
			seen |= bit
		}
		if op.Op == "" || !s.skip('}') || len(ops) == cap(ops) {
			return nil, false
		}
		ops = append(ops, op)
	}
	return ops, s.skip(']') && s.skip('}') && len(bytes.TrimLeft(b[s.i:], " \t\n\r")) == 0
}

// opKinds interns the op names parseOps accepts.
var opKinds = map[string]string{stream.OpUpsert: stream.OpUpsert, stream.OpDelete: stream.OpDelete}

// opScanner is parseOps' cursor: b[i:] is left to read.
type opScanner struct {
	b []byte
	i int
}

// skip consumes JSON whitespace, then c if it comes next.
func (s *opScanner) skip(c byte) bool {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
	ok := s.i < len(s.b) && s.b[s.i] == c
	if ok {
		s.i++
	}
	return ok
}

// str reads a string, nil when the next token is not one. Its callers
// compare it with plain ASCII literals, which an escape never matches.
func (s *opScanner) str() []byte {
	if !s.skip('"') {
		return nil
	}
	start := s.i
	for s.i < len(s.b) && s.b[s.i] != '"' {
		s.i++
	}
	if !s.skip('"') {
		return nil
	}
	return s.b[start : s.i-1]
}

// num reads a number's bytes for strconv, rejecting what JSON forbids and
// strconv takes: a sign or point first, a leading zero not alone, a point
// with no digit after it.
func (s *opScanner) num() []byte {
	s.skip(' ') // whitespace: the loop leaves no ' ' to take
	start := s.i
	for s.i < len(s.b) && (isDigit(s.b[s.i]) || strings.IndexByte("-.eE+", s.b[s.i]) >= 0) {
		s.i++
	}
	d := bytes.TrimPrefix(s.b[start:s.i], []byte("-"))
	if len(d) == 0 || !isDigit(d[0]) || d[0] == '0' && len(d) > 1 && isDigit(d[1]) {
		return nil
	}
	if k := bytes.IndexByte(d, '.'); k >= 0 && (k+1 == len(d) || !isDigit(d[k+1])) {
		return nil
	}
	return s.b[start:s.i]
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// writeMutateError maps mutation failures onto HTTP statuses.
func writeMutateError(w http.ResponseWriter, err error) {
	msg := err.Error()
	switch {
	case errors.Is(err, stream.ErrBatchTooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, msg)
	case errors.Is(err, stream.ErrBadBatch):
		writeError(w, http.StatusBadRequest, msg)
	case errors.Is(err, stream.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, msg)
	case errors.Is(err, registry.ErrConflict):
		writeError(w, http.StatusConflict, msg)
	case errors.Is(err, registry.ErrNotFound),
		errors.Is(err, registry.ErrNoCapacity),
		errors.Is(err, registry.ErrClosed):
		writeRegistryError(w, err)
	default:
		writeError(w, http.StatusInternalServerError, msg)
	}
}

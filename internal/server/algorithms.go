package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"lagraph/internal/algo"
	"lagraph/internal/jobs"
	"lagraph/internal/obs"
)

// Algorithm execution and introspection ride the self-describing catalog
// (internal/algo): the server owns no per-algorithm code. A request is
// routed by name into the catalog, its JSON params are validated against
// the descriptor's typed schema (failures are 400 with the offending
// field named), the descriptor's declared properties are materialized
// once per graph through the registry, and the kernel closure runs on
// the jobs engine keyed by the schema-normalized canonical params.
//
//	GET /algorithms          every registered descriptor with its schema
//	GET /algorithms/{name}   one descriptor

// algoResponse is the envelope of algorithm results: the catalog
// kernel's named outputs merged with the request identity and compute
// time. Completed responses are stored in the jobs engine's result cache
// and may serve several requests — they are immutable once the
// computation returns (Seconds is the original compute time).
type algoResponse struct {
	Graph     string
	Algorithm string
	Seconds   float64
	Result    algo.Result
	// Report is the run's introspection record. It always rides the cached
	// response (immutable, so cache hits keep the original run's report)
	// but is rendered only under ?explain=1 and GET /jobs/{id}/report —
	// the default wire shape is unchanged.
	Report *algo.RunReport
}

// respBufs holds render buffers between requests; a body kept for a
// repeat is an exact-length copy in its graph's slot (bodySlot).
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

// bodySlot is a graph's last default (non-explain) body and its response.
type bodySlot struct {
	resp *algoResponse
	body []byte
}

// writeAlgoResponse is the one place an algorithm response is rendered:
// appended into a pooled buffer by algo.AppendResponse (the report only
// under explain) and written with its Content-Length in one Write. A
// default body is kept as its graph's slot; a repeat of that response (a
// cache hit or dedup attach hands back its pointer) writes it unrendered.
func (s *Server) writeAlgoResponse(ctx context.Context, w http.ResponseWriter, resp *algoResponse, explain bool) {
	_, sp := obs.StartSpan(ctx, "encode")
	defer sp.End()
	rep, reused := resp.Report, "true"
	var body []byte
	if !explain {
		rep = nil
		s.bodyMu.Lock()
		if slot := s.bodies[resp.Graph]; slot.resp == resp {
			body = slot.body
		}
		s.bodyMu.Unlock()
	}
	if body == nil {
		buf := respBufs.Get().(*[]byte)
		defer respBufs.Put(buf)
		var err error
		if *buf, err = algo.AppendResponse((*buf)[:0], resp.Graph, resp.Algorithm, resp.Seconds, resp.Result, rep); err != nil {
			writeError(w, http.StatusInternalServerError, "encode response: "+err.Error())
			return
		}
		body, reused = *buf, "false"
	}
	writeBody(w, http.StatusOK, body)
	sp.SetAttr("bytes", strconv.Itoa(len(body)))
	sp.SetAttr("reused", reused)
	if !explain && reused == "false" {
		kept := bytes.Clone(body)
		// Under the registry mutex, so a graph deleted or evicted since
		// its job finished (its remove listener run) keeps no slot.
		s.reg.WhileResident(resp.Graph, func() {
			s.bodyMu.Lock()
			s.bodies[resp.Graph] = bodySlot{resp, kept}
			s.bodyMu.Unlock()
		})
	}
}

// handleAlgorithm is the synchronous algorithm endpoint: submit-and-wait
// on the jobs engine (sharing dedup and the versioned result cache with
// async submissions); a disconnected client whose job has no other
// audience cancels the underlying computation.
func (s *Server) handleAlgorithm(w http.ResponseWriter, r *http.Request) {
	name, alg := r.PathValue("name"), r.PathValue("alg")

	d, err := s.catalog.Lookup(alg)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	// Parameter bodies are tiny; the params cap (1 MiB by default) keeps a
	// hostile request from buffering arbitrary JSON (uploads have their
	// own, larger cap).
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxParamsBytes)
	raw, err := decodeParamsBody(r.Body)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	p, err := d.Validate(raw)
	if err != nil {
		writeValidationError(w, err)
		return
	}

	job, err := s.submitAlgorithmJob(r, name, d, p, false, 0)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	_, wsp := obs.StartSpan(r.Context(), "wait")
	waited := s.jobs.WaitOrAbandon(r.Context(), job)
	wsp.End()
	if !waited {
		// The client is gone; if it was the job's only audience the job is
		// already cancelled. Nobody will read this response.
		writeError(w, http.StatusServiceUnavailable, "request abandoned")
		return
	}
	s.writeJobOutcome(w, r, job, explainRequested(r))
}

// explainRequested reports whether the request opted into the run-report
// rendering (?explain=1 or any usual truthy spelling).
func explainRequested(r *http.Request) bool {
	switch r.URL.Query().Get("explain") {
	case "1", "true", "yes", "on":
		return true
	}
	return false
}

// handleListAlgorithms is GET /algorithms: the whole catalog, each entry
// with its tier, doc, property requirements and typed parameter schema.
func (s *Server) handleListAlgorithms(w http.ResponseWriter, _ *http.Request) {
	infos := s.catalog.List()
	writeJSON(w, http.StatusOK, map[string]any{
		"count":      len(infos),
		"algorithms": infos,
	})
}

// handleGetAlgorithm is GET /algorithms/{name}.
func (s *Server) handleGetAlgorithm(w http.ResponseWriter, r *http.Request) {
	d, err := s.catalog.Lookup(r.PathValue("name"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, d.Info())
}

// writeJobOutcome renders a terminal job the way the synchronous API
// always has: the bare result envelope on success (with its "report" key
// under explain), a mapped error otherwise.
func (s *Server) writeJobOutcome(w http.ResponseWriter, r *http.Request, j *jobs.Job, explain bool) {
	if v, ok := j.Result(); ok {
		if resp, isAlgo := v.(*algoResponse); isAlgo {
			s.writeAlgoResponse(r.Context(), w, resp, explain)
		} else { // an embedder's own job on the shared engine
			writeJSON(w, http.StatusOK, v)
		}
		return
	}
	err := j.Err()
	switch {
	case err == nil: // terminal without result or error: cancelled race
		writeError(w, http.StatusServiceUnavailable, "job cancelled")
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "job cancelled")
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "job deadline exceeded")
	case algo.IsUnknown(err):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, errInternalFailure):
		writeError(w, http.StatusInternalServerError, err.Error())
	default:
		// Parameter problems detected inside the kernel (an out-of-range
		// source vertex, a semantically invalid knob) carry the offending
		// field, exactly like schema-validation failures.
		writeValidationError(w, err)
	}
}

// writeValidationError answers 400, naming the offending parameter when
// the error is (or wraps) a ParamError.
func writeValidationError(w http.ResponseWriter, err error) {
	var pe *algo.ParamError
	if errors.As(err, &pe) {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: pe.Error(), Field: pe.Field})
		return
	}
	writeError(w, http.StatusBadRequest, err.Error())
}

// errInternalFailure tags job errors that are the server's fault (e.g. a
// property materialization failing), mapping them to 500 instead of the
// 400 that parameter errors earn.
var errInternalFailure = errors.New("internal failure")

// decodeParamsBody reads an optional JSON object of algorithm parameters.
// An empty body means all-default parameters; numbers are kept as
// json.Number so the schema layer can distinguish ints from floats
// losslessly.
func decodeParamsBody(body io.Reader) (map[string]any, error) {
	dec := json.NewDecoder(body)
	dec.UseNumber()
	raw := map[string]any{}
	if err := dec.Decode(&raw); err != nil {
		if errors.Is(err, io.EOF) {
			return map[string]any{}, nil
		}
		return nil, fmt.Errorf("bad JSON body: %w", err)
	}
	if dec.More() {
		return nil, errors.New("bad JSON body: trailing data")
	}
	return raw, nil
}

// decodeJSONBody parses an optional JSON request body into v. An empty
// body is fine (all-default parameters); trailing garbage is not.
func decodeJSONBody(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	dec.UseNumber()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return nil
		}
		return fmt.Errorf("bad JSON body: %w", err)
	}
	if dec.More() {
		return errors.New("bad JSON body: trailing data")
	}
	return nil
}

package server

import (
	"errors"
	"net/http"
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
	var spec mutateSpec
	if err := decodeJSONBody(r, &spec); err != nil {
		writeBodyError(w, err)
		return
	}
	res, err := s.stream.ApplyCtx(r.Context(), r.PathValue("name"), spec.Ops)
	if err != nil {
		writeMutateError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, mutateResponse{
		Result:  res,
		Seconds: time.Since(start).Seconds(),
	})
}

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

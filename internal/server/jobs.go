package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"lagraph/internal/algo"
	"lagraph/internal/jobs"
	"lagraph/internal/lagraph"
	"lagraph/internal/obs"
	"lagraph/internal/registry"
)

// Asynchronous jobs API:
//
//	POST   /graphs/{name}/jobs   submit an algorithm job (202 + job record)
//	GET    /jobs                 list retained jobs, newest first
//	GET    /jobs/{id}            one job's status
//	GET    /jobs/{id}/result     the result once the job is done
//	GET    /jobs/{id}/report     the run's introspection report once done
//	DELETE /jobs/{id}            cancel (queued jobs die instantly; running
//	                             jobs stop at their next iteration check)
//
// Submissions are deduplicated against in-flight jobs and completed
// results by (graph, graph version, algorithm, params); the synchronous
// /algorithms endpoints ride the same engine, so a burst of identical
// requests — sync, async or mixed — costs one computation.

// jobSpec is the JSON body of POST /graphs/{name}/jobs. Params are an
// open JSON object validated against the algorithm's catalog schema.
type jobSpec struct {
	Algorithm      string         `json:"algorithm"`
	Params         map[string]any `json:"params"`
	TimeoutSeconds float64        `json:"timeout_seconds"` // 0 = server default
}

// maxJobTimeout bounds client-requested deadlines.
const maxJobTimeout = time.Hour

// submitAlgorithmJob leases the named graph, keys the work by its current
// version and the schema-normalized canonical params, and submits it to
// the engine. pin marks an asynchronous submission (the job survives with
// no waiter attached). The lease is held for the job's whole life — a
// resident graph cannot be evicted out from under a queued job — and
// released by the engine at any terminal state, including cancellation
// before the job ever ran.
//
// ctx carries the submitting request's trace; the Run closure re-attaches
// it to the worker's context so the property-materialization and
// kernel-run spans land on the submitter's trace. A deduplicated
// submission runs under the trace of whichever request created the job.
func (s *Server) submitAlgorithmJob(r *http.Request, name string, d *algo.Descriptor, p algo.Params, pin bool, timeout time.Duration) (*jobs.Job, error) {
	tr := obs.FromContext(r.Context())
	lease, err := s.reg.Acquire(name)
	if err != nil {
		return nil, err
	}
	entry := lease.Entry()
	g := lease.Graph()
	key := jobs.Key{
		Graph:     name,
		Version:   entry.Version(),
		Algorithm: d.Name,
		Params:    p.Canonical(),
	}
	req := jobs.Request{
		Key:     key,
		Pin:     pin,
		Timeout: timeout,
		OnDone:  lease.Release,
	}
	req.Run = func(ctx context.Context) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// The worker's context is not the request's: re-attach the
		// submitter's trace so the spans below land on it.
		ctx = obs.NewContext(ctx, tr)
		// EnsureProperties also finalizes a streamed-in snapshot's
		// pending deltas before any kernel reads the matrix structure.
		_, psp := obs.StartSpan(ctx, "properties", obs.String("graph", name))
		pstart := time.Now()
		err := entry.EnsureProperties(d.RequiredProperties(g)...)
		propSecs := time.Since(pstart).Seconds()
		psp.End()
		if err != nil {
			s.algErrors.Inc()
			// A property materialization failing is a server-side
			// fault, not a bad request; tag it so the HTTP layer
			// reports 500 (the pre-engine behavior).
			return nil, fmt.Errorf("%w: %w", errInternalFailure, err)
		}
		resp := &algoResponse{Graph: name, Algorithm: d.Name}
		// Every service run carries a probe: the report feeds the
		// explain surfaces, the per-algorithm metrics and the tracer.
		prb := lagraph.NewProbe(0)
		kctx, ksp := obs.StartSpan(ctx, "kernel:"+d.Name)
		kctx = lagraph.WithProbe(kctx, prb)
		start := time.Now()
		res, err := d.Run(kctx, g, p)
		resp.Seconds = time.Since(start).Seconds()
		resp.Result = res
		rep := algo.NewReport(d.Name, prb, propSecs, resp.Seconds)
		for _, ev := range rep.SpanEvents() {
			ksp.SetAttr(ev[0], ev[1])
		}
		ksp.SetAttr("iterations", strconv.Itoa(rep.Iterations))
		ksp.End()
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				s.algErrors.Inc()
			}
			return nil, err
		}
		if err := res.CheckReserved(); err != nil {
			// A kernel colliding with the envelope is a registration
			// bug, not a bad request: fail loudly as a 500 instead of
			// silently clobbering the kernel's output.
			s.algErrors.Inc()
			return nil, fmt.Errorf("%w: %w", errInternalFailure, err)
		}
		resp.Report = rep
		s.recordReport(rep)
		entry.CountAlgRun()
		return resp, nil
	}
	job, _, err := s.jobs.Submit(req)
	if err != nil {
		lease.Release() // Submit failed: the engine never took ownership
		return nil, err
	}
	return job, nil
}

// setRetryAfter stamps the drain-rate-derived backoff hint every 429
// must carry.
func (s *Server) setRetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(s.jobs.RetryAfterHint()))
}

// writeSubmitError maps submission failures onto HTTP statuses. A full
// queue answers 429 with a Retry-After hint derived from the drain rate.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case algo.IsUnknown(err):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, jobs.ErrQueueFull):
		s.setRetryAfter(w)
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, jobs.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, registry.ErrNotFound), errors.Is(err, registry.ErrClosed):
		writeRegistryError(w, err)
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

// handleSubmitJob is POST /graphs/{name}/jobs.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxParamsBytes)
	var spec jobSpec
	if err := decodeJSONBody(r.Body, &spec); err != nil {
		writeBodyError(w, err)
		return
	}
	if spec.Algorithm == "" {
		writeError(w, http.StatusBadRequest, "missing algorithm")
		return
	}
	if spec.TimeoutSeconds < 0 {
		writeError(w, http.StatusBadRequest, "timeout_seconds must be >= 0")
		return
	}
	d, err := s.catalog.Lookup(spec.Algorithm)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	p, err := d.Validate(spec.Params)
	if err != nil {
		writeValidationError(w, err)
		return
	}
	// Clamp before converting: a huge float would overflow the int64
	// Duration to a negative value, which the engine reads as "no
	// deadline" — an escape hatch from the operator's -job-timeout.
	if spec.TimeoutSeconds > maxJobTimeout.Seconds() {
		spec.TimeoutSeconds = maxJobTimeout.Seconds()
	}
	timeout := time.Duration(spec.TimeoutSeconds * float64(time.Second))
	job, err := s.submitAlgorithmJob(r, name, d, p, true, timeout)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job.Info())
}

// handleListJobs is GET /jobs.
func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.List()})
}

// jobForRequest fetches the job named by the path id, answering 404 when
// it is unknown.
func (s *Server) jobForRequest(w http.ResponseWriter, r *http.Request) (*jobs.Job, string, bool) {
	id := r.PathValue("id")
	job, ok := s.jobs.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "job "+strconv.Quote(id)+" not found")
		return nil, id, false
	}
	return job, id, true
}

// handleGetJob is GET /jobs/{id}.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	job, _, ok := s.jobForRequest(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, job.Info())
}

// handleJobResult is GET /jobs/{id}/result: the full algorithm response
// once the job is done; 409 with the job record while it is still queued
// or running; 410 after cancellation; the mapped algorithm error after a
// failure.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	job, id, ok := s.jobForRequest(w, r)
	if !ok {
		return
	}
	info := job.Info()
	switch info.State {
	case jobs.StateDone, jobs.StateFailed:
		s.writeJobOutcome(w, r, job, false)
	case jobs.StateCancelled:
		writeError(w, http.StatusGone, fmt.Sprintf("job %q was cancelled", id))
	default:
		writeJSON(w, http.StatusConflict, info)
	}
}

// recordReport feeds a finished run's report aggregates into the metrics
// registry: iteration totals, convergence outcomes and named work
// counters, all labelled by algorithm.
func (s *Server) recordReport(rep *algo.RunReport) {
	if rep == nil {
		return
	}
	s.algIters.With(rep.Algorithm).Add(float64(rep.Iterations))
	if rep.Converged != nil {
		s.algConverged.With(rep.Algorithm, strconv.FormatBool(*rep.Converged)).Inc()
	}
	for name, v := range rep.Counters {
		s.algWork.With(rep.Algorithm, name).Add(float64(v))
	}
}

// handleJobReport is GET /jobs/{id}/report: the run's introspection
// report once the job is done. The report is part of the cached immutable
// response, so deduplicated and cache-served jobs report the original
// computation.
func (s *Server) handleJobReport(w http.ResponseWriter, r *http.Request) {
	job, id, ok := s.jobForRequest(w, r)
	if !ok {
		return
	}
	info := job.Info()
	switch info.State {
	case jobs.StateDone:
		v, _ := job.Result()
		resp, ok := v.(*algoResponse)
		if !ok || resp.Report == nil {
			writeError(w, http.StatusNotFound, fmt.Sprintf("job %q has no run report", id))
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"graph":  resp.Graph,
			"job":    id,
			"report": resp.Report,
		})
	case jobs.StateCancelled:
		writeError(w, http.StatusGone, fmt.Sprintf("job %q was cancelled", id))
	case jobs.StateFailed:
		s.writeJobOutcome(w, r, job, false)
	default:
		writeJSON(w, http.StatusConflict, info)
	}
}

// handleCancelJob is DELETE /jobs/{id}. Cancellation is idempotent: a
// terminal job is returned as-is.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, err := s.jobs.Cancel(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "job "+strconv.Quote(id)+" not found")
		return
	}
	writeJSON(w, http.StatusOK, job.Info())
}

// Package server exposes the graph registry as an HTTP/JSON service — the
// lagraphd API. Endpoints:
//
//	POST   /graphs                          load a graph (JSON synthetic spec,
//	                                        Matrix Market or binary upload)
//	GET    /graphs                          list resident graphs
//	GET    /graphs/{name}                   one graph's info
//	DELETE /graphs/{name}                   drop a graph
//	POST   /graphs/{name}/edges             apply a batch of edge mutations
//	POST   /graphs/{name}/algorithms/{alg}  run a catalog algorithm
//	GET    /algorithms                      list the algorithm catalog
//	GET    /algorithms/{name}               one algorithm's descriptor
//	POST   /graphs/{name}/jobs              submit an asynchronous job
//	GET    /jobs                            list jobs
//	GET    /jobs/{id}                       job status
//	GET    /jobs/{id}/result                job result once done
//	GET    /jobs/{id}/report                the run's introspection report
//	DELETE /jobs/{id}                       cancel a job
//	GET    /healthz                         component-level readiness probe
//	GET    /stats                           the /metrics counters and gauges as JSON
//	GET    /metrics                         Prometheus exposition
//	GET    /debug/traces                    recent request traces
//	GET    /debug/traces/{id}               one trace's span tree
//
// Requests against the same graph share its cached properties: the first
// PageRank materializes the transpose and degree vector once (single
// flight), every later call reuses them — visible in /stats as
// registry.property_requests climbing past registry.property_computes.
//
// All algorithm execution — synchronous and asynchronous — flows through
// one jobs engine (internal/jobs): a worker pool of cancellable jobs with
// single-flight deduplication and a result cache keyed by the graph's
// registry version, so identical requests cost one computation and a
// disconnected synchronous client cancels work nobody will read.
//
// The server carries no per-algorithm code: routing, parameter
// validation, property requirements, cache keying and execution all come
// from the self-describing catalog (internal/algo). Registering a new
// kernel there is the only step needed for it to appear on every
// endpoint above.
package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"lagraph/internal/algo"
	"lagraph/internal/jobs"
	"lagraph/internal/obs"
	"lagraph/internal/parallel"
	"lagraph/internal/registry"
	"lagraph/internal/store"
	"lagraph/internal/stream"
)

// Options configures the service.
type Options struct {
	// MaxInFlight bounds concurrently served API requests; requests beyond
	// the bound queue until a slot frees or the client gives up. <= 0
	// selects 2 × the parallel worker bound (kernel-level parallelism and
	// request-level parallelism share the same cores).
	MaxInFlight int
	// MaxUploadBytes caps POST /graphs request bodies. <= 0 means 64 MiB.
	MaxUploadBytes int64
	// MaxParamsBytes caps algorithm-parameter and job-submission bodies —
	// tiny JSON objects, not uploads. <= 0 means 1 MiB.
	MaxParamsBytes int64
	// Jobs and Stream configure the two engines; see their own docs. New
	// overrides only what is the server's to decide: Jobs.Workers <= 0
	// selects the parallel worker bound (one algorithm per core set) and
	// both Obs fields follow Obs. A submission that finds Jobs.QueueDepth
	// jobs already waiting is a 429 carrying Retry-After.
	Jobs   jobs.Options
	Stream stream.Options
	// Store, when non-nil, makes the service durable: graphs persisted on
	// load, mutation batches write-ahead-logged before publication,
	// compactions checkpointed, deletes mirrored to disk — and New begins
	// by recovering whatever the store already holds into the registry.
	// The server owns the store from here on: Close closes it.
	Store *store.Store
	// Catalog is the algorithm catalog every endpoint dispatches through.
	// Nil selects the shared built-in catalog (algo.Default()); embedders
	// and tests that register extra kernels pass their own (built with
	// algo.Builtin() plus their Register calls).
	Catalog *algo.Catalog
	// Obs is the metrics registry GET /metrics scrapes. Every subsystem's
	// instruments — server, jobs, stream, registry, and (via AddSource)
	// the store's — register here, and GET /stats is a JSON view of one
	// scrape of it. Nil selects a private registry.
	Obs *obs.Registry
	// Logger receives the structured access log (one record per request,
	// keyed by trace id) and the slow-query log. Nil disables logging.
	Logger *slog.Logger
	// SlowThreshold gates the slow-query log: requests at least this slow
	// log a warning with their span breakdown. 0 disables.
	SlowThreshold time.Duration
	// TraceCapacity bounds the GET /debug/traces ring. <= 0 means 256.
	TraceCapacity int
}

// Server is the lagraphd HTTP service.
type Server struct {
	reg     *registry.Registry
	jobs    *jobs.Engine
	stream  *stream.Engine
	store   *store.Store // nil when the service is memory-only
	catalog *algo.Catalog
	mux     *http.ServeMux
	sem     chan struct{}
	opts    Options

	obs    *obs.Registry
	tracer *obs.Tracer

	// The default body last written per resident graph (algorithms.go).
	bodyMu sync.Mutex
	bodies map[string]bodySlot

	// Component-level readiness (health.go): probes registered at build
	// time, read by /healthz and the component_ready gauge family.
	health []healthComponent
	readyG *obs.GaugeVec

	requests  *obs.Counter // API requests admitted through the limiter
	rejected  *obs.Counter // API requests abandoned while queued
	algErrors *obs.Counter
	httpReqs  *obs.CounterVec   // http_requests_total{route,method,code}
	httpSecs  *obs.HistogramVec // http_request_seconds{route}

	// Per-algorithm run-report aggregates, fed from every kernel's probe.
	algIters     *obs.CounterVec // algorithm_iterations_total{algorithm}
	algConverged *obs.CounterVec // algorithm_converged_total{algorithm,converged}
	algWork      *obs.CounterVec // algorithm_work_total{algorithm,counter}
}

// New builds a Server around an existing registry.
func New(reg *registry.Registry, opts Options) *Server {
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = 2 * parallel.MaxThreads()
	}
	if opts.MaxUploadBytes <= 0 {
		opts.MaxUploadBytes = 64 << 20
	}
	if opts.MaxParamsBytes <= 0 {
		opts.MaxParamsBytes = 1 << 20
	}
	if opts.Jobs.Workers <= 0 {
		opts.Jobs.Workers = parallel.MaxThreads()
	}
	if opts.Catalog == nil {
		opts.Catalog = algo.Default()
	}
	if opts.Obs == nil {
		opts.Obs = obs.NewRegistry()
	}
	o := opts.Obs
	// Runtime telemetry is scrape-time sampling, not a background cost.
	o.AddSource(obs.NewRuntimeSource().Registry())
	opts.Jobs.Obs, opts.Stream.Obs = o, o

	s := &Server{
		reg:     reg,
		catalog: opts.Catalog,
		jobs:    jobs.NewEngine(opts.Jobs),
		stream:  stream.NewEngine(reg, opts.Stream),
		store:   opts.Store,
		mux:     http.NewServeMux(),
		bodies:  map[string]bodySlot{},
		sem:     make(chan struct{}, opts.MaxInFlight),
		opts:    opts,

		obs: o,
		tracer: obs.NewTracer(obs.TracerOptions{
			Capacity:      opts.TraceCapacity,
			Logger:        opts.Logger,
			SlowThreshold: opts.SlowThreshold,
		}),
		requests:  o.Counter("http_admitted_total", "API requests admitted through the concurrency limiter."),
		rejected:  o.Counter("http_rejected_total", "API requests abandoned while queued for a limiter slot."),
		algErrors: o.Counter("algorithm_errors_total", "Algorithm runs that failed server-side (property or kernel faults)."),
		httpReqs:  o.CounterVec("http_requests_total", "HTTP requests by route, method and status code.", "route", "method", "code"),
		httpSecs:  o.HistogramVec("http_request_seconds", "HTTP request latency by route.", nil, "route"),
		algIters: o.CounterVec("algorithm_iterations_total",
			"Kernel iterations executed (BFS levels, PageRank sweeps, SSSP buckets, FastSV rounds), from run reports.", "algorithm"),
		algConverged: o.CounterVec("algorithm_converged_total",
			"Iterative kernel completions by convergence outcome, from run reports.", "algorithm", "converged"),
		algWork: o.CounterVec("algorithm_work_total",
			"Named kernel work counters (relaxations, nnz processed), from run reports.", "algorithm", "counter"),
	}
	o.GaugeFunc("http_in_flight", "Requests currently holding a limiter slot.",
		func() float64 { return float64(len(s.sem)) })
	started := time.Now()
	o.GaugeFunc("uptime_seconds", "Seconds since the server was built.",
		func() float64 { return time.Since(started).Seconds() })
	reg.Instrument(o)
	// Version keys make a removed graph's cached results unreachable;
	// dropping them and its kept body as it is deleted or evicted returns
	// their memory too. The listener runs under the registry mutex and
	// takes the engine's and bodyMu, neither of which waits on the
	// registry: completion hooks (lease releases) run after the engine
	// mutex is released.
	reg.AddRemoveListener(func(name string, _ registry.RemoveReason) {
		s.jobs.InvalidateGraph(name)
		s.bodyMu.Lock()
		delete(s.bodies, name)
		s.bodyMu.Unlock()
	})
	if s.store != nil {
		// Order matters: recovery replays the WAL through the stream
		// engine while no journal is attached (so the replayed batches are
		// not re-appended), then the journal (which also receives the
		// compactions' checkpoints) and the registry delete listener come
		// live.
		s.store.RecoverInto(reg, s.stream)
		s.stream.SetJournal(s.store)
		s.store.Attach(reg)
	}
	if s.store != nil {
		// The store predates the server in boot order and owns its private
		// registry; compose it into the scraped exposition.
		o.AddSource(s.store.Obs())
	}
	s.registerHealth()
	// Every route runs inside the instrumented middleware: a trace (id
	// adopted from X-Trace-Id, echoed back), a root span, and the
	// per-route request counter and latency histogram. Graph and
	// algorithm routes additionally run behind the concurrency limiter.
	s.mux.HandleFunc("POST /graphs", s.instrumented("/graphs", s.limited(s.handleLoadGraph)))
	s.mux.HandleFunc("POST /graphs/{name}/edges", s.instrumented("/graphs/{name}/edges", s.limited(s.handleMutateGraph)))
	s.mux.HandleFunc("GET /graphs", s.instrumented("/graphs", s.limited(s.handleListGraphs)))
	s.mux.HandleFunc("GET /graphs/{name}", s.instrumented("/graphs/{name}", s.limited(s.handleGetGraph)))
	s.mux.HandleFunc("DELETE /graphs/{name}", s.instrumented("/graphs/{name}", s.limited(s.handleDeleteGraph)))
	s.mux.HandleFunc("POST /graphs/{name}/algorithms/{alg}", s.instrumented("/graphs/{name}/algorithms/{alg}", s.limited(s.handleAlgorithm)))
	s.mux.HandleFunc("POST /graphs/{name}/jobs", s.instrumented("/graphs/{name}/jobs", s.limited(s.handleSubmitJob)))
	// Job polling, cancellation and monitoring bypass the limiter so they
	// answer under load — a client must be able to cancel the very jobs
	// that are saturating the server.
	s.mux.HandleFunc("GET /jobs", s.instrumented("/jobs", s.handleListJobs))
	s.mux.HandleFunc("GET /jobs/{id}", s.instrumented("/jobs/{id}", s.handleGetJob))
	s.mux.HandleFunc("GET /jobs/{id}/result", s.instrumented("/jobs/{id}/result", s.handleJobResult))
	s.mux.HandleFunc("GET /jobs/{id}/report", s.instrumented("/jobs/{id}/report", s.handleJobReport))
	s.mux.HandleFunc("DELETE /jobs/{id}", s.instrumented("/jobs/{id}", s.handleCancelJob))
	// Catalog introspection is cheap and read-only; it bypasses the
	// limiter so clients can discover the API even under load.
	s.mux.HandleFunc("GET /algorithms", s.instrumented("/algorithms", s.handleListAlgorithms))
	s.mux.HandleFunc("GET /algorithms/{name}", s.instrumented("/algorithms/{name}", s.handleGetAlgorithm))
	s.mux.HandleFunc("GET /healthz", s.instrumented("/healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /stats", s.instrumented("/stats", s.handleStats))
	// Telemetry endpoints stay outside their own instrumentation: a scrape
	// must not fill the trace ring, and a broken middleware must not take
	// down the very endpoint used to debug it.
	s.mux.Handle("GET /metrics", o.Handler())
	s.mux.HandleFunc("GET /debug/traces", s.handleListTraces)
	s.mux.HandleFunc("GET /debug/traces/{id}", s.handleGetTrace)
	return s
}

// Handler returns the root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Jobs exposes the underlying engine (tests and embedding daemons).
func (s *Server) Jobs() *jobs.Engine { return s.jobs }

// Stream exposes the mutation engine (tests and embedding daemons).
func (s *Server) Stream() *stream.Engine { return s.stream }

// Store exposes the durable store (nil when memory-only).
func (s *Server) Store() *store.Store { return s.store }

// Tracer exposes the request tracer backing GET /debug/traces.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Close stops the jobs and stream engines — running jobs are cancelled,
// workers drain, and pending compactions finish — then closes the store,
// if any. The HTTP handler keeps answering (submissions fail with 503),
// so Close is safe to call before the listener stops.
func (s *Server) Close() {
	s.jobs.Close()
	s.stream.Close()
	if s.store != nil {
		s.store.Close()
	}
}

// limited wraps a handler with the request-concurrency limiter: a
// semaphore sized to Options.MaxInFlight. A queued request that loses its
// client (context cancelled) is released with 503.
func (s *Server) limited(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
		case <-r.Context().Done():
			s.rejected.Inc()
			writeError(w, http.StatusServiceUnavailable, "server busy, request abandoned while queued")
			return
		}
		defer func() { <-s.sem }()
		s.requests.Inc()
		h(w, r)
	}
}

// statsSections name the /stats sections, by a family's first word.
var statsSections = map[string]bool{"jobs": true, "registry": true, "stream": true, "store": true}

// handleStats serves one /metrics scrape as JSON: each unlabelled counter
// and gauge, any trailing _total dropped, under its section (first word
// removed) or at the top level; histograms and labelled families stay out.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	var scrape bytes.Buffer
	_ = s.obs.WritePrometheus(&scrape) // a bytes.Buffer write cannot fail
	exp, err := obs.ParseExposition(&scrape)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "parse metrics: "+err.Error())
		return
	}
	out := map[string]any{}
	for _, smp := range exp.Samples {
		if kind := exp.Types[smp.Name]; len(smp.Labels) > 0 || kind != "counter" && kind != "gauge" {
			continue
		}
		dst, key := out, strings.TrimSuffix(smp.Name, "_total")
		if section, rest, ok := strings.Cut(key, "_"); ok && statsSections[section] {
			if dst, ok = out[section].(map[string]any); !ok {
				dst = map[string]any{}
				out[section] = dst
			}
			key = rest
		}
		dst[key] = smp.Value
	}
	writeJSON(w, http.StatusOK, out)
}

// errorBody is the JSON error envelope. Field names the offending
// parameter on algorithm-parameter validation failures.
type errorBody struct {
	Error string `json:"error"`
	Field string `json:"field,omitempty"`
}

// writeJSON encodes before it answers, so a value the encoder refuses (a
// NaN in a stats payload) is a 500 with an error body, not a 200 with
// none.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode response: "+err.Error())
		return
	}
	writeBody(w, status, append(body, '\n'))
}

// writeBody sends a finished JSON document with its length in one Write.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write means the client is gone
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}

// lagraphd is the LAGraph analytics daemon: it holds named graphs
// resident in a registry and answers algorithm requests over HTTP/JSON,
// reusing each graph's cached properties (transpose, degrees) across
// requests the way the paper's LAGraph_Graph amortizes them across calls.
//
// Algorithm execution — synchronous and asynchronous — runs on a jobs
// engine: a worker pool of cancellable jobs with single-flight dedup and
// a result cache keyed by each graph's registry version. Jobs wait in one
// FIFO queue of -queue-depth entries; a submission that finds it full is
// a 429 with a Retry-After hint. Requests carry no credentials: the
// daemon serves whoever can reach -addr.
//
// With -data-dir the daemon is durable: loaded graphs are checkpointed,
// mutation batches are write-ahead-logged before they become visible,
// and a restart recovers every graph at the version it last published
// (see internal/store).
//
// Observability: GET /metrics serves every subsystem's counters — plus
// Go-runtime telemetry (heap, GC pauses, goroutines, scheduling latency)
// — in the Prometheus text format, GET /debug/traces serves recent
// request traces (ids propagate via X-Trace-Id), the access and
// slow-query logs are structured slog records (-log-level, -log-format,
// -slow-query), and -pprof-addr exposes net/http/pprof on its own
// listener. GET /healthz reports per-component readiness: store
// writability, job-queue headroom, compaction progress.
//
// Quickstart:
//
//	lagraphd -addr :8080 -data-dir /var/lib/lagraphd &
//	curl -X POST localhost:8080/graphs -H 'Content-Type: application/json' \
//	     -d '{"name":"kron","class":"kron","scale":10,"edge_factor":8}'
//	curl -X POST localhost:8080/graphs/kron/algorithms/pagerank -d '{}'
//	curl -X POST localhost:8080/graphs/kron/jobs \
//	     -d '{"algorithm":"bc","params":{"sources":[0,1,2,3]}}'
//	curl -X POST localhost:8080/graphs/kron/edges \
//	     -d '{"ops":[{"op":"upsert","src":0,"dst":5,"weight":2}]}'
//	curl localhost:8080/jobs
//	curl localhost:8080/stats
//	curl localhost:8080/metrics
//	curl localhost:8080/debug/traces
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lagraph/internal/obs"
	"lagraph/internal/parallel"
	"lagraph/internal/registry"
	"lagraph/internal/server"
	"lagraph/internal/store"
)

// newLogger builds the daemon's slog logger from the -log-level and
// -log-format flags.
func newLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "", "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (text|json)", format)
	}
}

func main() {
	// Flags bind straight into the struct each package reads, so an option
	// is declared once: here, and in the field that documents it.
	opts := server.Options{Obs: obs.NewRegistry()}
	var storeOpts store.Options
	addr := flag.String("addr", ":8080", "listen address")
	maxBytes := flag.Int64("max-bytes", 1<<30, "registry memory budget in bytes (0 = unlimited)")
	flag.IntVar(&opts.MaxInFlight, "max-inflight", 0, "max concurrently served requests (0 = 2x worker threads)")
	flag.Int64Var(&opts.MaxUploadBytes, "max-upload-bytes", 64<<20, "max POST /graphs body size")
	flag.Int64Var(&opts.MaxParamsBytes, "max-params-bytes", 1<<20, "max algorithm-parameter and job-submission body size")
	threads := flag.Int("threads", 0, "kernel worker threads (0 = GOMAXPROCS)")
	gracePeriod := flag.Duration("grace", 10*time.Second, "graceful-shutdown drain period")

	flag.IntVar(&opts.Jobs.Workers, "workers", 0, "jobs-engine workers: concurrently executing algorithms (0 = kernel worker threads)")
	flag.IntVar(&opts.Jobs.QueueDepth, "queue-depth", 0, "max jobs waiting for a worker (0 = 64)")
	flag.DurationVar(&opts.Jobs.ResultTTL, "result-ttl", 0, "how long completed results stay cached (0 = 5m)")
	flag.IntVar(&opts.Jobs.MaxCachedResults, "max-cached-results", 0, "result-cache entry bound (0 = 256)")
	flag.DurationVar(&opts.Jobs.DefaultTimeout, "job-timeout", 0, "default per-job deadline when the submission sets none (0 = none)")

	flag.IntVar(&opts.Stream.CompactThreshold, "compact-threshold", 0, "delta-log ops per graph before background compaction (0 = 4096)")
	flag.Float64Var(&opts.Stream.CompactRatio, "compact-ratio", 0, "delta-log/graph-size ratio that triggers compaction (0 = 0.25)")
	flag.IntVar(&opts.Stream.MaxBatchOps, "max-batch-ops", 0, "max edge operations per mutation batch (0 = 65536)")

	flag.StringVar(&storeOpts.Dir, "data-dir", "", "durable store directory: persist graphs + mutation WAL, recover on boot (empty = memory only)")
	flag.BoolVar(&storeOpts.Fsync, "fsync", true, "fsync WAL appends and checkpoint writes (with -data-dir)")

	logLevel := flag.String("log-level", "info", "log verbosity: debug|info|warn|error")
	logFormat := flag.String("log-format", "text", "log encoding: text|json")
	flag.DurationVar(&opts.SlowThreshold, "slow-query", 0, "log requests at least this slow with their span breakdown (0 disables)")
	flag.IntVar(&opts.TraceCapacity, "trace-capacity", 0, "finished-trace ring size served by /debug/traces (0 = 256)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty disables)")
	flag.Parse()

	logger, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lagraphd: %v\n", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	opts.Logger = logger
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	if *threads > 0 {
		parallel.SetMaxThreads(*threads)
	}

	if storeOpts.Dir != "" {
		if opts.Store, err = store.Open(storeOpts); err != nil {
			fatal("opening data dir", "dir", storeOpts.Dir, "error", err)
		}
	}

	reg := registry.New(*maxBytes)
	srv := server.New(reg, opts)
	if opts.Store != nil {
		stats := opts.Store.StatsSnapshot()
		if rec := stats.Recovery; rec != nil {
			logger.Info("recovered durable state",
				"graphs", rec.GraphsRecovered, "wal_batches", rec.BatchesReplayed,
				"ops", rec.OpsReplayed, "dir", storeOpts.Dir, "seconds", rec.Seconds)
			for _, f := range rec.Failed {
				logger.Warn("recovery skipped graph", "detail", f)
			}
		}
		for _, d := range stats.SkippedDirs {
			logger.Warn("data dir entry not served", "detail", d)
		}
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	if *pprofAddr != "" {
		// pprof gets its own mux on its own listener so profiling stays
		// off the API surface (and off any port the API is exposed on).
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Addr: *pprofAddr, Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "error", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("lagraphd listening",
			"addr", *addr, "budget_bytes", *maxBytes, "workers", parallel.MaxThreads())
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal("listener failed", "error", err)
		}
	case <-ctx.Done():
		logger.Info("shutting down", "grace", gracePeriod.String())
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *gracePeriod)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Error("forced shutdown", "error", err)
			_ = httpSrv.Close()
		}
		srv.Close() // cancels running jobs, drains the worker pool
		reg.Close()
		logger.Info("stopped")
	}
}

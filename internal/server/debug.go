package server

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"net/http"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"time"

	"lagraph/internal/obs"
)

// Debug surface: the flight recorder's incidents and the one-curl debug
// bundle. Like /metrics and /debug/traces, these routes stay outside the
// instrumented middleware — the endpoint used to diagnose a broken
// middleware must not run through it, and reading incidents must not
// fill the trace ring.

// handleListIncidents is GET /debug/incidents: retained incident
// summaries, newest first. A server built without a recorder
// (-incident-window 0) reports enabled=false and an empty list rather
// than 404, so probing scripts need no flag knowledge.
func (s *Server) handleListIncidents(w http.ResponseWriter, _ *http.Request) {
	incidents := s.recorder.Incidents() // nil-safe: nil recorder → nil
	if incidents == nil {
		incidents = []obs.IncidentSummary{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled":   s.recorder != nil,
		"count":     len(incidents),
		"incidents": incidents,
	})
}

// handleGetIncident is GET /debug/incidents/{id}: one full capture.
func (s *Server) handleGetIncident(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.recorder == nil {
		writeError(w, http.StatusNotFound, "flight recorder disabled (-incident-window 0)")
		return
	}
	inc, ok := s.recorder.Incident(id)
	if !ok {
		writeError(w, http.StatusNotFound, "incident "+id+" not found (evicted or never captured)")
		return
	}
	writeJSON(w, http.StatusOK, inc)
}

// bundleBuildInfo is the bundle's build.json: enough to reproduce the
// binary and its observability configuration offline.
type bundleBuildInfo struct {
	GoVersion     string            `json:"go_version"`
	OS            string            `json:"os"`
	Arch          string            `json:"arch"`
	GOMAXPROCS    int               `json:"gomaxprocs"`
	Module        string            `json:"module,omitempty"`
	VCSRevision   string            `json:"vcs_revision,omitempty"`
	VCSTime       string            `json:"vcs_time,omitempty"`
	UptimeSeconds float64           `json:"uptime_seconds"`
	BundledAt     time.Time         `json:"bundled_at"`
	Config        map[string]string `json:"config"`
}

// handleBundle is GET /debug/bundle: one tar.gz holding everything an
// offline diagnosis needs — build and flag info, the current metrics
// scrape, every retained incident, the recent trace ring, component
// health, and a fresh goroutine dump. Works with the recorder disabled
// (incidents.json is then an empty list).
func (s *Server) handleBundle(w http.ResponseWriter, _ *http.Request) {
	now := time.Now()

	var scrape bytes.Buffer
	_ = s.obs.WritePrometheus(&scrape)

	var goroutines bytes.Buffer
	if p := pprof.Lookup("goroutine"); p != nil {
		_ = p.WriteTo(&goroutines, 1)
	}

	health := healthzBody{Status: "ok", Components: make(map[string]componentHealth, len(s.health))}
	for _, c := range s.health {
		ok, detail := c.probe()
		health.Components[c.name] = componentHealth{Ready: ok, Detail: detail}
		if !ok {
			health.Status = "degraded"
		}
	}

	incidents := s.recorder.Dump()
	if incidents == nil {
		incidents = []obs.Incident{}
	}

	info := bundleBuildInfo{
		GoVersion:     runtime.Version(),
		OS:            runtime.GOOS,
		Arch:          runtime.GOARCH,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		UptimeSeconds: now.Sub(s.started).Seconds(),
		BundledAt:     now.UTC(),
		Config: map[string]string{
			"incident_window":   s.opts.IncidentWindow.String(),
			"incident_capacity": itoaDefault(s.opts.IncidentCapacity, 16),
			"slow_query":        s.opts.SlowThreshold.String(),
			"fsync_alert":       s.opts.FsyncAlert.String(),
			"durable":           strconv.FormatBool(s.store != nil),
			"workers":           itoaDefault(s.opts.Jobs.Workers, 0),
		},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		info.Module = bi.Main.Path
		for _, st := range bi.Settings {
			switch st.Key {
			case "vcs.revision":
				info.VCSRevision = st.Value
			case "vcs.time":
				info.VCSTime = st.Value
			}
		}
	}

	w.Header().Set("Content-Type", "application/gzip")
	w.Header().Set("Content-Disposition",
		`attachment; filename="lagraphd-bundle-`+now.UTC().Format("20060102T150405Z")+`.tar.gz"`)
	gz := gzip.NewWriter(w)
	tw := tar.NewWriter(gz)
	addJSON := func(name string, v any) {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return
		}
		addFile(tw, name, b, now)
	}
	addJSON("bundle/build.json", info)
	addFile(tw, "bundle/metrics.prom", scrape.Bytes(), now)
	addJSON("bundle/healthz.json", health)
	addJSON("bundle/incidents.json", incidents)
	addJSON("bundle/traces.json", s.tracer.Traces(maxTraceLimit))
	addFile(tw, "bundle/goroutines.txt", goroutines.Bytes(), now)
	_ = tw.Close()
	_ = gz.Close()
}

// addFile writes one regular file entry into the bundle.
func addFile(tw *tar.Writer, name string, b []byte, at time.Time) {
	_ = tw.WriteHeader(&tar.Header{
		Name:    name,
		Mode:    0o644,
		Size:    int64(len(b)),
		ModTime: at,
	})
	_, _ = tw.Write(b)
}

func itoaDefault(v, def int) string {
	if v <= 0 {
		v = def
	}
	return strconv.Itoa(v)
}

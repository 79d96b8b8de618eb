package server

import (
	"fmt"
	"net/http"
	"time"
)

// Component-level readiness: /healthz is not one boolean but a set of
// probes — job-queue headroom, compaction progress, durable-store
// writability — each answering "could this subsystem serve the next
// request". The same probes back the component_ready{component} gauge
// family, so an operator's dashboard and a load balancer's health check
// read one definition. A failing probe turns /healthz into 503 with the
// failing component named in the body; the daemon keeps serving (a full
// queue is back-pressure, not death), the caller decides what to do.

// compactorStaleAfter is how long one stream compaction may hold the
// engine's compaction lock before /healthz calls the compactor stuck. A
// compaction is a finalize that readers often already paid plus one
// checkpoint write, so 30s means a hung merge or checkpoint, not load;
// an idle engine runs no compaction and is always live.
const compactorStaleAfter = 30 * time.Second

// healthComponent is one named readiness probe.
type healthComponent struct {
	name  string
	probe func() (ok bool, detail string)
}

// addHealth registers a readiness probe and its component_ready series.
func (s *Server) addHealth(name string, probe func() (ok bool, detail string)) {
	s.health = append(s.health, healthComponent{name: name, probe: probe})
	s.readyG.Func(func() float64 {
		if ok, _ := probe(); ok {
			return 1
		}
		return 0
	}, name)
}

// registerHealth wires the built-in component probes. The store
// component only exists on durable servers — a memory-only daemon has no
// WAL directory to go read-only.
func (s *Server) registerHealth() {
	s.readyG = s.obs.GaugeVec("component_ready",
		"Per-component readiness (1 ready, 0 not), matching GET /healthz.", "component")
	s.addHealth("queue", func() (bool, string) {
		queued, depth := s.jobs.QueueHeadroom()
		if queued >= depth {
			return false, fmt.Sprintf("job queue full (%d/%d): submissions answer 429", queued, depth)
		}
		return true, ""
	})
	s.addHealth("compactor", func() (bool, string) {
		return s.stream.CompactorLive(compactorStaleAfter)
	})
	if s.store != nil {
		s.addHealth("store", s.store.Healthy)
	}
}

// componentHealth is one component's /healthz rendering.
type componentHealth struct {
	Ready  bool   `json:"ready"`
	Detail string `json:"detail,omitempty"`
}

// healthzBody is the /healthz payload.
type healthzBody struct {
	Status     string                     `json:"status"` // "ok" | "degraded"
	Components map[string]componentHealth `json:"components"`
}

// handleHealthz is GET /healthz: every component probe runs, the body
// names each component's state, and the status code is 200 only when all
// are ready (503 otherwise, so unmodified load-balancer checks see the
// degradation).
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	body := healthzBody{Status: "ok", Components: make(map[string]componentHealth, len(s.health))}
	code := http.StatusOK
	for _, c := range s.health {
		ok, detail := c.probe()
		body.Components[c.name] = componentHealth{Ready: ok, Detail: detail}
		if !ok {
			body.Status = "degraded"
			code = http.StatusServiceUnavailable
		}
	}
	writeJSON(w, code, body)
}

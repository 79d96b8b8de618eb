package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"lagraph/internal/gen"
	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
	"lagraph/internal/obs"
	"lagraph/internal/registry"
)

// loadSpec is the JSON body of POST /graphs when loading a synthetic
// graph from internal/gen.
type loadSpec struct {
	Name       string `json:"name"`
	Class      string `json:"class"` // kron | urand | twitter | web | road
	Scale      int    `json:"scale"`
	EdgeFactor int    `json:"edge_factor"`
	Seed       uint64 `json:"seed"`
	Weights    bool   `json:"weights"`
	WeightLo   int    `json:"weight_lo"`
	WeightHi   int    `json:"weight_hi"`
}

// loadResponse is returned by POST /graphs.
type loadResponse struct {
	registry.GraphInfo
	Source  string  `json:"source"` // "synthetic" | "matrixmarket" | "binary"
	Seconds float64 `json:"seconds"`
}

// maxLoadScale bounds synthetic generation so one request cannot occupy
// the machine for minutes.
const maxLoadScale = 22

// maxLoadEdges bounds edge_factor · 2^scale: the generators allocate that
// many edge slots (twice over) before the registry budget ever sees the
// graph, and an allocation that large is an abort no handler recovers.
const maxLoadEdges = 1 << 27

// handleLoadGraph loads a graph into the registry. The load path is
// chosen by Content-Type / ?format:
//
//	application/json                   → synthetic spec (internal/gen)
//	?format=mm  (or Content-Type text) → Matrix Market upload, ?kind=
//	?format=bin                        → grb.SerializeMatrix upload, ?kind=
func (s *Server) handleLoadGraph(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes)

	var (
		name   string
		g      *lagraph.Graph[float64]
		source string
		err    error
	)
	format := strings.ToLower(r.URL.Query().Get("format"))
	ctype := r.Header.Get("Content-Type")
	_, psp := obs.StartSpan(r.Context(), "parse")
	switch {
	case format == "" && strings.HasPrefix(ctype, "application/json"):
		name, g, err = s.loadSynthetic(r)
		source = "synthetic"
	case format == "mm":
		name, g, err = s.loadUpload(r, "mm")
		source = "matrixmarket"
	case format == "bin":
		name, g, err = s.loadUpload(r, "bin")
		source = "binary"
	default:
		psp.End()
		writeError(w, http.StatusUnsupportedMediaType,
			"specify a JSON synthetic spec (Content-Type: application/json) or ?format=mm|bin upload")
		return
	}
	psp.SetAttr("source", source)
	psp.End()
	if err != nil {
		writeBodyError(w, err)
		return
	}
	entry, err := s.reg.Add(name, g)
	if err != nil {
		writeRegistryError(w, err)
		return
	}
	if s.store != nil {
		// Durable before acknowledged: a load the store cannot checkpoint
		// is refused, not served from memory only to vanish on restart.
		if err := s.store.SaveGraph(name, g, entry.Version()); err != nil {
			_ = s.reg.Remove(name) // the removal listener clears any partial on-disk state
			writeError(w, http.StatusInternalServerError, "persisting graph: "+err.Error())
			return
		}
		// A DELETE can land in the window between Add and SaveGraph: its
		// removal listener found no durable state to drop, so the persist
		// above would resurrect a graph the API acknowledged as deleted.
		// Re-check and honor the delete (the load still "happened" — it
		// was simply deleted right after — so the 201 stands).
		if lease, err := s.reg.Acquire(name); err != nil {
			_ = s.store.RemoveGraph(name)
		} else {
			lease.Release()
		}
	}
	writeJSON(w, http.StatusCreated, loadResponse{
		GraphInfo: entry.Info(),
		Source:    source,
		Seconds:   time.Since(start).Seconds(),
	})
}

// validate checks a synthetic spec before anything is generated, filling
// the edge_factor default.
func (spec *loadSpec) validate() error {
	if spec.Name == "" {
		return errors.New("missing graph name")
	}
	if spec.Scale < 1 || spec.Scale > maxLoadScale {
		return fmt.Errorf("scale %d outside [1,%d]", spec.Scale, maxLoadScale)
	}
	if spec.EdgeFactor <= 0 {
		spec.EdgeFactor = 8
	}
	if limit := maxLoadEdges >> spec.Scale; spec.EdgeFactor > limit {
		return fmt.Errorf("edge_factor %d outside [1,%d] at scale %d", spec.EdgeFactor, limit, spec.Scale)
	}
	return nil
}

// loadSynthetic builds a graph from a generator spec.
func (s *Server) loadSynthetic(r *http.Request) (string, *lagraph.Graph[float64], error) {
	var spec loadSpec
	if err := decodeJSONBody(r.Body, &spec); err != nil {
		return "", nil, err
	}
	if err := spec.validate(); err != nil {
		return "", nil, err
	}
	e, err := gen.Generate(spec.Class, spec.Scale, spec.EdgeFactor, spec.Seed)
	if err != nil {
		return "", nil, err
	}
	if spec.Weights {
		lo, hi := spec.WeightLo, spec.WeightHi
		if lo <= 0 || hi < lo {
			lo, hi = 1, 255 // the GAP SSSP convention
		}
		e.AddUniformWeights(spec.Seed+17, lo, hi)
	}
	g, err := lagraph.FromEdgeList(e)
	return spec.Name, g, err
}

// loadUpload reads a Matrix Market or binary matrix from the request body.
func (s *Server) loadUpload(r *http.Request, format string) (string, *lagraph.Graph[float64], error) {
	q := r.URL.Query()
	name := q.Get("name")
	if name == "" {
		return "", nil, errors.New("missing ?name= for upload")
	}
	var (
		A    *grb.Matrix[float64]
		kind = lagraph.AdjacencyDirected
		err  error
	)
	if k := q.Get("kind"); k != "" {
		if kind, err = lagraph.ParseKind(strings.ToLower(k)); err != nil {
			return "", nil, fmt.Errorf("unknown kind %q (directed|undirected)", k)
		}
	}
	if format == "mm" {
		A, err = lagraph.MMRead(r.Body)
	} else {
		A, err = lagraph.BinRead(r.Body)
	}
	if err != nil {
		return "", nil, err
	}
	g, err := lagraph.New(&A, kind)
	if err != nil {
		return "", nil, err
	}
	// An undirected load asserts a symmetric pattern; verify rather than
	// trust the caller (CheckGraph is the paper's safety valve for the
	// non-opaque graph).
	if kind == lagraph.AdjacencyUndirected {
		if err := g.CheckGraph(); err != nil {
			return "", nil, fmt.Errorf("undirected upload rejected: %w", err)
		}
	}
	return name, g, nil
}

func (s *Server) handleListGraphs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"graphs": s.reg.List()})
}

func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if info, ok := s.reg.Info(name); ok {
		writeJSON(w, http.StatusOK, info)
		return
	}
	writeError(w, http.StatusNotFound, fmt.Sprintf("graph %q not found", name))
}

func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.reg.Remove(name); err != nil {
		writeRegistryError(w, err)
		return
	}
	// The registry's removal listeners drop the graph's cached job
	// results, its stream delta state and (on the durable store) its
	// on-disk state.
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

// writeBodyError maps a request-body read failure: 413 when the body
// blew through its MaxBytesReader cap, 400 otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge,
			"request body exceeds "+strconv.FormatInt(mbe.Limit, 10)+" bytes")
		return
	}
	writeError(w, http.StatusBadRequest, err.Error())
}

// writeRegistryError maps registry failures onto HTTP statuses.
func writeRegistryError(w http.ResponseWriter, err error) {
	msg := err.Error()
	switch {
	case errors.Is(err, registry.ErrNotFound):
		writeError(w, http.StatusNotFound, msg)
	case errors.Is(err, registry.ErrExists):
		writeError(w, http.StatusConflict, msg)
	case errors.Is(err, registry.ErrNoCapacity):
		writeError(w, http.StatusInsufficientStorage, msg)
	default:
		writeError(w, http.StatusInternalServerError, msg)
	}
}

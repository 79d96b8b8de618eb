package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"lagraph/internal/bench"
	"lagraph/internal/grb"
	"lagraph/internal/registry"
	"lagraph/internal/server"
)

// csr is what the three loaders must agree on.
type csr struct {
	nrows, nvals int
	ptr, idx     []int
	val          []float64
}

func csrOf(m *grb.Matrix[float64]) csr {
	ptr, idx, val := m.ExportCSR()
	return csr{m.NRows(), m.NVals(), ptr, idx, val}
}

func (a csr) equal(b csr) bool {
	return a.nrows == b.nrows && a.nvals == b.nvals &&
		slices.Equal(a.ptr, b.ptr) && slices.Equal(a.idx, b.idx) && slices.Equal(a.val, b.val)
}

// TestGraphClassesAgree: POST /graphs, bench.Load and graphgen all resolve
// a class name through internal/gen's one table, so for every class the
// three build the same matrix — same vertex count (Road's 2^(scale/2)
// grid rule included), same entries, same GAP-convention weights — accept
// the same spellings and reject the same unknowns. A loader that grows a
// private table again fails here.
func TestGraphClassesAgree(t *testing.T) {
	const (
		scale = 8
		ef    = 4
		seed  = 5
	)
	reg := registry.New(0)
	srv := server.New(reg, server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	// Each loader reports the matrix it builds for a class name, or an error.
	viaServer := func(class string) (csr, error) {
		name := "g-" + class
		spec, _ := json.Marshal(map[string]any{"name": name, "class": class, "scale": scale,
			"edge_factor": ef, "seed": seed, "weights": true})
		resp, err := http.Post(ts.URL+"/graphs", "application/json", bytes.NewReader(spec))
		if err != nil {
			t.Fatalf("POST /graphs: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return csr{}, fmt.Errorf("HTTP %d", resp.StatusCode)
		}
		lease, err := reg.Acquire(name)
		if err != nil {
			t.Fatalf("Acquire(%s): %v", name, err)
		}
		defer lease.Release()
		return csrOf(lease.Graph().A), nil
	}
	viaBench := func(class string) (csr, error) {
		w, err := bench.Load(class, scale, ef, seed)
		if err != nil {
			return csr{}, err
		}
		return csrOf(w.LG.A), nil
	}
	viaGraphgen := func(class string) (csr, error) {
		var file bytes.Buffer
		if _, err := generate(&file, "bin", class, scale, ef, seed, true); err != nil {
			return csr{}, err
		}
		m, err := grb.DeserializeMatrix[float64](&file)
		if err != nil {
			t.Fatalf("graphgen -format bin wrote an unreadable file: %v", err)
		}
		return csrOf(m), nil
	}

	classes := append([]string{"KRON", "rOAD", "tWiTtEr"}, bench.GraphNames...)
	for _, class := range classes {
		s, errS := viaServer(class)
		b, errB := viaBench(class)
		g, errG := viaGraphgen(class)
		if errS != nil || errB != nil || errG != nil {
			t.Errorf("%s: server %v, bench %v, graphgen %v", class, errS, errB, errG)
			continue
		}
		if !s.equal(b) || !s.equal(g) {
			t.Errorf("%s: loaders disagree (nrows/nvals, or the CSR arrays): server %d/%d, bench %d/%d, graphgen %d/%d",
				class, s.nrows, s.nvals, b.nrows, b.nvals, g.nrows, g.nvals)
		}
		if want := 1 << scale; !strings.EqualFold(class, "road") && s.nrows != want {
			t.Errorf("%s: %d vertices, want %d", class, s.nrows, want)
		}
	}
	for _, class := range []string{"", "Kronecker", "road "} {
		_, errS := viaServer(class)
		_, errB := viaBench(class)
		_, errG := viaGraphgen(class)
		if errS == nil || errB == nil || errG == nil {
			t.Errorf("unknown class %q accepted: server %v, bench %v, graphgen %v", class, errS, errB, errG)
		}
	}
}

package algo

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
)

// parseParams decodes a JSON object the way the HTTP layer does
// (UseNumber), so tests exercise the exact coercion paths.
func parseParams(t *testing.T, s string) map[string]any {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(s))
	dec.UseNumber()
	m := map[string]any{}
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return m
}

func mustLookup(t *testing.T, name string) *Descriptor {
	t.Helper()
	d, err := Default().Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestValidateAppliesDefaults(t *testing.T) {
	d := mustLookup(t, "pagerank")
	p, err := d.Validate(map[string]any{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Float("damping") != 0.85 || p.Float("tol") != 1e-4 || p.Int("max_iter") != 100 {
		t.Fatalf("defaults not applied: %+v", p.m)
	}
	if p.Int("limit") != 32 {
		t.Fatalf("defaults not applied: %+v", p.m)
	}
}

// TestCanonicalKeyOrderStability is the result-cache regression test for
// the old instability: identical params serialized with different JSON
// key order — or left to defaults — must produce byte-identical
// canonical encodings, so the jobs engine dedups them into one entry.
func TestCanonicalKeyOrderStability(t *testing.T) {
	d := mustLookup(t, "bfs")
	a, err := d.Validate(parseParams(t, `{"source": 3, "level": true, "limit": 32}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Validate(parseParams(t, `{"limit": 32, "level": true, "source": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	if a.Canonical() != b.Canonical() {
		t.Fatalf("key order changed the canonical encoding:\n  %s\n  %s", a.Canonical(), b.Canonical())
	}

	// Defaults normalize too: {} and the spelled-out defaults are one key.
	pr := mustLookup(t, "pagerank")
	empty, err := pr.Validate(map[string]any{})
	if err != nil {
		t.Fatal(err)
	}
	spelled, err := pr.Validate(parseParams(t, `{"damping": 0.85}`))
	if err != nil {
		t.Fatal(err)
	}
	if empty.Canonical() != spelled.Canonical() {
		t.Fatalf("default-spelling changed the canonical encoding:\n  %s\n  %s",
			empty.Canonical(), spelled.Canonical())
	}

	// Different values are different keys.
	other, err := pr.Validate(parseParams(t, `{"damping": 0.9}`))
	if err != nil {
		t.Fatal(err)
	}
	if other.Canonical() == empty.Canonical() {
		t.Fatal("different damping collapsed into one key")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		alg, body, field string
	}{
		{"bfs", `{"sauce": 1}`, "sauce"},                 // unknown name
		{"bfs", `{"source": -1}`, "source"},              // below min
		{"bfs", `{"source": 1.5}`, "source"},             // not an integer
		{"bfs", `{"level": "yes"}`, "level"},             // wrong type
		{"pagerank", `{"damping": 0}`, "damping"},        // exclusive min
		{"pagerank", `{"damping": 1}`, "damping"},        // exclusive max
		{"pagerank", `{"max_iter": 0}`, "max_iter"},      // below min
		{"tc.advanced", `{"method": "Cohen"}`, "method"}, // enum miss: case matters
		{"sssp", `{"delta": 0}`, "delta"},                // exclusive min
		{"bc", `{"sources": [0, -2]}`, "sources"},        // negative item
		{"bc", `{"sources": "0,1"}`, "sources"},          // not an array
		{"bfs", `{"limit": 0}`, "limit"},                 // below min
		{"tc.advanced", `{"method": "magic"}`, "method"}, // enum miss
		{"lcc", `{"limit": ` + "2097152" + `}`, "limit"}, // above max
		{"pagerank.gx", `{"damping": "hot"}`, "damping"}, // wrong type
		{"cc", `{"limit": true}`, "limit"},               // wrong type
		{"bfs.level", `{"source": "zero"}`, "source"},    // wrong type
	}
	for _, tc := range cases {
		d := mustLookup(t, tc.alg)
		_, err := d.Validate(parseParams(t, tc.body))
		var pe *ParamError
		if !errors.As(err, &pe) {
			t.Errorf("%s %s: err = %v, want ParamError", tc.alg, tc.body, err)
			continue
		}
		if pe.Field != tc.field {
			t.Errorf("%s %s: field = %q, want %q", tc.alg, tc.body, pe.Field, tc.field)
		}
	}
}

func TestValidateAcceptsLibraryShapedValues(t *testing.T) {
	// Library callers (the bench harness) pass Go ints and []int directly,
	// not json.Number.
	d := mustLookup(t, "bc")
	p, err := d.Validate(map[string]any{"sources": []int{0, 1, 2, 3}, "limit": 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Ints("sources"); len(got) != 4 || got[3] != 3 {
		t.Fatalf("sources = %v", got)
	}
	if p.Int("limit") != 8 {
		t.Fatalf("limit = %d", p.Int("limit"))
	}
	// Float64-shaped integers (a map marshalled through float64) coerce.
	d2 := mustLookup(t, "bfs")
	p2, err := d2.Validate(map[string]any{"source": float64(7)})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Int("source") != 7 {
		t.Fatalf("source = %d", p2.Int("source"))
	}
}

func TestValidateRequired(t *testing.T) {
	c := NewCatalog()
	c.MustRegister(Descriptor{
		Name: "needy", Tier: TierBasic, Doc: "test",
		Params: []Spec{{Name: "k", Type: TInt, Required: true, Doc: "test"}},
		Run:    func(_ context.Context, _ *Graph, _ Params) (Result, error) { return nil, nil },
	})
	d, _ := c.Get("needy")
	_, err := d.Validate(map[string]any{})
	var pe *ParamError
	if !errors.As(err, &pe) || pe.Field != "k" {
		t.Fatalf("missing required: err = %v", err)
	}
	if _, err := d.Validate(map[string]any{"k": 5}); err != nil {
		t.Fatalf("provided required: %v", err)
	}
}

// TestValidateRejectsNonFiniteFloats: HTTP bodies cannot carry NaN or
// ±Inf (the decoders use UseNumber), but Go callers can. Every comparison
// with NaN is false, so a NaN damping would pass the (0,1) range check
// and an infinite tol has no bound to fail; coercion must reject both by
// name before any range check, as it does a wrong type.
func TestValidateRejectsNonFiniteFloats(t *testing.T) {
	for _, tc := range []struct{ alg, field string }{
		{"pagerank", "damping"},
		{"pagerank", "tol"},
		{"sssp", "delta"},
	} {
		for _, x := range []any{math.NaN(), math.Inf(1), math.Inf(-1), json.Number("NaN")} {
			_, err := mustLookup(t, tc.alg).Validate(map[string]any{tc.field: x})
			var pe *ParamError
			if !errors.As(err, &pe) || pe.Field != tc.field {
				t.Errorf("%s %s=%v: err = %v, want a ParamError on %q", tc.alg, tc.field, x, err, tc.field)
			}
		}
	}
}

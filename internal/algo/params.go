package algo

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Type names a parameter's JSON type in the self-describing schema.
type Type string

const (
	TInt     Type = "int"
	TFloat   Type = "float"
	TBool    Type = "bool"
	TString  Type = "string"
	TIntList Type = "int[]"
)

// Spec is one typed parameter of an algorithm descriptor: the schema the
// catalog validates JSON params against, and the contract GET /algorithms
// exposes. Bounds are optional; Min/Max are inclusive unless the matching
// Excl flag is set. The zero Default of a non-required parameter counts —
// a descriptor that wants "absent" semantics leaves Default nil (only
// int[] parameters do, e.g. bc's sources).
type Spec struct {
	Name     string `json:"name"`
	Type     Type   `json:"type"`
	Doc      string `json:"doc"`
	Default  any    `json:"default,omitempty"`
	Required bool   `json:"required,omitempty"`

	Min     *float64 `json:"min,omitempty"`
	Max     *float64 `json:"max,omitempty"`
	MinExcl bool     `json:"min_exclusive,omitempty"`
	MaxExcl bool     `json:"max_exclusive,omitempty"`

	Enum     []string `json:"enum,omitempty"`      // string params: allowed values
	MaxItems int      `json:"max_items,omitempty"` // int[] params: length bound
}

// F64 is a convenience for building *float64 bounds in Spec literals.
func F64(x float64) *float64 { return &x }

// ParamError is a validation failure attributed to one parameter. Every
// layer that surfaces parameter problems (schema validation, kernel-side
// semantic checks like an out-of-range source vertex) returns one, so the
// HTTP layer can uniformly answer 400 with {"error": ..., "field": ...}.
type ParamError struct {
	Field string
	Msg   string
}

func (e *ParamError) Error() string {
	return fmt.Sprintf("parameter %q: %s", e.Field, e.Msg)
}

// Paramf builds a ParamError.
func Paramf(field, format string, args ...any) *ParamError {
	return &ParamError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Params is a validated, normalized parameter set: every declared
// parameter with a default is present, values carry concrete Go types
// (int, float64, bool, string, []int), and Canonical() is a deterministic
// encoding suitable as a dedup/cache key.
type Params struct {
	m map[string]any
}

// Int returns an int parameter (zero if absent — validated params only
// lack a value when the spec has no default).
func (p Params) Int(name string) int {
	v, _ := p.m[name].(int)
	return v
}

// Float returns a float parameter.
func (p Params) Float(name string) float64 {
	v, _ := p.m[name].(float64)
	return v
}

// Bool returns a bool parameter.
func (p Params) Bool(name string) bool {
	v, _ := p.m[name].(bool)
	return v
}

// String returns a string parameter.
func (p Params) String(name string) string {
	v, _ := p.m[name].(string)
	return v
}

// Ints returns an int[] parameter (nil when absent).
func (p Params) Ints(name string) []int {
	v, _ := p.m[name].([]int)
	return v
}

// Canonical returns the schema-normalized encoding of the parameters:
// JSON with sorted keys (encoding/json sorts map keys), defaults applied,
// values in canonical numeric form. Two requests that mean the same
// computation — `{}` vs `{"damping":0.85}`, or the same keys in any JSON
// order — produce byte-identical canonical strings, so the jobs engine
// dedups and caches them as one.
//
// Marshal cannot fail: coerce admits only finite numbers, and every value
// is an int, float64, bool, string or []int.
func (p Params) Canonical() string {
	b, _ := json.Marshal(p.m)
	return string(b)
}

// Validate checks raw JSON parameters (as decoded into a map, ideally
// with json.Decoder.UseNumber) against the descriptor's schema: unknown
// names, type mismatches, out-of-range values and missing required
// parameters are ParamErrors; defaults fill the gaps. The returned Params
// is normalized and canonicalizable.
func (d *Descriptor) Validate(raw map[string]any) (Params, error) {
	specs := make(map[string]*Spec, len(d.Params))
	for i := range d.Params {
		specs[d.Params[i].Name] = &d.Params[i]
	}
	vals := make(map[string]any, len(d.Params))
	for name, v := range raw {
		spec, ok := specs[name]
		if !ok {
			return Params{}, Paramf(name, "unknown parameter for %q (known: %s)",
				d.Name, strings.Join(d.paramNames(), ", "))
		}
		cv, err := spec.coerce(v)
		if err != nil {
			return Params{}, err
		}
		vals[name] = cv
	}
	for i := range d.Params {
		spec := &d.Params[i]
		if _, ok := vals[spec.Name]; ok {
			continue
		}
		if spec.Required {
			return Params{}, Paramf(spec.Name, "required parameter missing")
		}
		if spec.Default != nil {
			dv, err := spec.coerce(spec.Default)
			if err != nil { // a broken registration, not a bad request
				return Params{}, fmt.Errorf("algo: descriptor %q default for %q invalid: %w",
					d.Name, spec.Name, err)
			}
			vals[spec.Name] = dv
		}
	}
	return Params{m: vals}, nil
}

func (d *Descriptor) paramNames() []string {
	names := make([]string, len(d.Params))
	for i, s := range d.Params {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}

// coerce converts one raw JSON value to the spec's canonical Go type and
// range-checks it.
func (s *Spec) coerce(v any) (any, error) {
	switch s.Type {
	case TInt:
		n, ok := asInt(v)
		if !ok {
			return nil, Paramf(s.Name, "want an integer, got %s", jsonTypeName(v))
		}
		if err := s.checkRange(float64(n), fmt.Sprintf("%d", n)); err != nil {
			return nil, err
		}
		return n, nil
	case TFloat:
		f, ok := asFloat(v)
		if !ok {
			return nil, Paramf(s.Name, "want a number, got %s", jsonTypeName(v))
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, Paramf(s.Name, "want a finite number, got %g", f)
		}
		if err := s.checkRange(f, fmt.Sprintf("%g", f)); err != nil {
			return nil, err
		}
		return f, nil
	case TBool:
		b, ok := v.(bool)
		if !ok {
			return nil, Paramf(s.Name, "want a boolean, got %s", jsonTypeName(v))
		}
		return b, nil
	case TString:
		str, ok := v.(string)
		if !ok {
			return nil, Paramf(s.Name, "want a string, got %s", jsonTypeName(v))
		}
		if len(s.Enum) > 0 {
			for _, e := range s.Enum {
				if str == e {
					return str, nil
				}
			}
			return nil, Paramf(s.Name, "unknown value %q (%s)", str, strings.Join(s.Enum, "|"))
		}
		return str, nil
	case TIntList:
		items, ok := asIntList(v)
		if !ok {
			return nil, Paramf(s.Name, "want an array of integers, got %s", jsonTypeName(v))
		}
		if s.MaxItems > 0 && len(items) > s.MaxItems {
			return nil, Paramf(s.Name, "too many items: %d > %d", len(items), s.MaxItems)
		}
		for _, n := range items {
			if err := s.checkRange(float64(n), fmt.Sprintf("item %d", n)); err != nil {
				return nil, err
			}
		}
		return items, nil
	default:
		return nil, fmt.Errorf("algo: spec %q has unknown type %q", s.Name, s.Type)
	}
}

func (s *Spec) checkRange(x float64, shown string) error {
	if s.Min != nil {
		if s.MinExcl && x <= *s.Min {
			return Paramf(s.Name, "%s must be > %s", shown, FormatBound(*s.Min))
		}
		if !s.MinExcl && x < *s.Min {
			return Paramf(s.Name, "%s must be >= %s", shown, FormatBound(*s.Min))
		}
	}
	if s.Max != nil {
		if s.MaxExcl && x >= *s.Max {
			return Paramf(s.Name, "%s must be < %s", shown, FormatBound(*s.Max))
		}
		if !s.MaxExcl && x > *s.Max {
			return Paramf(s.Name, "%s must be <= %s", shown, FormatBound(*s.Max))
		}
	}
	return nil
}

// FormatBound renders a schema bound without scientific notation, so a
// 1<<20 limit reads "1048576" in error messages and generated docs.
func FormatBound(x float64) string {
	return strconv.FormatFloat(x, 'f', -1, 64)
}

// asInt accepts the shapes an integer arrives in: json.Number (the HTTP
// decoders use UseNumber), Go ints (library callers), or a float64 with
// an integral value (callers that marshalled through float64).
func asInt(v any) (int, bool) {
	switch x := v.(type) {
	case json.Number:
		if n, err := x.Int64(); err == nil {
			return int(n), true
		}
		if f, err := x.Float64(); err == nil && f == float64(int64(f)) {
			return int(f), true
		}
		return 0, false
	case int:
		return x, true
	case int64:
		return int(x), true
	case float64:
		if x == float64(int64(x)) {
			return int(x), true
		}
		return 0, false
	default:
		return 0, false
	}
}

func asFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case json.Number:
		f, err := x.Float64()
		return f, err == nil
	case float64:
		return x, true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	default:
		return 0, false
	}
}

func asIntList(v any) ([]int, bool) {
	switch xs := v.(type) {
	case []int:
		return append([]int(nil), xs...), true
	case []any:
		out := make([]int, 0, len(xs))
		for _, x := range xs {
			n, ok := asInt(x)
			if !ok {
				return nil, false
			}
			out = append(out, n)
		}
		return out, true
	default:
		return nil, false
	}
}

func jsonTypeName(v any) string {
	switch v.(type) {
	case nil:
		return "null"
	case bool:
		return "boolean"
	case string:
		return "string"
	case json.Number, float64, int, int64:
		return "number"
	case []any, []int:
		return "array"
	case map[string]any:
		return "object"
	default:
		return fmt.Sprintf("%T", v)
	}
}

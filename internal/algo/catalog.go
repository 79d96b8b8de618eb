// Package algo is the self-describing algorithm catalog of the LAGraph
// service: every algorithm — Basic tier (sane defaults, cached
// properties) or Advanced tier (expert knobs) — is registered exactly
// once as a Descriptor carrying its name, tier, typed parameter schema,
// declared graph-property requirements and result-producing kernel
// closure. Every layer dispatches through the catalog: the HTTP server
// routes /algorithms/{name} and the introspection endpoints off it, the
// jobs engine keys its dedup/result cache by the schema-normalized
// canonical parameter encoding, and the benchmark harness times whatever
// is registered. Adding an algorithm is ONE Register call; no server,
// jobs, bench or documentation code changes (the README reference is
// generated from the catalog).
//
// This is the paper's central API design (LAGraph, Szárnyas et al.,
// IPDPS GrAPL 2021): a graph-algorithm library is not a pile of entry
// points but a self-describing collection layered on GraphBLAS, split
// into Basic and Advanced modes, with cached graph properties
// materialized once and shared.
package algo

//go:generate go run lagraph/cmd/algoref -readme ../../README.md

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"lagraph/internal/lagraph"
)

// Tier is the paper's two-level API split.
type Tier string

const (
	// TierBasic algorithms "simply produce the correct answer": they pick
	// defaults and rely on cached properties being materialized for them.
	TierBasic Tier = "basic"
	// TierAdvanced algorithms expose expert knobs (method selection,
	// presort, variant choice) and compute nothing behind the caller's
	// back — required properties must already be cached.
	TierAdvanced Tier = "advanced"
)

// Graph is the concrete graph type the service runs kernels on.
type Graph = lagraph.Graph[float64]

// RunFunc executes one algorithm invocation. Parameters are validated
// and normalized; required properties are materialized before the call.
// The returned Result's entries are merged into the HTTP response
// envelope, so keys are the public API surface.
type RunFunc func(ctx context.Context, g *Graph, p Params) (Result, error)

// Descriptor is one registered algorithm: everything every layer needs
// to route, validate, document, key and execute it.
type Descriptor struct {
	// Name is the routing key: POST /graphs/{g}/algorithms/{Name},
	// the async job "algorithm" field, and the gapbench cell label.
	Name string
	// Tier is basic or advanced.
	Tier Tier
	// Doc is a one-paragraph description for introspection and the
	// generated README reference.
	Doc string
	// Undirected marks kernels that require an undirected graph (tc, lcc).
	Undirected bool
	// Params is the typed parameter schema.
	Params []Spec
	// Properties declares the cached graph properties the kernel reads,
	// so its caller (the registry or EnsureProperties) materializes them
	// before Run. It may be called with a nil graph for introspection,
	// and must then return the full (superset) list. Nil means none.
	Properties func(g *Graph) []lagraph.Property
	// Run is the kernel closure.
	Run RunFunc
}

// RequiredProperties returns the properties to materialize for g
// (nil-safe).
func (d *Descriptor) RequiredProperties(g *Graph) []lagraph.Property {
	if d.Properties == nil {
		return nil
	}
	return d.Properties(g)
}

// Info is the JSON introspection shape of a descriptor, served by
// GET /algorithms.
type Info struct {
	Name       string   `json:"name"`
	Tier       Tier     `json:"tier"`
	Doc        string   `json:"doc"`
	Undirected bool     `json:"undirected,omitempty"`
	Properties []string `json:"properties,omitempty"`
	Params     []Spec   `json:"params"`
}

// Info renders the descriptor for introspection.
func (d *Descriptor) Info() Info {
	in := Info{
		Name:       d.Name,
		Tier:       d.Tier,
		Doc:        d.Doc,
		Undirected: d.Undirected,
		Params:     d.Params,
	}
	if in.Params == nil {
		in.Params = []Spec{}
	}
	for _, p := range d.RequiredProperties(nil) {
		in.Properties = append(in.Properties, p.String())
	}
	return in
}

// ErrUnknown reports a name the catalog does not know; it carries the
// known names so API error messages can list them.
type ErrUnknown struct {
	Name  string
	Known []string
}

func (e *ErrUnknown) Error() string {
	return fmt.Sprintf("unknown algorithm %q (known: %s)", e.Name, strings.Join(e.Known, "|"))
}

// IsUnknown reports whether err is an unknown-algorithm error.
func IsUnknown(err error) bool {
	var u *ErrUnknown
	return errors.As(err, &u)
}

// Catalog is a registry of algorithm descriptors. The zero value is not
// usable; construct with NewCatalog (empty) or Builtin (all built-in
// kernels registered).
type Catalog struct {
	mu    sync.RWMutex
	m     map[string]*Descriptor
	order []string // registration order, for stable listings
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{m: make(map[string]*Descriptor)}
}

// Register adds a descriptor. Names are unique; a descriptor must carry
// a name, a tier and a Run closure, and its parameter names must be
// unique.
func (c *Catalog) Register(d Descriptor) error {
	if d.Name == "" {
		return errors.New("algo: descriptor without a name")
	}
	if d.Tier != TierBasic && d.Tier != TierAdvanced {
		return fmt.Errorf("algo: %q: unknown tier %q", d.Name, d.Tier)
	}
	if d.Run == nil {
		return fmt.Errorf("algo: %q: nil Run", d.Name)
	}
	seen := map[string]bool{}
	for _, p := range d.Params {
		if p.Name == "" {
			return fmt.Errorf("algo: %q: parameter without a name", d.Name)
		}
		if seen[p.Name] {
			return fmt.Errorf("algo: %q: duplicate parameter %q", d.Name, p.Name)
		}
		seen[p.Name] = true
		switch p.Type {
		case TInt, TFloat, TBool, TString, TIntList:
		default:
			return fmt.Errorf("algo: %q: parameter %q has unknown type %q", d.Name, p.Name, p.Type)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[d.Name]; ok {
		return fmt.Errorf("algo: %q already registered", d.Name)
	}
	cp := d
	c.m[d.Name] = &cp
	c.order = append(c.order, d.Name)
	return nil
}

// MustRegister is Register or panic — for built-in registrations, where
// a failure is a programming error caught by any test run.
func (c *Catalog) MustRegister(d Descriptor) {
	if err := c.Register(d); err != nil {
		panic(err)
	}
}

// Get returns a descriptor by name.
func (c *Catalog) Get(name string) (*Descriptor, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, ok := c.m[name]
	return d, ok
}

// Lookup is Get with an *ErrUnknown (carrying the known names) on miss.
func (c *Catalog) Lookup(name string) (*Descriptor, error) {
	if d, ok := c.Get(name); ok {
		return d, nil
	}
	return nil, &ErrUnknown{Name: name, Known: c.Names()}
}

// Names returns every registered name, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := append([]string(nil), c.order...)
	sort.Strings(out)
	return out
}

// List renders every descriptor for introspection: basic tier first,
// then advanced, alphabetical within each tier.
func (c *Catalog) List() []Info {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Info, 0, len(c.order))
	for _, name := range c.order {
		out = append(out, c.m[name].Info())
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tier != out[j].Tier {
			return out[i].Tier == TierBasic
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// defaultCatalog is the shared built-in catalog, built once on first use.
var (
	defaultOnce    sync.Once
	defaultCatalog *Catalog
)

// Default returns the shared catalog of built-in kernels. Callers that
// want to register their own algorithms on top (tests, embedders) should
// build a private one with Builtin() instead of mutating this.
func Default() *Catalog {
	defaultOnce.Do(func() { defaultCatalog = Builtin() })
	return defaultCatalog
}

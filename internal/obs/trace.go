package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"sort"
	"sync"
	"time"
)

// Tracing: every API request gets a Trace (its ID minted server-side or
// adopted from the client's X-Trace-Id header) carrying a tree of timed
// Spans — parse, property materialization, kernel run, WAL append,
// response. Finished traces land in a bounded ring served by
// GET /debug/traces, and each one emits a structured slog access-log
// line; traces slower than the configured threshold additionally emit a
// slow-query line with the span breakdown.
//
// Propagation is by context: NewContext/FromContext carry the *Trace,
// StartSpan pushes the current span so children record their parent.
// Spans are cheap (one mutex-guarded append); a nil *Trace is inert, so
// instrumented code never branches on "is tracing on".

// TracerOptions configures a Tracer.
type TracerOptions struct {
	// Capacity bounds the finished-trace ring. <= 0 means 256.
	Capacity int
	// Logger receives one access-log record per finished trace (and the
	// slow-query records). Nil disables logging; the ring still fills.
	Logger *slog.Logger
	// SlowThreshold gates the slow-query log: a finished trace at least
	// this slow logs a warning with its span breakdown. 0 disables.
	SlowThreshold time.Duration
}

// Tracer owns the finished-trace ring.
type Tracer struct {
	opts TracerOptions

	mu      sync.Mutex
	ring    []*Trace // circular, ring[next] is the oldest once full
	next    int
	started int64
}

// NewTracer builds a tracer.
func NewTracer(opts TracerOptions) *Tracer {
	if opts.Capacity <= 0 {
		opts.Capacity = 256
	}
	return &Tracer{opts: opts, ring: make([]*Trace, 0, opts.Capacity)}
}

// newTraceID mints a 16-hex-digit random trace id.
func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "trace-rand-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// sanitizeTraceID accepts a client-proposed id: printable ASCII, at most
// 64 bytes, no spaces (it travels in a header and in log lines).
func sanitizeTraceID(id string) string {
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' || c == '"' {
			return ""
		}
	}
	return id
}

// Start begins a trace. id is the client's proposal (the X-Trace-Id
// request header); empty or invalid proposals get a generated id.
func (t *Tracer) Start(id string) *Trace {
	if id = sanitizeTraceID(id); id == "" {
		id = newTraceID()
	}
	t.mu.Lock()
	t.started++
	t.mu.Unlock()
	return &Trace{tracer: t, id: id, start: time.Now()}
}

// Trace is one request's (or job's) span collection.
type Trace struct {
	tracer *Tracer
	id     string
	start  time.Time

	mu       sync.Mutex
	spans    []*Span
	finished bool
	end      time.Time
}

// ID returns the trace id (echoed as the X-Trace-Id response header).
func (tr *Trace) ID() string { return tr.id }

// Span is one timed region inside a trace.
type Span struct {
	tr     *Trace
	name   string
	parent string
	start  time.Time

	mu    sync.Mutex
	end   time.Time
	attrs []Attr
}

// Attr is one span attribute.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String builds an Attr.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// StartSpan opens a span on the trace in ctx and returns a context
// carrying it as the current parent. Ending is the caller's job; a nil
// trace in ctx returns an inert span and the context unchanged.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	tr := FromContext(ctx)
	if tr == nil {
		return ctx, nil
	}
	parent := ""
	if cur, _ := ctx.Value(spanKey{}).(*Span); cur != nil {
		parent = cur.name
	}
	sp := tr.startSpan(name, parent, attrs...)
	return context.WithValue(ctx, spanKey{}, sp), sp
}

func (tr *Trace) startSpan(name, parent string, attrs ...Attr) *Span {
	sp := &Span{tr: tr, name: name, parent: parent, start: time.Now(), attrs: attrs}
	tr.mu.Lock()
	tr.spans = append(tr.spans, sp)
	tr.mu.Unlock()
	return sp
}

// SetAttr attaches (or appends) an attribute. Nil-safe.
func (sp *Span) SetAttr(key, value string) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.attrs = append(sp.attrs, Attr{Key: key, Value: value})
	sp.mu.Unlock()
}

// End closes the span. Nil-safe and idempotent.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if sp.end.IsZero() {
		sp.end = time.Now()
	}
	sp.mu.Unlock()
}

// Finish closes the trace: open spans are ended, the trace enters the
// ring, and the access/slow logs fire. Idempotent; spans started after
// Finish (a cancelled waiter's job completing late) still attach to the
// ringed trace and show up in /debug/traces.
func (tr *Trace) Finish() {
	tr.mu.Lock()
	if tr.finished {
		tr.mu.Unlock()
		return
	}
	tr.finished = true
	tr.end = time.Now()
	spans := append([]*Span(nil), tr.spans...)
	tr.mu.Unlock()
	for _, sp := range spans {
		sp.End()
	}
	t := tr.tracer
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, tr)
	} else {
		t.ring[t.next] = tr
		t.next = (t.next + 1) % cap(t.ring)
	}
	t.mu.Unlock()
	t.log(tr)
}

// log emits the access-log record and, past the threshold, the
// slow-query record with the span breakdown.
func (t *Tracer) log(tr *Trace) {
	lg := t.opts.Logger
	if lg == nil {
		return
	}
	dur := tr.end.Sub(tr.start)
	args := []any{slog.String("trace", tr.id), slog.Duration("duration", dur)}
	for _, a := range tr.rootAttrs() {
		args = append(args, slog.String(a.Key, a.Value))
	}
	lg.Info("request", args...)
	if t.opts.SlowThreshold > 0 && dur >= t.opts.SlowThreshold {
		spans := tr.Snapshot().Spans
		breakdown := make([]any, 0, len(spans))
		iterations := ""
		for _, s := range spans {
			breakdown = append(breakdown, slog.Float64(s.Name, s.Seconds))
			// Kernel spans carry the run report's iteration count; surface
			// it so a slow line says how much work the kernel actually did.
			for _, a := range s.Attrs {
				if a.Key == "iterations" {
					iterations = a.Value
				}
			}
		}
		args := []any{
			slog.String("trace", tr.id),
			slog.Duration("duration", dur),
			slog.Duration("threshold", t.opts.SlowThreshold),
		}
		if iterations != "" {
			args = append(args, slog.String("iterations", iterations))
		}
		args = append(args, slog.Group("spans", breakdown...))
		lg.Warn("slow request", args...)
	}
}

// rootAttrs returns the first (root) span's attributes.
func (tr *Trace) rootAttrs() []Attr {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.spans) == 0 {
		return nil
	}
	root := tr.spans[0]
	root.mu.Lock()
	defer root.mu.Unlock()
	return append([]Attr(nil), root.attrs...)
}

// SpanInfo is the JSON-facing snapshot of one span.
type SpanInfo struct {
	Name     string  `json:"name"`
	Parent   string  `json:"parent,omitempty"`
	OffsetUS int64   `json:"offset_us"` // start relative to the trace start
	Seconds  float64 `json:"seconds"`
	Attrs    []Attr  `json:"attrs,omitempty"`
}

// TraceInfo is the JSON-facing snapshot of one trace.
type TraceInfo struct {
	ID      string     `json:"id"`
	Start   string     `json:"start"`
	Seconds float64    `json:"seconds"`
	Open    bool       `json:"open,omitempty"` // still unfinished
	Spans   []SpanInfo `json:"spans"`
}

// Snapshot renders the trace for /debug/traces.
func (tr *Trace) Snapshot() TraceInfo {
	tr.mu.Lock()
	spans := append([]*Span(nil), tr.spans...)
	end, finished := tr.end, tr.finished
	tr.mu.Unlock()
	info := TraceInfo{
		ID:    tr.id,
		Start: tr.start.UTC().Format(time.RFC3339Nano),
		Open:  !finished,
	}
	if finished {
		info.Seconds = end.Sub(tr.start).Seconds()
	} else {
		info.Seconds = time.Since(tr.start).Seconds()
	}
	for _, sp := range spans {
		sp.mu.Lock()
		si := SpanInfo{
			Name:     sp.name,
			Parent:   sp.parent,
			OffsetUS: sp.start.Sub(tr.start).Microseconds(),
			Attrs:    append([]Attr(nil), sp.attrs...),
		}
		if !sp.end.IsZero() {
			si.Seconds = sp.end.Sub(sp.start).Seconds()
		} else {
			si.Seconds = time.Since(sp.start).Seconds()
		}
		sp.mu.Unlock()
		info.Spans = append(info.Spans, si)
	}
	return info
}

// Traces snapshots the ring, newest first, at most limit entries
// (limit <= 0 means all).
func (t *Tracer) Traces(limit int) []TraceInfo {
	t.mu.Lock()
	all := make([]*Trace, 0, len(t.ring))
	// Oldest-to-newest is ring[next:] then ring[:next] once wrapped.
	if len(t.ring) == cap(t.ring) {
		all = append(all, t.ring[t.next:]...)
		all = append(all, t.ring[:t.next]...)
	} else {
		all = append(all, t.ring...)
	}
	t.mu.Unlock()
	sort.SliceStable(all, func(i, j int) bool { return all[i].start.After(all[j].start) })
	if limit > 0 && len(all) > limit {
		all = all[:limit]
	}
	out := make([]TraceInfo, 0, len(all))
	for _, tr := range all {
		out = append(out, tr.Snapshot())
	}
	return out
}

// Get returns the ringed trace with the given id. Client-proposed ids
// can repeat; the newest match wins, the one Traces lists first.
func (t *Tracer) Get(id string) (TraceInfo, bool) {
	t.mu.Lock()
	var found *Trace
	for _, tr := range t.ring {
		if tr.id == id && (found == nil || tr.start.After(found.start)) {
			found = tr
		}
	}
	t.mu.Unlock()
	if found == nil {
		return TraceInfo{}, false
	}
	return found.Snapshot(), true
}

// Started returns the number of traces ever started.
func (t *Tracer) Started() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.started
}

type traceKey struct{}
type spanKey struct{}

// NewContext returns ctx carrying the trace.
func NewContext(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, tr)
}

// FromContext returns the trace carried by ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

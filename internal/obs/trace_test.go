package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestTraceSpansAndContext(t *testing.T) {
	tr := NewTracer(TracerOptions{Capacity: 4}).Start("")
	if tr.ID() == "" {
		t.Fatal("empty generated trace id")
	}
	ctx := NewContext(context.Background(), tr)
	ctx, root := StartSpan(ctx, "http POST /x", String("method", "POST"))
	ctx2, child := StartSpan(ctx, "kernel pagerank")
	_, grand := StartSpan(ctx2, "inner")
	grand.End()
	child.SetAttr("iters", "20")
	child.End()
	root.End()
	tr.Finish()

	info := tr.Snapshot()
	if len(info.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(info.Spans))
	}
	if info.Spans[1].Parent != "http POST /x" || info.Spans[2].Parent != "kernel pagerank" {
		t.Fatalf("parents wrong: %+v", info.Spans)
	}
	if info.Open {
		t.Fatal("finished trace reported open")
	}
	// The snapshot is JSON-serializable for /debug/traces.
	if _, err := json.Marshal(info); err != nil {
		t.Fatal(err)
	}
}

func TestTraceIDAdoptionAndSanitization(t *testing.T) {
	tracer := NewTracer(TracerOptions{})
	if got := tracer.Start("client-id-123").ID(); got != "client-id-123" {
		t.Fatalf("valid client id not adopted: %q", got)
	}
	for _, bad := range []string{"has space", "quo\"te", strings.Repeat("x", 65), "ctrl\x01"} {
		if got := tracer.Start(bad).ID(); got == bad {
			t.Errorf("invalid client id %q adopted", bad)
		}
	}
}

func TestTracerRingBounded(t *testing.T) {
	tracer := NewTracer(TracerOptions{Capacity: 3})
	var ids []string
	for i := 0; i < 5; i++ {
		tr := tracer.Start("")
		ids = append(ids, tr.ID())
		tr.Finish()
	}
	got := tracer.Traces(0)
	if len(got) != 3 {
		t.Fatalf("ring holds %d, want 3", len(got))
	}
	// Newest first; the two oldest fell off.
	if got[0].ID != ids[4] || got[2].ID != ids[2] {
		t.Fatalf("ring order wrong: %v vs submitted %v", got, ids)
	}
	if _, ok := tracer.Get(ids[0]); ok {
		t.Fatal("evicted trace still retrievable")
	}
	if _, ok := tracer.Get(ids[4]); !ok {
		t.Fatal("newest trace not retrievable")
	}
	if tracer.Started() != 5 {
		t.Fatalf("started = %d, want 5", tracer.Started())
	}
	if limited := tracer.Traces(2); len(limited) != 2 {
		t.Fatalf("limit ignored: %d", len(limited))
	}
}

// TestTraceEvictionDuringCaptureRace: traces finishing (evicting ring
// entries, mutating spans) while Traces and Get snapshot the ring must
// never tear. Run under -race in CI.
func TestTraceEvictionDuringCaptureRace(t *testing.T) {
	tracer := NewTracer(TracerOptions{Capacity: 3})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			tr := tracer.Start("churn")
			sp := tr.startSpan("work", "", String("i", fmt.Sprint(i)))
			sp.SetAttr("k", "v")
			sp.End()
			tr.Finish()
		}
	}()
	for churning := true; churning; {
		select {
		case <-done:
			churning = false
		default:
		}
		for _, ti := range tracer.Traces(0) {
			if ti.ID == "" {
				t.Fatalf("torn trace snapshot: %+v", ti)
			}
		}
		if ti, ok := tracer.Get("churn"); ok && len(ti.Spans) != 1 {
			t.Fatalf("torn churn trace: %+v", ti)
		}
	}
}

// TestGetReturnsNewestOfRepeatedID: client-proposed X-Trace-Id values can
// repeat, and Get must agree with Traces, which lists the newest first.
func TestGetReturnsNewestOfRepeatedID(t *testing.T) {
	tracer := NewTracer(TracerOptions{Capacity: 4})
	for _, name := range []string{"first", "second"} {
		tr := tracer.Start("same")
		tr.startSpan(name, "").End()
		tr.Finish()
	}
	got, ok := tracer.Get("same")
	if !ok || len(got.Spans) != 1 || got.Spans[0].Name != "second" {
		t.Fatalf("Get(same) = %+v, want the newer trace (span %q)", got, "second")
	}
	if listed := tracer.Traces(1)[0]; listed.Start != got.Start {
		t.Fatalf("Get and Traces disagree on the newest: %s vs %s", got.Start, listed.Start)
	}
}

func TestNilTraceIsInert(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "anything")
	if sp != nil || ctx2 != ctx {
		t.Fatal("span on traceless context must be nil and leave ctx unchanged")
	}
	sp.SetAttr("k", "v") // must not panic
	sp.End()             // must not panic
	if FromContext(ctx) != nil {
		t.Fatal("FromContext on empty ctx")
	}
}

func TestAccessAndSlowLog(t *testing.T) {
	var buf bytes.Buffer
	lg := slog.New(slog.NewJSONHandler(&buf, nil))
	tracer := NewTracer(TracerOptions{Logger: lg, SlowThreshold: time.Nanosecond})
	tr := tracer.Start("")
	_, sp := StartSpan(NewContext(context.Background(), tr), "http GET /stats", String("route", "GET /stats"))
	time.Sleep(time.Millisecond)
	sp.End()
	tr.Finish()
	out := buf.String()
	if !strings.Contains(out, `"msg":"request"`) {
		t.Fatalf("missing access-log record:\n%s", out)
	}
	if !strings.Contains(out, `"msg":"slow request"`) {
		t.Fatalf("missing slow-query record at 1ns threshold:\n%s", out)
	}
	if !strings.Contains(out, tr.ID()) {
		t.Fatalf("trace id missing from log:\n%s", out)
	}

	// Threshold gating: a generous threshold logs access only.
	buf.Reset()
	tracer2 := NewTracer(TracerOptions{Logger: lg, SlowThreshold: time.Hour})
	tr2 := tracer2.Start("")
	tr2.Finish()
	if strings.Contains(buf.String(), "slow request") {
		t.Fatalf("slow log fired under threshold:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `"msg":"request"`) {
		t.Fatalf("access log missing:\n%s", buf.String())
	}
}

func TestFinishIdempotentAndLateSpans(t *testing.T) {
	tracer := NewTracer(TracerOptions{Capacity: 2})
	tr := tracer.Start("")
	tr.Finish()
	tr.Finish() // idempotent: must not double-insert
	if got := len(tracer.Traces(0)); got != 1 {
		t.Fatalf("double finish duplicated ring entry: %d", got)
	}
	// A span started after Finish (late job completion) still lands on
	// the ringed trace.
	sp := tr.startSpan("late kernel", "")
	sp.End()
	info, ok := tracer.Get(tr.ID())
	if !ok || len(info.Spans) != 1 || info.Spans[0].Name != "late kernel" {
		t.Fatalf("late span lost: %+v", info)
	}
}

package jobs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// gatedEngine builds a 1-worker engine whose first job blocks on the
// returned release func, so tests can stage a known queue before any
// dequeue happens.
func gatedEngine(t *testing.T) (*Engine, func()) {
	t.Helper()
	e := NewEngine(Options{Workers: 1, QueueDepth: 64})
	t.Cleanup(e.Close)
	gate := make(chan struct{})
	_, _, err := e.Submit(Request{
		Key: testKey("gate", 1, "block", "{}"),
		Pin: true,
		Run: func(ctx context.Context) (any, error) {
			select {
			case <-gate:
				return nil, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatalf("gate submit: %v", err)
	}
	// Wait until the worker is occupied so staged submissions queue.
	deadline := time.Now().Add(5 * time.Second)
	for e.runningG.Int() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("gate job never started")
		}
		time.Sleep(time.Millisecond)
	}
	var once sync.Once
	return e, func() { once.Do(func() { close(gate) }) }
}

// TestDequeueIsFIFO stages eight jobs behind a blocked worker and asserts
// they run in submission order, and that a dedup attach to a job in the
// middle of the queue leaves it where it is.
func TestDequeueIsFIFO(t *testing.T) {
	e, release := gatedEngine(t)

	var mu sync.Mutex
	var order []string
	var staged []*Job
	var want []string
	for i := 1; i <= 8; i++ {
		name := fmt.Sprintf("j%d", i)
		j, isNew, err := e.Submit(Request{
			Key: testKey("g", 1, name, "{}"),
			Pin: true,
			Run: func(ctx context.Context) (any, error) {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
				return nil, nil
			},
		})
		if err != nil || !isNew {
			t.Fatalf("submit %s: isNew=%v err=%v", name, isNew, err)
		}
		staged = append(staged, j)
		want = append(want, name)
	}
	// An identical submission of j6 attaches to the queued job.
	j, isNew, err := e.Submit(Request{
		Key: testKey("g", 1, "j6", "{}"),
		Pin: true,
		Run: func(ctx context.Context) (any, error) { return nil, nil },
	})
	if err != nil || isNew || j != staged[5] {
		t.Fatalf("dedup attach: isNew=%v err=%v same=%v", isNew, err, j == staged[5])
	}
	release()
	for _, j := range staged {
		<-j.Done()
	}

	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("dequeue order %v, want %v", order, want)
	}
}

// TestRetryAfterHint: no history yields the conservative default; a fast
// drain history yields a small bounded hint.
func TestRetryAfterHint(t *testing.T) {
	e := NewEngine(Options{Workers: 1, QueueDepth: 4})
	defer e.Close()

	if got := e.RetryAfterHint(); got != retryAfterDefault {
		t.Fatalf("empty-history hint = %d, want default %d", got, retryAfterDefault)
	}
	for i := 0; i < 8; i++ {
		j, _, err := e.Submit(Request{
			Key: testKey("g", 1, fmt.Sprintf("fast%d", i), "{}"), Pin: true,
			Run: func(ctx context.Context) (any, error) { return nil, nil },
		})
		if err != nil {
			t.Fatalf("fast%d: %v", i, err)
		}
		<-j.Done()
	}
	got := e.RetryAfterHint()
	if got < retryAfterFloor || got > retryAfterCeil {
		t.Fatalf("hint %d outside [%d,%d]", got, retryAfterFloor, retryAfterCeil)
	}
	// 8 drains in well under a second against an empty queue: the floor.
	if got != retryAfterFloor {
		t.Fatalf("fast-drain hint = %d, want floor %d", got, retryAfterFloor)
	}
}

package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testKey(graph string, version uint64, alg, params string) Key {
	return Key{Graph: graph, Version: version, Algorithm: alg, Params: params}
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s: state %s, want %s", j.ID(), j.State(), want)
}

func TestSubmitRunsToDone(t *testing.T) {
	e := NewEngine(Options{Workers: 2})
	defer e.Close()

	j, isNew, err := e.Submit(Request{
		Key: testKey("g", 1, "alg", "{}"),
		Run: func(ctx context.Context) (any, error) { return 42, nil },
	})
	if err != nil || !isNew {
		t.Fatalf("Submit: isNew=%v err=%v", isNew, err)
	}
	<-j.Done()
	if st := j.State(); st != StateDone {
		t.Fatalf("state = %s, want done", st)
	}
	v, ok := j.Result()
	if !ok || v.(int) != 42 {
		t.Fatalf("result = %v ok=%v", v, ok)
	}
	in := j.Info()
	if in.State != StateDone || in.CacheHit || in.Graph != "g" || in.GraphVersion != 1 {
		t.Fatalf("info = %+v", in)
	}
}

func TestFailedJob(t *testing.T) {
	e := NewEngine(Options{Workers: 1})
	defer e.Close()

	boom := errors.New("boom")
	j, _, err := e.Submit(Request{
		Key: testKey("g", 1, "alg", "{}"),
		Run: func(ctx context.Context) (any, error) { return nil, boom },
	})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if j.State() != StateFailed || !errors.Is(j.Err(), boom) {
		t.Fatalf("state=%s err=%v", j.State(), j.Err())
	}
	// Failures are not cached: a resubmission runs again.
	_, isNew, err := e.Submit(Request{
		Key: testKey("g", 1, "alg", "{}"),
		Run: func(ctx context.Context) (any, error) { return 1, nil },
	})
	if err != nil || !isNew {
		t.Fatalf("resubmit after failure: isNew=%v err=%v", isNew, err)
	}
}

func TestCancelRunningJobReleasesOnDone(t *testing.T) {
	e := NewEngine(Options{Workers: 1})
	defer e.Close()

	started := make(chan struct{})
	var released atomic.Bool
	j, _, err := e.Submit(Request{
		Key:    testKey("g", 1, "slow", "{}"),
		OnDone: func() { released.Store(true) },
		Run: func(ctx context.Context) (any, error) {
			close(started)
			<-ctx.Done() // a well-behaved algorithm loop observes this
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := e.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateCancelled)
	if !errors.Is(j.Err(), context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", j.Err())
	}
	if !released.Load() {
		t.Fatal("OnDone not called on cancellation")
	}
	if n := e.cancelled.Int(); n != 1 {
		t.Fatalf("cancelled counter = %d", n)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	e := NewEngine(Options{Workers: 1, QueueDepth: 4})
	defer e.Close()

	// Occupy the only worker.
	block := make(chan struct{})
	busy, _, err := e.Submit(Request{
		Key: testKey("g", 1, "busy", "{}"),
		Run: func(ctx context.Context) (any, error) { <-block; return nil, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	var released atomic.Bool
	queued, _, err := e.Submit(Request{
		Key:    testKey("g", 1, "queued", "{}"),
		OnDone: func() { released.Store(true) },
		Run:    func(ctx context.Context) (any, error) { return nil, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	if queued.State() != StateCancelled {
		t.Fatalf("queued job state = %s, want cancelled immediately", queued.State())
	}
	if !released.Load() {
		t.Fatal("OnDone not called for job cancelled while queued")
	}
	close(block)
	<-busy.Done()
	// The worker must skip the cancelled record, not re-run it.
	if queued.State() != StateCancelled {
		t.Fatalf("state flipped to %s after worker drain", queued.State())
	}
}

func TestDeadline(t *testing.T) {
	e := NewEngine(Options{Workers: 1})
	defer e.Close()

	j, _, err := e.Submit(Request{
		Key:     testKey("g", 1, "slow", "{}"),
		Timeout: 10 * time.Millisecond,
		Run: func(ctx context.Context) (any, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if j.State() != StateFailed || !errors.Is(j.Err(), context.DeadlineExceeded) {
		t.Fatalf("state=%s err=%v, want failed/deadline", j.State(), j.Err())
	}
}

func TestDedupSingleFlight(t *testing.T) {
	e := NewEngine(Options{Workers: 2})
	defer e.Close()

	var runs atomic.Int64
	release := make(chan struct{})
	key := testKey("g", 1, "alg", `{"x":1}`)
	run := func(ctx context.Context) (any, error) {
		runs.Add(1)
		<-release
		return "v", nil
	}
	first, isNew, err := e.Submit(Request{Key: key, Run: run})
	if err != nil || !isNew {
		t.Fatalf("first: isNew=%v err=%v", isNew, err)
	}
	var dupDone atomic.Bool
	dup, isNew, err := e.Submit(Request{Key: key, Run: run, OnDone: func() { dupDone.Store(true) }})
	if err != nil || isNew {
		t.Fatalf("dup: isNew=%v err=%v", isNew, err)
	}
	if dup != first {
		t.Fatal("dedup returned a different job")
	}
	if !dupDone.Load() {
		t.Fatal("attaching submission's OnDone must fire immediately")
	}
	close(release)
	<-first.Done()
	if n := runs.Load(); n != 1 {
		t.Fatalf("runs = %d, want 1", n)
	}
	if n := e.dedupHits.Int(); n != 1 {
		t.Fatalf("dedup_hits = %d", n)
	}

	// After completion the same key is a cache hit: no new computation,
	// a fresh done job record carrying the result.
	hit, isNew, err := e.Submit(Request{Key: key, Run: run})
	if err != nil || isNew {
		t.Fatalf("cache hit: isNew=%v err=%v", isNew, err)
	}
	if hit.ID() == first.ID() {
		t.Fatal("cache hit should mint a new job record")
	}
	v, ok := hit.Result()
	if !ok || v.(string) != "v" || !hit.Info().CacheHit {
		t.Fatalf("cached result = %v ok=%v info=%+v", v, ok, hit.Info())
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("runs after cache hit = %d, want 1", n)
	}
	if n := e.cacheHits.Int(); n != 1 {
		t.Fatalf("cache_hits = %d", n)
	}

	// A different version of the same graph misses.
	_, isNew, err = e.Submit(Request{Key: testKey("g", 2, "alg", `{"x":1}`), Run: func(ctx context.Context) (any, error) { return "v2", nil }})
	if err != nil || !isNew {
		t.Fatalf("new version: isNew=%v err=%v", isNew, err)
	}
}

func TestResultTTLExpiry(t *testing.T) {
	e := NewEngine(Options{Workers: 1, ResultTTL: 20 * time.Millisecond})
	defer e.Close()

	key := testKey("g", 1, "alg", "{}")
	var runs atomic.Int64
	run := func(ctx context.Context) (any, error) { runs.Add(1); return 1, nil }
	j, _, _ := e.Submit(Request{Key: key, Run: run})
	<-j.Done()
	time.Sleep(40 * time.Millisecond)
	_, isNew, err := e.Submit(Request{Key: key, Run: run})
	if err != nil || !isNew {
		t.Fatalf("expired entry should recompute: isNew=%v err=%v", isNew, err)
	}
}

// compute submits key and waits for it to finish; want says whether the
// submission must schedule a new computation (false: a cache hit).
func compute(t *testing.T, e *Engine, key Key, want bool) {
	t.Helper()
	j, isNew, err := e.Submit(Request{Key: key, Pin: true, Run: func(context.Context) (any, error) { return key.Graph, nil }})
	if err != nil || isNew != want {
		t.Fatalf("%s: isNew=%v err=%v, want isNew=%v", key, isNew, err, want)
	}
	<-j.Done()
}

func cachedResults(e *Engine) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cached.Len()
}

func TestCacheLRUBound(t *testing.T) {
	e := NewEngine(Options{Workers: 1, MaxCachedResults: 2, ResultTTL: time.Hour})
	defer e.Close()
	a, b, c := testKey("a", 1, "x", ""), testKey("b", 1, "x", ""), testKey("c", 1, "x", "")
	compute(t, e, a, true)
	compute(t, e, b, true)
	compute(t, e, a, false) // the hit makes a most recently used
	compute(t, e, c, true)  // evicts b
	if n := cachedResults(e); n != 2 {
		t.Fatalf("cached results = %d, want 2", n)
	}
	compute(t, e, a, false)
	compute(t, e, b, true)
	if n := e.cacheHits.Int(); n != 2 {
		t.Fatalf("cache_hits = %d, want 2", n)
	}
}

func TestInvalidateGraph(t *testing.T) {
	e := NewEngine(Options{Workers: 1, MaxCachedResults: 8, ResultTTL: time.Hour})
	defer e.Close()
	a1, a2, b1 := testKey("a", 1, "x", ""), testKey("a", 2, "y", ""), testKey("b", 1, "x", "")
	for _, k := range []Key{a1, a2, b1} {
		compute(t, e, k, true)
	}
	if n := e.InvalidateGraph("a"); n != 2 {
		t.Fatalf("invalidated %d, want 2", n)
	}
	if n := cachedResults(e); n != 1 {
		t.Fatalf("cached results = %d, want 1", n)
	}
	compute(t, e, b1, false) // b survives invalidation of a
	compute(t, e, a1, true)
	compute(t, e, a2, true)
}

// TestInvalidateGraphDropsInFlightResults: jobs on a graph that is
// invalidated while one runs and one waits behind it finish without
// caching their results, so nothing outlives the graph and a
// resubmission computes afresh.
func TestInvalidateGraphDropsInFlightResults(t *testing.T) {
	e := NewEngine(Options{Workers: 1, ResultTTL: time.Hour})
	defer e.Close()
	release := make(chan struct{})
	run := func(context.Context) (any, error) { <-release; return 1, nil }
	running, queued := testKey("g", 1, "x", ""), testKey("g", 1, "y", "")
	j1, _, err := e.Submit(Request{Key: running, Pin: true, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, StateRunning)
	j2, _, err := e.Submit(Request{Key: queued, Pin: true, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	if n := e.InvalidateGraph("g"); n != 0 {
		t.Fatalf("invalidated %d cached results, want 0", n)
	}
	close(release)
	<-j1.Done()
	<-j2.Done()
	if j1.State() != StateDone || j2.State() != StateDone {
		t.Fatalf("states %s, %s; want done", j1.State(), j2.State())
	}
	if n := cachedResults(e); n != 0 {
		t.Fatalf("cached results = %d, want 0", n)
	}
	compute(t, e, running, true)
	compute(t, e, queued, true)
	compute(t, e, running, false) // a job started after the invalidation caches
}

func TestQueueFull(t *testing.T) {
	e := NewEngine(Options{Workers: 1, QueueDepth: 1})
	defer e.Close()

	block := make(chan struct{})
	defer close(block)
	slow := func(ctx context.Context) (any, error) { <-block; return nil, nil }
	if _, _, err := e.Submit(Request{Key: testKey("g", 1, "a", ""), Run: slow}); err != nil {
		t.Fatal(err)
	}
	// Wait until the worker picked up the first job so the single queue
	// slot is deterministically free for the second.
	deadline := time.Now().Add(5 * time.Second)
	for e.runningG.Int() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, _, err := e.Submit(Request{Key: testKey("g", 1, "b", ""), Run: slow}); err != nil {
		t.Fatal(err)
	}
	_, _, err := e.Submit(Request{Key: testKey("g", 1, "c", ""), Run: slow})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}

func TestWaitOrAbandonCancelsSoleWaiter(t *testing.T) {
	e := NewEngine(Options{Workers: 1})
	defer e.Close()

	started := make(chan struct{})
	j, _, err := e.Submit(Request{
		Key: testKey("g", 1, "slow", ""),
		Run: func(ctx context.Context) (any, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	if done := e.WaitOrAbandon(ctx, j); done {
		t.Fatal("wait should have been abandoned")
	}
	waitState(t, j, StateCancelled)
}

func TestWaitOrAbandonKeepsPinnedJob(t *testing.T) {
	e := NewEngine(Options{Workers: 1})
	defer e.Close()

	release := make(chan struct{})
	j, _, err := e.Submit(Request{
		Key: testKey("g", 1, "slow", ""),
		Pin: true, // an async client still intends to poll
		Run: func(ctx context.Context) (any, error) {
			select {
			case <-release:
				return "ok", nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if done := e.WaitOrAbandon(ctx, j); done {
		t.Fatal("wait should have timed out")
	}
	close(release)
	waitState(t, j, StateDone)
}

func TestWaitOrAbandonSecondWaiterKeepsJob(t *testing.T) {
	e := NewEngine(Options{Workers: 1})
	defer e.Close()

	release := make(chan struct{})
	run := func(ctx context.Context) (any, error) {
		select {
		case <-release:
			return "ok", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	key := testKey("g", 1, "slow", "")
	first, _, err := e.Submit(Request{Key: key, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	// A second synchronous client submits the identical request: the
	// dedup attach registers its waiter atomically with Submit, so the
	// first client abandoning — even before the second ever calls
	// WaitOrAbandon — must not cancel the job (the race the registration
	// ordering exists to close).
	second, isNew, err := e.Submit(Request{Key: key, Run: run})
	if err != nil || isNew || second != first {
		t.Fatalf("dedup: isNew=%v err=%v", isNew, err)
	}
	abandoned, cancel := context.WithCancel(context.Background())
	cancel()
	e.WaitOrAbandon(abandoned, first)
	if first.State() == StateCancelled {
		t.Fatal("job cancelled while a dedup-attached waiter had not yet waited")
	}
	done := make(chan bool, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		done <- e.WaitOrAbandon(context.Background(), second)
	}()
	close(release)
	wg.Wait()
	if !<-done {
		t.Fatal("surviving waiter should observe completion")
	}
	if first.State() != StateDone {
		t.Fatalf("state = %s", first.State())
	}
}

// TestDedupAttachWidensQueuedDeadline: attaching a more patient request
// to a still-queued job relaxes its deadline.
func TestDedupAttachWidensQueuedDeadline(t *testing.T) {
	e := NewEngine(Options{Workers: 1, QueueDepth: 4})
	defer e.Close()

	// Occupy the worker so the interesting job stays queued.
	block := make(chan struct{})
	defer close(block)
	if _, _, err := e.Submit(Request{
		Key: testKey("g", 1, "busy", ""),
		Run: func(ctx context.Context) (any, error) { <-block; return nil, nil },
	}); err != nil {
		t.Fatal(err)
	}
	key := testKey("g", 1, "slow", "")
	sleeper := func(ctx context.Context) (any, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(200 * time.Millisecond):
			return "ok", nil
		}
	}
	j, _, err := e.Submit(Request{Key: key, Pin: true, Timeout: 10 * time.Millisecond, Run: sleeper})
	if err != nil {
		t.Fatal(err)
	}
	if _, isNew, err := e.Submit(Request{Key: key, Pin: true, Timeout: 5 * time.Second, Run: sleeper}); err != nil || isNew {
		t.Fatalf("attach: isNew=%v err=%v", isNew, err)
	}
	// Free the worker; the queued job now runs under the widened
	// deadline and needs 200ms — far past the original 10ms.
	block <- struct{}{}
	<-j.Done()
	if j.State() != StateDone {
		t.Fatalf("state = %s err = %v; the widened deadline should outlast the run", j.State(), j.Err())
	}
}

func TestCloseCancelsRunningAndQueued(t *testing.T) {
	e := NewEngine(Options{Workers: 1, QueueDepth: 4})

	started := make(chan struct{})
	running, _, err := e.Submit(Request{
		Key: testKey("g", 1, "run", ""),
		Run: func(ctx context.Context) (any, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, _, err := e.Submit(Request{
		Key: testKey("g", 1, "wait", ""),
		Run: func(ctx context.Context) (any, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if running.State() != StateCancelled {
		t.Fatalf("running job state = %s", running.State())
	}
	if st := queued.State(); st != StateCancelled {
		t.Fatalf("queued job state = %s", st)
	}
	if _, _, err := e.Submit(Request{Key: testKey("g", 1, "x", ""), Run: func(ctx context.Context) (any, error) { return nil, nil }}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}

func TestJobRetentionPrunesTerminal(t *testing.T) {
	e := NewEngine(Options{Workers: 2, MaxJobs: 4})
	defer e.Close()

	for i := 0; i < 10; i++ {
		j, _, err := e.Submit(Request{
			Key: testKey("g", 1, fmt.Sprintf("alg%d", i), ""),
			Run: func(ctx context.Context) (any, error) { return i, nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
	}
	if n := len(e.List()); n > 5 { // bound + at most the in-flight one
		t.Fatalf("retained %d job records, want <= 5", n)
	}
}

// TestJobRetentionPruneOrder: beyond MaxJobs the oldest cache-hit record
// goes first, then the oldest terminal record; a running job's record
// stays, whatever its age, until it finishes.
func TestJobRetentionPruneOrder(t *testing.T) {
	e := NewEngine(Options{Workers: 2, MaxJobs: 4, ResultTTL: time.Hour})
	defer e.Close()
	release := make(chan struct{})
	c, _, err := e.Submit(Request{Key: testKey("c", 1, "x", ""), Pin: true, Run: func(context.Context) (any, error) { <-release; return 1, nil }})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, StateRunning)
	a, b, d, f, g := testKey("a", 1, "x", ""), testKey("b", 1, "x", ""), testKey("d", 1, "x", ""), testKey("f", 1, "x", ""), testKey("g", 1, "x", "")
	records := func(want string) {
		t.Helper()
		var got []string
		for _, in := range e.List() {
			name := in.Graph
			if in.CacheHit {
				name = "hit:" + name
			}
			got = append(got, name)
		}
		if fmt.Sprint(got) != want {
			t.Fatalf("records newest first %v, want %s", got, want)
		}
	}
	compute(t, e, a, true)
	compute(t, e, a, false)
	compute(t, e, b, true)
	records("[b hit:a a c]")
	compute(t, e, b, false) // prunes hit:a
	records("[hit:b b a c]")
	compute(t, e, d, true) // prunes hit:b
	compute(t, e, f, true) // no hit left: prunes a, the oldest terminal record
	records("[f d b c]")
	close(release)
	<-c.Done()
	compute(t, e, g, true) // c is terminal now, and the oldest
	records("[g f d b]")
}

// TestConcurrentSubmitters hammers Submit/Cancel/WaitOrAbandon from many
// goroutines; run under -race in CI.
func TestConcurrentSubmitters(t *testing.T) {
	e := NewEngine(Options{Workers: 4, QueueDepth: 256})
	defer e.Close()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				key := testKey("g", uint64(k%3), "alg", fmt.Sprintf(`{"k":%d}`, k%5))
				j, _, err := e.Submit(Request{
					Key: key,
					Pin: i%2 == 0,
					Run: func(ctx context.Context) (any, error) {
						if err := ctx.Err(); err != nil {
							return nil, err
						}
						return k, nil
					},
				})
				if err != nil {
					continue // queue full under burst is fine
				}
				switch k % 3 {
				case 0:
					e.WaitOrAbandon(context.Background(), j)
				case 1:
					ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
					e.WaitOrAbandon(ctx, j)
					cancel()
				case 2:
					e.Cancel(j.ID())
				}
			}
		}(i)
	}
	wg.Wait()
	if n := e.submitted.Int(); n != 8*50 {
		t.Fatalf("submitted = %d", n)
	}
}

// TestVersionInterplayRekeysCacheAndDedup is the streaming-mutation
// contract at the engine level: a graph-version bump (what registry.Swap
// does after a mutation batch) splits the dedup and cache key space. Work
// submitted under the old version keeps serving from its cache entry, the
// first submission under the new version computes fresh, and identical
// new-version resubmissions hit the re-keyed cache.
func TestVersionInterplayRekeysCacheAndDedup(t *testing.T) {
	e := NewEngine(Options{Workers: 2})
	defer e.Close()

	var computes atomic.Int64
	run := func(result string) func(context.Context) (any, error) {
		return func(context.Context) (any, error) {
			computes.Add(1)
			return result, nil
		}
	}

	// v1 computes and caches.
	j1, isNew, err := e.Submit(Request{
		Key: testKey("g", 1, "bfs", "{}"), Pin: true, Run: run("v1-result"),
	})
	if err != nil || !isNew {
		t.Fatalf("v1 submit: new=%v err=%v", isNew, err)
	}
	waitState(t, j1, StateDone)

	// Identical v1 resubmission: cache hit, no compute.
	j1b, isNew, err := e.Submit(Request{
		Key: testKey("g", 1, "bfs", "{}"), Pin: true, Run: run("never"),
	})
	if err != nil || isNew {
		t.Fatalf("v1 resubmit: new=%v err=%v", isNew, err)
	}
	if v, ok := j1b.Result(); !ok || v != "v1-result" {
		t.Fatalf("v1 resubmit result: %v, %v", v, ok)
	}

	// The graph mutates: same name, version 2. The key differs, so this
	// is new work, not a dedup attach or cache hit.
	j2, isNew, err := e.Submit(Request{
		Key: testKey("g", 2, "bfs", "{}"), Pin: true, Run: run("v2-result"),
	})
	if err != nil || !isNew {
		t.Fatalf("v2 submit: new=%v err=%v", isNew, err)
	}
	waitState(t, j2, StateDone)
	if v, _ := j2.Result(); v != "v2-result" {
		t.Fatalf("v2 result: %v", v)
	}

	// Both versions' results now coexist in the cache; each serves its own.
	j2b, _, err := e.Submit(Request{
		Key: testKey("g", 2, "bfs", "{}"), Pin: true, Run: run("never"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := j2b.Result(); v != "v2-result" {
		t.Fatalf("v2 cache: %v", v)
	}
	j1c, _, err := e.Submit(Request{
		Key: testKey("g", 1, "bfs", "{}"), Pin: true, Run: run("never"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := j1c.Result(); v != "v1-result" {
		t.Fatalf("v1 cache after v2: %v", v)
	}

	if got := computes.Load(); got != 2 {
		t.Fatalf("computes = %d, want 2 (one per version)", got)
	}
	if hits, dedup := e.cacheHits.Int(), e.dedupHits.Int(); hits != 3 || dedup != 0 {
		t.Fatalf("cache hits %d (want 3), dedup hits %d (want 0)", hits, dedup)
	}
}

// TestSubmitCacheHitAllocationBudget pins what a cache hit allocates — a
// sync request's Submit plus WaitOrAbandon on a cached key — with the
// record table past MaxJobs, so every hit also prunes a record: the Job
// record, its done channel and its id, and nothing that grows with the
// table.
func TestSubmitCacheHitAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	const maxJobs = 64
	e := NewEngine(Options{Workers: 1, MaxJobs: maxJobs, ResultTTL: time.Hour})
	defer e.Close()
	ctx := context.Background()
	req := Request{Key: testKey("g", 1, "x", ""), Run: func(context.Context) (any, error) { return 1, nil }}
	submit := func() bool {
		j, isNew, err := e.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		e.WaitOrAbandon(ctx, j)
		return isNew
	}
	for range 2 * maxJobs { // one computation, then hits past MaxJobs
		submit()
	}
	const budget = 3
	allocs := testing.AllocsPerRun(1000, func() {
		if submit() {
			t.Fatal("cached key recomputed")
		}
	})
	t.Logf("a cache hit allocates %.1f times", allocs)
	if allocs > budget {
		t.Fatalf("a cache hit allocated %.1f times, budget %d", allocs, budget)
	}
	if n := len(e.List()); n != maxJobs {
		t.Fatalf("%d job records retained, want %d", n, maxJobs)
	}
}

// TestColdDispatchAllocationBudget pins what a cold dispatch allocates —
// Submit of a key the engine has not seen, an empty job run on a worker
// (context, result caching, LRU element) and WaitOrAbandon until it is
// done — with the record table and the result cache at their bounds, so
// every dispatch also prunes a record and evicts a result. This is the
// path bench/e2e's jobs.dispatch_us times.
func TestColdDispatchAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	const bound, runs = 64, 500
	e := NewEngine(Options{Workers: 1, MaxJobs: bound, MaxCachedResults: bound, ResultTTL: time.Hour})
	defer e.Close()
	ctx := context.Background()
	run := func(context.Context) (any, error) { return nil, nil }
	keys := make([]Key, 2*bound+runs+1) // AllocsPerRun calls once more to warm up
	for k := range keys {
		keys[k] = testKey("g", 1, "x", fmt.Sprint(k))
	}
	next := 0
	dispatch := func() {
		j, isNew, err := e.Submit(Request{Key: keys[next], Run: run})
		next++
		if err != nil || !isNew {
			t.Fatalf("cold submission: isNew %v, err %v", isNew, err)
		}
		e.WaitOrAbandon(ctx, j)
	}
	for range 2 * bound { // past both bounds
		dispatch()
	}
	const budget = 6
	allocs := testing.AllocsPerRun(runs, dispatch)
	t.Logf("a cold dispatch allocates %.1f times", allocs)
	if allocs > budget {
		t.Fatalf("a cold dispatch allocated %.1f times, budget %d", allocs, budget)
	}
}

// BenchmarkSubmitHitFullTable: a cache hit on an engine that already holds
// MaxJobs records, so every submission prunes one; its cost must not grow
// with MaxJobs.
func BenchmarkSubmitHitFullTable(b *testing.B) {
	for _, maxJobs := range []int{1024, 16384} {
		b.Run(fmt.Sprintf("MaxJobs=%d", maxJobs), func(b *testing.B) {
			e := NewEngine(Options{Workers: 1, MaxJobs: maxJobs, ResultTTL: time.Hour})
			defer e.Close()
			req := Request{Key: testKey("g", 1, "x", ""), Pin: true, Run: func(context.Context) (any, error) { return 1, nil }}
			j, _, err := e.Submit(req)
			if err != nil {
				b.Fatal(err)
			}
			<-j.Done()
			for range maxJobs {
				e.Submit(req)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, isNew, err := e.Submit(req); isNew || err != nil {
					b.Fatalf("isNew=%v err=%v, want a cache hit", isNew, err)
				}
			}
		})
	}
}

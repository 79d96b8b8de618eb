// Package jobs is the asynchronous execution engine behind lagraphd's
// algorithm endpoints: a worker pool running cancellable jobs whose
// results are cached by graph version.
//
// A job moves queued → running → done | failed | cancelled. Each running
// job gets its own context (derived from the engine's, with an optional
// per-job deadline), so DELETE /jobs/{id} — or the engine shutting down —
// actually stops the underlying computation, provided the work function
// checks its context (the internal/lagraph iteration loops do, once per
// iteration).
//
// One table holds the newest job for each Key (graph, graph version,
// algorithm, params). While that job is queued or running, an identical
// submission attaches to it instead of spawning a second computation
// (single flight); once it is done, an identical submission is a cache
// hit until ResultTTL expires. Done jobs sit on one LRU list bounded by
// MaxCachedResults. Failed and cancelled jobs leave the table, so the
// next submission computes afresh. Because the key carries the
// registry's per-graph version, replacing a graph under the same name can
// never serve a stale result.
//
// New jobs wait in one FIFO queue and workers take them in submission
// order; a dedup attach leaves the job where it is. Once QueueDepth jobs
// are waiting, Submit fails with ErrQueueFull, and RetryAfterHint derives
// a client back-off from the recent drain rate — the Retry-After header
// on the HTTP layer's 429s.
package jobs

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"lagraph/internal/obs"
)

// State is a job's position in its lifecycle.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Key identifies a computation for deduplication and result caching. Two
// submissions with equal keys are the same work; Version ties the key to
// one loaded incarnation of the graph, so cache entries die with it.
type Key struct {
	Graph     string
	Version   uint64
	Algorithm string
	Params    string // canonical (JSON) encoding of the parameters
}

func (k Key) String() string {
	return fmt.Sprintf("%s@v%d/%s?%s", k.Graph, k.Version, k.Algorithm, k.Params)
}

// Request describes one submission.
type Request struct {
	Key Key

	// Run performs the computation. It must honor ctx: return ctx.Err()
	// promptly once the context is cancelled.
	Run func(ctx context.Context) (any, error)

	// OnDone, if non-nil, is called exactly once when the job reaches a
	// terminal state — whether it ran, failed, or was cancelled while
	// still queued. Submissions that attach to an existing job (dedup or
	// cache hit) have their OnDone invoked before Submit returns. When
	// Submit returns an error, OnDone is NOT called; the caller keeps
	// ownership of whatever it guards (typically a registry lease).
	OnDone func()

	// Timeout bounds the job's run time (0 = Options.DefaultTimeout;
	// negative = no deadline even if the engine has a default).
	Timeout time.Duration

	// Pin marks the submission asynchronous: the client intends to poll,
	// so the job must survive even with no waiter attached. An unpinned
	// (synchronous) submission registers the caller as a waiter on the
	// job — atomically with the dedup attach, so no window exists in
	// which another waiter's abandonment can cancel it — and the caller
	// must balance the registration with exactly one WaitOrAbandon call.
	// A job whose last waiter abandons it, and which no asynchronous
	// submission pinned, is cancelled: a disconnected HTTP client
	// reclaims its worker.
	Pin bool
}

// Engine errors.
var (
	ErrClosed    = errors.New("jobs: engine closed")
	ErrQueueFull = errors.New("jobs: queue full")
	ErrNotFound  = errors.New("jobs: job not found")
)

// Options configures an Engine.
type Options struct {
	// Workers is the worker-pool size. <= 0 means 2.
	Workers int
	// QueueDepth bounds jobs waiting for a worker. <= 0 means 64.
	QueueDepth int
	// DefaultTimeout applies to jobs that do not set one (0 = none).
	DefaultTimeout time.Duration
	// ResultTTL is how long completed results stay cached. <= 0 means
	// 5 minutes.
	ResultTTL time.Duration
	// MaxCachedResults bounds how many done jobs the key table keeps as
	// cache entries (least recently used go first, after expired ones).
	// <= 0 means 256. The bound is an entry count, not bytes — results
	// are opaque to the engine — so operators serving very large
	// responses should size this (and ResultTTL) accordingly.
	MaxCachedResults int
	// MaxJobs bounds retained job records; the oldest terminal jobs are
	// pruned beyond it. <= 0 means 1024.
	MaxJobs int
	// Obs is the metrics registry the engine's counters live in; each is
	// defined once there, and /metrics (and /stats, its JSON view) read
	// them from it. Nil selects a private registry (the instruments still
	// work; they are simply not scraped).
	Obs *obs.Registry
}

func (o *Options) fill() {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.ResultTTL <= 0 {
		o.ResultTTL = 5 * time.Minute
	}
	if o.MaxCachedResults <= 0 {
		o.MaxCachedResults = 256
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 1024
	}
	if o.Obs == nil {
		o.Obs = obs.NewRegistry()
	}
}

// Job is one tracked computation. All mutable fields are guarded by the
// engine's mutex; read them through Info / State / Err / Result.
type Job struct {
	e   *Engine
	id  string
	key Key

	state    State
	err      error
	result   any
	cacheHit bool

	submitted time.Time
	started   time.Time
	finished  time.Time

	timeout time.Duration
	run     func(ctx context.Context) (any, error)
	cancel  context.CancelFunc // set while running
	onDone  func()
	lru     *list.Element // set while the result is cached
	stale   bool          // its graph was invalidated while it was in flight: never cached
	seq     int64         // submission order; the number in id

	pinned  bool
	waiters int

	done chan struct{} // closed on terminal transition
}

// ID returns the job's engine-unique id.
func (j *Job) ID() string { return j.id }

// Key returns the job's dedup/cache key.
func (j *Job) Key() Key { return j.key }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current state.
func (j *Job) State() State {
	j.e.mu.Lock()
	defer j.e.mu.Unlock()
	return j.state
}

// Err returns the terminal error (nil unless failed or cancelled).
func (j *Job) Err() error {
	j.e.mu.Lock()
	defer j.e.mu.Unlock()
	return j.err
}

// Result returns the computation's value; ok is false unless the job is
// done. The value is shared between deduplicated submissions and cache
// hits — treat it as immutable.
func (j *Job) Result() (v any, ok bool) {
	j.e.mu.Lock()
	defer j.e.mu.Unlock()
	if j.state != StateDone {
		return nil, false
	}
	return j.result, true
}

// Info is the JSON-facing snapshot of a job.
type Info struct {
	ID           string  `json:"id"`
	Graph        string  `json:"graph"`
	GraphVersion uint64  `json:"graph_version"`
	Algorithm    string  `json:"algorithm"`
	State        State   `json:"state"`
	CacheHit     bool    `json:"cache_hit"`
	Error        string  `json:"error,omitempty"`
	SubmittedAt  string  `json:"submitted_at"`
	WaitSeconds  float64 `json:"wait_seconds"`
	RunSeconds   float64 `json:"run_seconds,omitempty"`
}

// Info snapshots the job.
func (j *Job) Info() Info {
	j.e.mu.Lock()
	defer j.e.mu.Unlock()
	return j.infoLocked()
}

func (j *Job) infoLocked() Info {
	in := Info{
		ID:           j.id,
		Graph:        j.key.Graph,
		GraphVersion: j.key.Version,
		Algorithm:    j.key.Algorithm,
		State:        j.state,
		CacheHit:     j.cacheHit,
		SubmittedAt:  j.submitted.UTC().Format(time.RFC3339Nano),
	}
	if j.err != nil {
		in.Error = j.err.Error()
	}
	switch {
	case !j.started.IsZero():
		in.WaitSeconds = j.started.Sub(j.submitted).Seconds()
	case j.state.Terminal():
		in.WaitSeconds = j.finished.Sub(j.submitted).Seconds()
	default:
		in.WaitSeconds = time.Since(j.submitted).Seconds()
	}
	if !j.started.IsZero() && !j.finished.IsZero() {
		in.RunSeconds = j.finished.Sub(j.started).Seconds()
	}
	return in
}

// drainRingSize bounds the dequeue-timestamp ring behind RetryAfterHint.
const drainRingSize = 64

// Engine is the worker-pool job engine.
type Engine struct {
	opts Options

	mu     sync.Mutex
	closed bool
	jobs   map[string]*Job
	nextID int64

	// The retained records in submission order, for pruning: cache-hit
	// records (always terminal, pruned first) and all others.
	hitRecords, runRecords recordQueue

	// byKey holds the newest job for each Key: queued or running (an
	// identical submission attaches to it) or done with its result cached
	// (a hit until ResultTTL expires). The done ones are on cached, front
	// = most recently used, at most MaxCachedResults of them.
	byKey  map[Key]*Job
	cached *list.List

	// queue holds the jobs waiting for a worker, oldest first; its length
	// is the saturation bound. Workers park on cond while it is empty.
	queue []*Job
	cond  *sync.Cond

	// drains rings the last dequeue times (a job leaving the queue for a
	// worker, or dying queued) — the denominator of RetryAfterHint.
	drains [drainRingSize]time.Time
	drainN int // total drains ever; ring index = drainN % size
	wg     sync.WaitGroup

	baseCtx    context.Context
	baseCancel context.CancelFunc

	// Engine telemetry, exported through Options.Obs. Gauges are mutated
	// only under e.mu (they mirror queue occupancy); counters are hot-path
	// atomics.
	queuedG   *obs.Gauge
	runningG  *obs.Gauge
	submitted *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
	cancelled *obs.Counter
	dedupHits *obs.Counter
	cacheHits *obs.Counter
	runSecs   *obs.HistogramVec // per-algorithm kernel run duration
	waitSecs  *obs.Histogram    // queue wait before a worker picks up
}

// NewEngine builds and starts an engine.
func NewEngine(opts Options) *Engine {
	opts.fill()
	ctx, cancel := context.WithCancel(context.Background())
	o := opts.Obs
	e := &Engine{
		opts:       opts,
		jobs:       make(map[string]*Job),
		byKey:      make(map[Key]*Job),
		cached:     list.New(),
		baseCtx:    ctx,
		baseCancel: cancel,

		queuedG:   o.Gauge("jobs_queued", "Jobs waiting for a worker."),
		runningG:  o.Gauge("jobs_running", "Jobs currently executing."),
		submitted: o.Counter("jobs_submitted_total", "Job submissions, dedup and cache hits included."),
		completed: o.Counter("jobs_completed_total", "Jobs that finished successfully."),
		failed:    o.Counter("jobs_failed_total", "Jobs that finished with an error."),
		cancelled: o.Counter("jobs_cancelled_total", "Jobs cancelled before completion."),
		dedupHits: o.Counter("jobs_dedup_hits_total", "Submissions attached to an identical in-flight job."),
		cacheHits: o.Counter("jobs_cache_hits_total", "Submissions served from the versioned result cache."),
		runSecs: o.HistogramVec("jobs_run_seconds",
			"Algorithm run duration on a worker, by algorithm.", nil, "algorithm"),
		waitSecs: o.Histogram("jobs_wait_seconds",
			"Time a job spent queued before a worker picked it up.", nil),
	}
	e.cond = sync.NewCond(&e.mu)
	o.GaugeFunc("jobs_cached_results", "Entries in the versioned result cache.",
		func() float64 {
			e.mu.Lock()
			defer e.mu.Unlock()
			return float64(e.cached.Len())
		})
	for i := 0; i < opts.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Close stops the engine: running jobs are cancelled through their
// contexts, queued jobs finish as cancelled, and workers drain. Further
// submissions fail with ErrClosed.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	// Finalize everything still waiting for a worker as cancelled, then
	// wake every parked worker so it observes closed and exits.
	var hooks []func()
	for _, j := range e.queue {
		e.dequeueAccountingLocked()
		hooks = append(hooks, e.finishLocked(j, nil, context.Canceled))
	}
	e.queue = nil
	e.cond.Broadcast()
	e.mu.Unlock()
	runHooks(hooks...)
	e.baseCancel()
	e.wg.Wait()
}

// Submit looks the request's key up in the key table and attaches to a
// queued or running job (dedup), answers from a done one (cache hit), or
// enqueues a new computation. isNew reports whether a new computation was
// scheduled; when false the returned job is an existing in-flight job or
// a fresh already-done record carrying the cached result.
func (e *Engine) Submit(req Request) (j *Job, isNew bool, err error) {
	if req.Run == nil {
		return nil, false, errors.New("jobs: nil Run")
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, false, ErrClosed
	}

	timeout := req.Timeout
	if timeout == 0 {
		timeout = e.opts.DefaultTimeout
	}

	now := time.Now()
	switch cur := e.byKey[req.Key]; {
	case cur == nil:
	case cur.state == StateDone && cur.finished.Before(now.Add(-e.opts.ResultTTL)):
		e.uncacheLocked(cur) // reclaim it and compute afresh
	case cur.state == StateDone:
		// Cache hit: mint a completed job record so async clients get a
		// pollable id with a uniform shape.
		e.cached.MoveToFront(cur.lru)
		e.submitted.Inc()
		e.cacheHits.Inc()
		j = &Job{
			e: e, key: req.Key,
			state: StateDone, result: cur.result, cacheHit: true,
			submitted: now, finished: now,
			done: make(chan struct{}),
		}
		j.id, j.seq = e.newIDLocked()
		close(j.done)
		e.recordLocked(j)
		e.mu.Unlock()
		runHooks(req.OnDone)
		return j, false, nil
	default: // queued or running: single flight
		if req.Pin {
			cur.pinned = true
		} else {
			cur.waiters++ // balanced by the caller's WaitOrAbandon
		}
		// Widen a still-queued job's deadline to the most generous
		// attached request (<= 0 = none). A running job's context is
		// already armed and cannot be extended.
		if cur.state == StateQueued && cur.timeout > 0 && (timeout <= 0 || timeout > cur.timeout) {
			cur.timeout = timeout
		}
		e.submitted.Inc()
		e.dedupHits.Inc()
		e.mu.Unlock()
		runHooks(req.OnDone)
		return cur, false, nil
	}

	if len(e.queue) >= e.opts.QueueDepth {
		e.mu.Unlock()
		return nil, false, fmt.Errorf("%w (depth %d)", ErrQueueFull, e.opts.QueueDepth)
	}

	j = &Job{
		e: e, key: req.Key,
		state:     StateQueued,
		submitted: now,
		timeout:   timeout,
		run:       req.Run,
		onDone:    req.OnDone,
		pinned:    req.Pin,
		done:      make(chan struct{}),
	}
	j.id, j.seq = e.newIDLocked()
	if !req.Pin {
		j.waiters = 1 // the submitting caller; balanced by WaitOrAbandon
	}
	e.submitted.Inc()
	e.recordLocked(j)
	e.byKey[req.Key] = j
	e.queue = append(e.queue, j)
	e.queuedG.Inc()
	e.cond.Signal()
	e.mu.Unlock()
	return j, true, nil
}

// removeQueuedLocked deletes a job from the queue (the queued-cancellation
// path). The caller fixes up the gauges.
func (e *Engine) removeQueuedLocked(j *Job) {
	for i, cur := range e.queue {
		if cur == j {
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			return
		}
	}
}

// dequeueAccountingLocked records a job leaving the queue for any reason:
// the occupancy gauge and the drain ring that feeds RetryAfterHint (either
// exit frees a queue slot, so both count as drain).
func (e *Engine) dequeueAccountingLocked() {
	e.queuedG.Dec()
	e.drains[e.drainN%drainRingSize] = time.Now()
	e.drainN++
}

// newIDLocked mints the next job id and its sequence number.
func (e *Engine) newIDLocked() (string, int64) {
	e.nextID++
	return fmt.Sprintf("j-%06d", e.nextID), e.nextID
}

// recordLocked registers a job and prunes records beyond the retention
// bound: oldest cache-hit records first (each is a mere alias of a cached
// result), then oldest other terminal records — so a polling client's
// real computation is not evicted by a flood of identical resubmissions.
// Each prune costs O(1) amortized: at most the queued and running records
// (QueueDepth + Workers) stand before the oldest terminal one.
func (e *Engine) recordLocked(j *Job) {
	e.jobs[j.id] = j
	if j.cacheHit {
		e.hitRecords.push(j)
	} else {
		e.runRecords.push(j)
	}
	for len(e.jobs) > e.opts.MaxJobs {
		old := e.hitRecords.popTerminal()
		if old == nil {
			old = e.runRecords.popTerminal()
		}
		if old == nil {
			return // every retained record is queued or running
		}
		delete(e.jobs, old.id)
	}
}

// recordQueue is a FIFO of job records, oldest first from head.
type recordQueue struct {
	jobs []*Job
	head int
}

func (q *recordQueue) push(j *Job) {
	if q.head > 0 && q.head >= len(q.jobs)/2 { // reclaim the popped half
		n := copy(q.jobs, q.jobs[q.head:])
		clear(q.jobs[n:])
		q.jobs, q.head = q.jobs[:n], 0
	}
	q.jobs = append(q.jobs, j)
}

// popTerminal removes and returns the oldest terminal record, nil if
// there is none; the non-terminal records before it keep their order.
func (q *recordQueue) popTerminal() *Job {
	for i := q.head; i < len(q.jobs); i++ {
		if j := q.jobs[i]; j.state.Terminal() {
			copy(q.jobs[q.head+1:i+1], q.jobs[q.head:i])
			q.jobs[q.head] = nil
			q.head++
			return j
		}
	}
	return nil
}

// live returns the records still held, oldest first.
func (q *recordQueue) live() []*Job { return q.jobs[q.head:] }

// worker takes the oldest queued job and runs it, until the engine
// closes. Workers park on the engine condvar while the queue is empty and
// are woken by submissions and Close.
func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		e.mu.Lock()
		for len(e.queue) == 0 && !e.closed {
			e.cond.Wait()
		}
		if len(e.queue) == 0 { // closed; Close finalized everything still queued
			e.mu.Unlock()
			return
		}
		j := e.queue[0]
		e.queue[0] = nil
		if len(e.queue) == 1 { // drained: keep the backing array for the next Submit
			e.queue = e.queue[:0]
		} else {
			e.queue = e.queue[1:]
		}
		e.dequeueAccountingLocked()
		// Arm the run context and transition to running under the same
		// lock hold as the dequeue: a queued-state cancel can therefore
		// never race the start.
		var ctx context.Context
		var cancel context.CancelFunc
		if j.timeout > 0 {
			ctx, cancel = context.WithTimeout(e.baseCtx, j.timeout)
		} else {
			ctx, cancel = context.WithCancel(e.baseCtx)
		}
		j.cancel = cancel
		j.state = StateRunning
		j.started = time.Now()
		e.waitSecs.Observe(j.started.Sub(j.submitted).Seconds())
		e.runningG.Inc()
		e.mu.Unlock()

		v, err := j.run(ctx)
		cancel()

		e.mu.Lock()
		j.cancel = nil
		e.runningG.Dec()
		hook := e.finishLocked(j, v, err)
		e.mu.Unlock()
		runHooks(hook)
	}
}

// finishLocked moves a job to its terminal state: a done job stays in the
// key table as a cache entry, a failed or cancelled one leaves it, and so
// does a done one whose graph was invalidated while it was in flight. It
// returns the completion hook for the caller to invoke after releasing
// the engine mutex — a hook is free to call back into the engine.
func (e *Engine) finishLocked(j *Job, v any, err error) func() {
	j.finished = time.Now()
	if !j.started.IsZero() {
		e.runSecs.With(j.key.Algorithm).Observe(j.finished.Sub(j.started).Seconds())
	}
	switch {
	case err == nil:
		j.state = StateDone
		j.result = v
		e.completed.Inc()
		if j.stale {
			delete(e.byKey, j.key)
		} else {
			e.cacheLocked(j)
		}
	case errors.Is(err, context.Canceled):
		j.state = StateCancelled
		j.err = err
		e.cancelled.Inc()
		delete(e.byKey, j.key)
	default:
		j.state = StateFailed
		j.err = err
		e.failed.Inc()
		delete(e.byKey, j.key)
	}
	// The run closure typically captures the graph; drop it so a retained
	// terminal record cannot pin a deleted graph's memory.
	j.run = nil
	close(j.done)
	hook := j.onDone
	j.onDone = nil
	return hook
}

// cacheLocked pushes a done job on the LRU list, then trims the list to
// MaxCachedResults: expired entries go first, then the least recently
// used.
func (e *Engine) cacheLocked(j *Job) {
	j.lru = e.cached.PushFront(j)
	cutoff := j.finished.Add(-e.opts.ResultTTL) // finished before it = expired
	for el := e.cached.Back(); el != nil && e.cached.Len() > e.opts.MaxCachedResults; {
		prev := el.Prev()
		if old := el.Value.(*Job); old.finished.Before(cutoff) {
			e.uncacheLocked(old)
		}
		el = prev
	}
	for e.cached.Len() > e.opts.MaxCachedResults {
		e.uncacheLocked(e.cached.Back().Value.(*Job))
	}
}

// uncacheLocked drops a done job from the key table and the LRU list.
func (e *Engine) uncacheLocked(j *Job) {
	delete(e.byKey, j.key)
	e.cached.Remove(j.lru)
	j.lru = nil
}

// runHooks calls each non-nil completion hook.
func runHooks(hooks ...func()) {
	for _, f := range hooks {
		if f != nil {
			f()
		}
	}
}

// Cancel requests cancellation of a job. A queued job is finalized
// immediately; a running job has its context cancelled and reaches the
// cancelled state when its Run observes ctx.Err() and returns. Cancelling
// a terminal job is a no-op. Returns ErrNotFound for unknown ids.
func (e *Engine) Cancel(id string) (*Job, error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	if !ok {
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	hook := e.cancelLocked(j)
	e.mu.Unlock()
	runHooks(hook)
	return j, nil
}

// cancelLocked requests cancellation; the returned hook (non-nil only
// when a queued job was finalized on the spot) must be run after the
// engine mutex is released.
func (e *Engine) cancelLocked(j *Job) func() {
	switch j.state {
	case StateQueued:
		e.removeQueuedLocked(j)
		e.dequeueAccountingLocked()
		return e.finishLocked(j, nil, context.Canceled)
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
	return nil
}

// Get returns a job by id.
func (e *Engine) Get(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// List snapshots every retained job, newest first.
func (e *Engine) List() []Info {
	e.mu.Lock()
	defer e.mu.Unlock()
	hits, runs := e.hitRecords.live(), e.runRecords.live()
	out := make([]Info, 0, len(hits)+len(runs))
	for len(hits) > 0 || len(runs) > 0 {
		var j *Job
		if len(runs) == 0 || len(hits) > 0 && hits[len(hits)-1].seq > runs[len(runs)-1].seq {
			j, hits = hits[len(hits)-1], hits[:len(hits)-1]
		} else {
			j, runs = runs[len(runs)-1], runs[:len(runs)-1]
		}
		out = append(out, j.infoLocked())
	}
	return out
}

// WaitOrAbandon blocks until the job is terminal or ctx is done,
// balancing the waiter registration made by an unpinned Submit (call it
// exactly once per such submission). When the last waiter's context
// expires before completion and the job is not pinned by an asynchronous
// submission, the job is cancelled — a disconnected client stops paying
// for work nobody will read. Returns true when the job reached a
// terminal state, false when the wait was abandoned.
func (e *Engine) WaitOrAbandon(ctx context.Context, j *Job) bool {
	select {
	case <-j.done:
		e.mu.Lock()
		if j.waiters > 0 {
			j.waiters--
		}
		e.mu.Unlock()
		return true
	case <-ctx.Done():
		e.mu.Lock()
		if j.waiters > 0 {
			j.waiters--
		}
		var hook func()
		if j.waiters == 0 && !j.pinned && !j.state.Terminal() {
			hook = e.cancelLocked(j)
		}
		e.mu.Unlock()
		runHooks(hook)
		return false
	}
}

// InvalidateGraph drops cached results for a graph name (any version)
// and returns how many it dropped; a job on that graph still queued or
// running will leave the key table when it finishes instead of caching
// its result. Correctness never depends on this — keys carry the graph
// version — but dropping a deleted or evicted graph's results frees their
// memory immediately.
func (e *Engine) InvalidateGraph(name string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, j := range e.byKey {
		switch {
		case j.key.Graph != name:
		case j.state == StateDone:
			e.uncacheLocked(j)
			n++
		default:
			j.stale = true
		}
	}
	return n
}

// QueueHeadroom reports queued jobs against the queue bound — the
// /healthz queue-component probe. queued == depth means the next
// submission answers 429.
func (e *Engine) QueueHeadroom() (queued, depth int) {
	return int(e.queuedG.Int()), e.opts.QueueDepth
}

// Retry-After bounds: the floor keeps the hint from telling clients to
// hammer a queue that drains in milliseconds; the ceiling keeps a stalled
// queue from parking clients for minutes; the default covers an engine
// with no drain history yet.
const (
	retryAfterFloor   = 1
	retryAfterCeil    = 120
	retryAfterDefault = 15
)

// RetryAfterHint estimates, in whole seconds, how long a rejected
// submitter should wait before retrying: the current queue length divided
// by the observed drain rate (jobs leaving the queue per second over the
// recent drain ring, measured against now so a stalled queue reads as
// slow, not fast), clamped to [1s, 120s] with a conservative floor. With
// no drain history the default stands in.
func (e *Engine) RetryAfterHint() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.drainN
	if n > drainRingSize {
		n = drainRingSize
	}
	if n == 0 {
		return retryAfterDefault
	}
	oldest := e.drains[0]
	if e.drainN > drainRingSize {
		oldest = e.drains[e.drainN%drainRingSize] // next slot to overwrite = oldest
	}
	span := time.Since(oldest).Seconds()
	if span <= 0 {
		return retryAfterFloor
	}
	rate := float64(n) / span
	// The retrier needs one slot: estimate draining the whole queue plus
	// its own submission.
	secs := int(math.Ceil(float64(len(e.queue)+1) / rate))
	if secs < retryAfterFloor {
		return retryAfterFloor
	}
	if secs > retryAfterCeil {
		return retryAfterCeil
	}
	return secs
}

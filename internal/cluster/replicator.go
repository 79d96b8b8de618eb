package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"lagraph/internal/lagraph"
	"lagraph/internal/obs"
	"lagraph/internal/registry"
	"lagraph/internal/store"
	"lagraph/internal/stream"
)

// Replicator is the follower's replication engine: a poll loop that
// keeps the local registry a faithful, version-exact copy of the
// leader's durable graphs.
//
// Per graph, the loop runs a tiny state machine:
//
//	bootstrap: fetch the leader's checkpoint, install it into the local
//	  store (leader's version and epoch, verbatim), restore it into the
//	  registry at that exact version.
//	tail: fetch WAL records after the last applied version and apply
//	  each through stream.Apply — the same path that applied them on the
//	  leader — asserting the published version equals the recorded one,
//	  exactly as boot-time recovery does.
//
// Applied batches flow through the follower's own journal (its store),
// so a restarted follower recovers its replicated graphs locally via
// RecoverInto and resumes tailing from where it stopped — no checkpoint
// re-ship — unless the leader's epoch changed (delete+recreate), which
// forces a clean re-bootstrap instead of mixing two incarnations' tails.
type Replicator struct {
	cfg    Config
	client *Client
	reg    *registry.Registry
	eng    *stream.Engine
	st     *store.Store // nil = memory-only follower (re-bootstraps on restart)
	logger *slog.Logger

	// OnRemove, when set, runs after a graph the leader dropped is
	// removed locally (the server wires result-cache invalidation here).
	onRemove func(name string)

	mu       sync.Mutex
	graphs   map[string]*replState
	lastPoll time.Time // last completed poll, success or not
	lastOK   time.Time // last successful poll
	lastErr  string

	stopCh chan struct{}
	wg     sync.WaitGroup
	once   sync.Once

	polls      *obs.Counter
	pollErrs   *obs.Counter
	bootstraps *obs.Counter
	applied    *obs.Counter
	appliedOps *obs.Counter
	lagGauge   *obs.GaugeVec
}

// replState is one graph's replication cursor.
type replState struct {
	version       uint64 // last version published locally
	epoch         string // leader incarnation this state belongs to
	leaderVersion uint64 // newest version seen on the leader
	lastApplied   time.Time
}

// ReplicatorOptions wires a Replicator into the node.
type ReplicatorOptions struct {
	Config   Config
	Registry *registry.Registry
	Stream   *stream.Engine
	Store    *store.Store // optional; enables restart-resume
	Obs      *obs.Registry
	Logger   *slog.Logger
	OnRemove func(name string)
	// Client overrides the leader client (tests point it at an httptest
	// server). Nil builds one from Config.Leader.
	Client *Client
}

// NewReplicator builds (but does not start) a follower's replicator.
func NewReplicator(opts ReplicatorOptions) *Replicator {
	client := opts.Client
	if client == nil {
		client = NewClient(opts.Config.Leader)
	}
	r := &Replicator{
		cfg:      opts.Config,
		client:   client,
		reg:      opts.Registry,
		eng:      opts.Stream,
		st:       opts.Store,
		logger:   opts.Logger,
		onRemove: opts.OnRemove,
		graphs:   make(map[string]*replState),
		stopCh:   make(chan struct{}),
	}
	if o := opts.Obs; o != nil {
		r.polls = o.Counter("replication_polls_total", "Replication poll cycles completed.")
		r.pollErrs = o.Counter("replication_poll_errors_total", "Replication poll cycles that failed.")
		r.bootstraps = o.Counter("replication_bootstraps_total", "Full checkpoint bootstraps (first sync or epoch change).")
		r.applied = o.Counter("replication_applied_batches_total", "Replicated WAL batches applied locally.")
		r.appliedOps = o.Counter("replication_applied_ops_total", "Edge operations applied from replicated batches.")
		r.lagGauge = o.GaugeVec("replication_lag_batches", "Batches behind the leader, per graph.", "graph")
		o.GaugeFunc("replication_last_poll_age_seconds", "Seconds since the last successful replication poll.",
			func() float64 {
				r.mu.Lock()
				defer r.mu.Unlock()
				if r.lastOK.IsZero() {
					return -1
				}
				return time.Since(r.lastOK).Seconds()
			})
	} else {
		private := obs.NewRegistry()
		r.polls = private.Counter("replication_polls_total", "")
		r.pollErrs = private.Counter("replication_poll_errors_total", "")
		r.bootstraps = private.Counter("replication_bootstraps_total", "")
		r.applied = private.Counter("replication_applied_batches_total", "")
		r.appliedOps = private.Counter("replication_applied_ops_total", "")
		r.lagGauge = private.GaugeVec("replication_lag_batches", "", "graph")
	}
	return r
}

// Start launches the poll loop.
func (r *Replicator) Start() {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		t := time.NewTicker(r.cfg.Poll)
		defer t.Stop()
		r.pollOnce() // first sync immediately, not a poll interval later
		for {
			select {
			case <-r.stopCh:
				return
			case <-t.C:
				r.pollOnce()
			}
		}
	}()
}

// Stop halts the poll loop and waits for an in-flight cycle.
func (r *Replicator) Stop() {
	r.once.Do(func() { close(r.stopCh) })
	r.wg.Wait()
}

// pollOnce runs one full sync cycle against the leader.
func (r *Replicator) pollOnce() {
	err := r.sync()
	r.mu.Lock()
	r.lastPoll = time.Now()
	if err != nil {
		r.lastErr = err.Error()
		r.pollErrs.Inc()
	} else {
		r.lastErr = ""
		r.lastOK = time.Now()
	}
	r.mu.Unlock()
	r.polls.Inc()
	if err != nil && r.logger != nil {
		r.logger.Warn("replication poll failed", "err", err)
	}
}

// sync performs one cycle: list the leader's graphs, sync each, drop
// graphs the leader no longer has.
func (r *Replicator) sync() error {
	infos, err := r.client.ListGraphs()
	if err != nil {
		return err
	}
	onLeader := make(map[string]bool, len(infos))
	var firstErr error
	for _, info := range infos {
		onLeader[info.Name] = true
		if err := r.syncGraph(info); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", info.Name, err)
		}
	}
	// Graphs the leader dropped are dropped here too — the registry's
	// explicit-remove listener mirrors the deletion to the local store.
	r.mu.Lock()
	var gone []string
	for name := range r.graphs {
		if !onLeader[name] {
			gone = append(gone, name)
			delete(r.graphs, name)
		}
	}
	r.mu.Unlock()
	for _, name := range gone {
		_ = r.reg.Remove(name)
		r.lagGauge.With(name).Set(0)
		if r.onRemove != nil {
			r.onRemove(name)
		}
		if r.logger != nil {
			r.logger.Info("replication: dropped graph removed on leader", "graph", name)
		}
	}
	return firstErr
}

// state returns (seeding if needed) the cursor for one graph. A graph
// already in the local registry — restored by boot-time recovery from a
// previous run of this follower — is adopted at its recovered version
// and its store-recorded epoch, which is exactly what makes a follower
// restart resume the tail instead of re-bootstrapping.
func (r *Replicator) state(name string) *replState {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st := r.graphs[name]; st != nil {
		return st
	}
	lease, err := r.reg.Acquire(name)
	if err != nil {
		return nil
	}
	version := lease.Entry().Version()
	lease.Release()
	epoch := ""
	if r.st != nil {
		epoch = r.st.Epoch(name)
	}
	if epoch == "" {
		// Local state with no recorded incarnation cannot be trusted to
		// continue any leader tail.
		return nil
	}
	st := &replState{version: version, epoch: epoch}
	r.graphs[name] = st
	return st
}

// syncGraph brings one graph up to the leader's head.
func (r *Replicator) syncGraph(info store.DurableInfo) error {
	st := r.state(info.Name)
	if st == nil || st.epoch != info.Epoch {
		// First sight of the graph, or the leader recreated it: bootstrap
		// from the checkpoint.
		ns, err := r.bootstrap(info.Name)
		if err != nil {
			return err
		}
		st = ns
	}
	return r.tail(info.Name, st)
}

// bootstrap fetches and installs the leader's checkpoint, replacing any
// local incarnation, and returns the fresh cursor.
func (r *Replicator) bootstrap(name string) (*replState, error) {
	ck, err := r.client.FetchCheckpoint(name)
	if err != nil {
		return nil, err
	}
	kind, err := lagraph.ParseKind(ck.Kind)
	if err != nil {
		return nil, err
	}
	// Drop whatever incarnation the registry holds; the remove listener
	// clears the local store's copy with it.
	_ = r.reg.Remove(name)
	if r.onRemove != nil {
		r.onRemove(name)
	}
	if r.st != nil {
		if err := r.st.InstallCheckpoint(name, kind, ck.Version, ck.Epoch, ck.Data); err != nil {
			return nil, fmt.Errorf("install checkpoint: %w", err)
		}
	}
	if err := store.RestoreCheckpoint(r.reg, name, kind, ck.Version, bytes.NewReader(ck.Data)); err != nil {
		return nil, err
	}
	st := &replState{version: ck.Version, epoch: ck.Epoch, lastApplied: time.Now()}
	r.mu.Lock()
	r.graphs[name] = st
	r.mu.Unlock()
	r.bootstraps.Inc()
	if r.logger != nil {
		r.logger.Info("replication: bootstrapped graph", "graph", name, "version", ck.Version, "epoch", ck.Epoch)
	}
	return st, nil
}

// tail fetches the WAL records past the cursor and replays them under
// boot-time recovery's own checks (store.Replay).
func (r *Replicator) tail(name string, st *replState) error {
	t, err := r.client.FetchTail(name, st.version)
	if err != nil {
		return err
	}
	if t.Epoch != st.epoch {
		// The graph was recreated between the list and the tail; the next
		// cycle's list will carry the new epoch and bootstrap.
		return fmt.Errorf("epoch changed mid-sync (have %s, leader %s)", st.epoch, t.Epoch)
	}
	if len(t.Batches) == 0 && t.CheckpointVersion > st.version {
		// Our resume point was compacted past on the leader: the records
		// between st.version and the checkpoint are gone. Re-bootstrap
		// from the checkpoint rather than replaying a gap.
		_, err := r.bootstrap(name)
		return err
	}
	_, err = store.Replay(r.eng, name, st.version, t.Batches, func(b store.TailBatch) {
		r.mu.Lock()
		st.version = b.Version
		st.lastApplied = time.Now()
		r.mu.Unlock()
		r.applied.Inc()
		r.appliedOps.Add(float64(len(b.Ops)))
	})
	if errors.Is(err, store.ErrVersionGap) {
		// A hole in the tail — the leader checkpointed past our cursor
		// between polls. Start over from the checkpoint.
		if _, berr := r.bootstrap(name); berr != nil {
			return fmt.Errorf("%v, re-bootstrap: %w", err, berr)
		}
		return nil
	}
	if err != nil {
		return err
	}
	head := t.CheckpointVersion
	if n := len(t.Batches); n > 0 && t.Batches[n-1].Version > head {
		head = t.Batches[n-1].Version
	}
	r.mu.Lock()
	st.leaderVersion = head
	lag := int64(0)
	if head > st.version {
		lag = int64(head - st.version)
	}
	r.mu.Unlock()
	r.lagGauge.With(name).Set(float64(lag))
	return nil
}

// GraphStatus is one graph's replication status for /stats and the
// debug bundle.
type GraphStatus struct {
	Name          string `json:"name"`
	Version       uint64 `json:"version"`
	LeaderVersion uint64 `json:"leader_version"`
	LagBatches    int64  `json:"lag_batches"`
	Epoch         string `json:"epoch"`
}

// Status is the replicator's /stats section.
type Status struct {
	LastPollAgoSeconds float64       `json:"last_poll_ago_seconds"`
	LastError          string        `json:"last_error,omitempty"`
	Polls              int64         `json:"polls"`
	PollErrors         int64         `json:"poll_errors"`
	Bootstraps         int64         `json:"bootstraps"`
	AppliedBatches     int64         `json:"applied_batches"`
	AppliedOps         int64         `json:"applied_ops"`
	Graphs             []GraphStatus `json:"graphs,omitempty"`
}

// StatusSnapshot reports the replicator's current state.
func (r *Replicator) StatusSnapshot() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Status{
		LastError:      r.lastErr,
		Polls:          r.polls.Int(),
		PollErrors:     r.pollErrs.Int(),
		Bootstraps:     r.bootstraps.Int(),
		AppliedBatches: r.applied.Int(),
		AppliedOps:     r.appliedOps.Int(),
	}
	if !r.lastPoll.IsZero() {
		s.LastPollAgoSeconds = time.Since(r.lastPoll).Seconds()
	} else {
		s.LastPollAgoSeconds = -1
	}
	for name, st := range r.graphs {
		lag := int64(0)
		if st.leaderVersion > st.version {
			lag = int64(st.leaderVersion - st.version)
		}
		s.Graphs = append(s.Graphs, GraphStatus{
			Name:          name,
			Version:       st.version,
			LeaderVersion: st.leaderVersion,
			LagBatches:    lag,
			Epoch:         st.epoch,
		})
	}
	sort.Slice(s.Graphs, func(i, j int) bool { return s.Graphs[i].Name < s.Graphs[j].Name })
	return s
}

// Healthy probes replication for /healthz: healthy while polls keep
// succeeding; unhealthy once the leader has been unreachable for
// several poll intervals (bounded staleness is the contract — a
// follower that cannot see the leader is serving unboundedly stale
// reads and must say so).
func (r *Replicator) Healthy() (bool, string) {
	stale := 10 * r.cfg.Poll
	if stale < 5*time.Second {
		stale = 5 * time.Second
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lastOK.IsZero() {
		if r.lastPoll.IsZero() || time.Since(r.lastPoll) < stale {
			return true, "" // still starting up
		}
		return false, "no successful replication poll yet: " + r.lastErr
	}
	if age := time.Since(r.lastOK); age >= stale {
		return false, fmt.Sprintf("last successful poll %.1fs ago: %s", age.Seconds(), r.lastErr)
	}
	return true, ""
}

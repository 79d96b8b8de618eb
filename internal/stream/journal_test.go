package stream

import (
	"errors"
	"sync"
	"testing"
	"time"

	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
	"lagraph/internal/registry"
)

// fakeJournal records the engine's journal calls, optionally failing
// appends, so the durability contract — append before publish, revert on
// failed publish — is testable without a filesystem.
type fakeJournal struct {
	mu          sync.Mutex
	appends     []uint64 // versions appended, in order
	reverts     []uint64
	checkpoints []uint64
	failAppend  error

	ops      [][]Op                 // each appended batch, parallel to appends
	matrices []*grb.Matrix[float64] // each checkpointed matrix, parallel to checkpoints

	// versionAtAppend records the registry version visible when each
	// append arrived: it must be the *pre-publish* version, one less than
	// the appended record's.
	reg            *registry.Registry
	graph          string
	versionAtHooks []uint64
}

func (j *fakeJournal) AppendBatch(name string, version uint64, ops []Op) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failAppend != nil {
		return j.failAppend
	}
	j.appends = append(j.appends, version)
	j.ops = append(j.ops, append([]Op(nil), ops...))
	if j.reg != nil {
		if lease, err := j.reg.Acquire(j.graph); err == nil {
			j.versionAtHooks = append(j.versionAtHooks, lease.Entry().Version())
			lease.Release()
		}
	}
	return nil
}

func (j *fakeJournal) RevertBatch(name string, version uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.reverts = append(j.reverts, version)
}

func (j *fakeJournal) Checkpoint(name string, kind lagraph.Kind, m *grb.Matrix[float64], version uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.checkpoints = append(j.checkpoints, version)
	j.matrices = append(j.matrices, m)
	return nil
}

func (j *fakeJournal) snapshot() (appends, reverts, checkpoints, atHooks []uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]uint64(nil), j.appends...),
		append([]uint64(nil), j.reverts...),
		append([]uint64(nil), j.checkpoints...),
		append([]uint64(nil), j.versionAtHooks...)
}

func TestJournalAppendPrecedesPublish(t *testing.T) {
	g := makeGraph(t, 6, lagraph.AdjacencyDirected, [][2]int{{0, 1}, {1, 2}})
	reg, e := setup(t, "g", g, Options{CompactThreshold: 1 << 20})
	j := &fakeJournal{reg: reg, graph: "g"}
	e.SetJournal(j)

	for i := 0; i < 3; i++ {
		if _, err := e.Apply("g", []Op{{Op: OpUpsert, Src: i, Dst: i + 3}}); err != nil {
			t.Fatalf("Apply %d: %v", i, err)
		}
	}
	// An all-no-op batch publishes nothing and must journal nothing.
	if _, err := e.Apply("g", []Op{{Op: OpDelete, Src: 5, Dst: 5}}); err != nil {
		t.Fatal(err)
	}

	appends, reverts, _, atHooks := j.snapshot()
	if want := []uint64{2, 3, 4}; len(appends) != 3 || appends[0] != want[0] || appends[1] != want[1] || appends[2] != want[2] {
		t.Fatalf("journaled versions = %v, want %v", appends, want)
	}
	if len(reverts) != 0 {
		t.Fatalf("unexpected reverts: %v", reverts)
	}
	for i, v := range atHooks {
		// At append time the registry still serves the previous version:
		// durability strictly precedes visibility.
		if v != appends[i]-1 {
			t.Fatalf("append %d saw registry v%d; published v%d was already visible", i, v, appends[i])
		}
	}
}

func TestJournalAppendFailureRejectsBatch(t *testing.T) {
	g := makeGraph(t, 4, lagraph.AdjacencyDirected, [][2]int{{0, 1}})
	reg, e := setup(t, "g", g, Options{CompactThreshold: 1 << 20})
	j := &fakeJournal{failAppend: errors.New("disk full")}
	e.SetJournal(j)

	if _, err := e.Apply("g", []Op{{Op: OpUpsert, Src: 1, Dst: 2}}); err == nil {
		t.Fatal("Apply succeeded with a failing journal")
	}
	// Nothing published: same version, same content.
	edges, version, _ := readEdges(t, reg, "g")
	if version != 1 || edges != 1 {
		t.Fatalf("graph moved despite journal failure: v%d, %d edges", version, edges)
	}
	if st := e.StatsSnapshot(); st.RejectedBatches != 1 || st.Batches != 0 {
		t.Fatalf("batches=%d rejected=%d after a refused append, want 0 and 1", st.Batches, st.RejectedBatches)
	}
	// The engine recovers once the journal does: the retried batch applies
	// cleanly on a resynced state, at the version the failed one wanted.
	j.mu.Lock()
	j.failAppend = nil
	j.mu.Unlock()
	res, err := e.Apply("g", []Op{{Op: OpUpsert, Src: 1, Dst: 2}})
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if res.Version != 2 || res.Edges != 2 {
		t.Fatalf("retry published v%d with %d edges, want v2 with 2", res.Version, res.Edges)
	}
}

func TestJournalRevertOnFailedPublish(t *testing.T) {
	g := makeGraph(t, 4, lagraph.AdjacencyDirected, [][2]int{{0, 1}})
	reg, e := setup(t, "g", g, Options{CompactThreshold: 1 << 20})

	// Delete the graph between the engine's lease and its Swap by doing it
	// from the journal hook: AppendBatch runs exactly in that window.
	hook := &fakeJournal{}
	e.SetJournal(journalFunc{
		append: func(name string, version uint64, ops []Op) error {
			_ = hook.AppendBatch(name, version, ops)
			return reg.Remove(name) // make the upcoming Swap fail
		},
		revert: func(name string, version uint64) { hook.RevertBatch(name, version) },
	})
	_, err := e.Apply("g", []Op{{Op: OpUpsert, Src: 1, Dst: 2}})
	if !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("Apply err = %v, want registry.ErrNotFound", err)
	}
	appends, reverts, _, _ := hook.snapshot()
	if len(appends) != 1 || len(reverts) != 1 || appends[0] != reverts[0] {
		t.Fatalf("appends=%v reverts=%v, want the appended version reverted", appends, reverts)
	}
	if got := e.StatsSnapshot().RejectedBatches; got != 1 {
		t.Fatalf("rejected = %d after a refused publish, want 1", got)
	}
}

// journalFunc adapts closures to the Journal interface.
type journalFunc struct {
	append func(string, uint64, []Op) error
	revert func(string, uint64)
}

func (f journalFunc) AppendBatch(name string, version uint64, ops []Op) error {
	return f.append(name, version, ops)
}
func (f journalFunc) RevertBatch(name string, version uint64) { f.revert(name, version) }
func (f journalFunc) Checkpoint(string, lagraph.Kind, *grb.Matrix[float64], uint64) error {
	return nil
}

func TestJournalCheckpointAfterCompaction(t *testing.T) {
	g := makeGraph(t, 16, lagraph.AdjacencyDirected, [][2]int{{0, 1}})
	_, e := setup(t, "g", g, Options{CompactThreshold: 4, CompactRatio: 1e9})
	j := &fakeJournal{}
	e.SetJournal(j)

	var lastVersion uint64
	for i := 0; i < 6; i++ {
		res, err := e.Apply("g", []Op{{Op: OpUpsert, Src: i, Dst: i + 8}})
		if err != nil {
			t.Fatal(err)
		}
		lastVersion = res.Version
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _, ckpts, _ := j.snapshot()
		if len(ckpts) > 0 {
			// The checkpoint names a version some journaled batch
			// published — the merged prefix's boundary.
			if ckpts[0] < 2 || ckpts[0] > lastVersion {
				t.Fatalf("checkpoint at v%d outside published range [2,%d]", ckpts[0], lastVersion)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint after compaction")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
	"lagraph/internal/registry"
	"lagraph/internal/stream"
)

// Kill-and-recover suite: build a live service stack (registry + stream
// engine + store), load and mutate graphs, then drop every bit of process
// state without any orderly shutdown — the SIGKILL equivalent — and
// rebuild from the data directory alone. The recovered incarnations must
// be byte-identical: same content, same registry versions, same pending
// delta state.

// harness is one "process": a registry, stream engine and store wired the
// way server.New wires them.
type harness struct {
	reg *registry.Registry
	eng *stream.Engine
	st  *Store
}

// crash abandons the harness the way SIGKILL would: nothing is flushed
// or shut down, but the kernel closes the process's file descriptors —
// which is what releases the data-dir flock for the next incarnation.
// The stream engine is closed first: a dead process runs no compaction,
// so none scheduled before the crash may write a checkpoint while the
// next incarnation recovers. Close waits out one in flight and starts no
// new one.
func (h *harness) crash() {
	h.eng.Close()
	h.st.lock.Close()
}

// newHarness opens dir and recovers whatever it holds, mirroring the
// daemon's boot order (recover → attach journal → attach listeners).
func newHarness(t *testing.T, dir string, streamOpts stream.Options) (*harness, RecoveryReport) {
	t.Helper()
	st, err := Open(Options{Dir: dir, Fsync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	reg := registry.New(0)
	eng := stream.NewEngine(reg, streamOpts)
	rep := st.RecoverInto(reg, eng)
	eng.SetJournal(st)
	st.Attach(reg)
	return &harness{reg: reg, eng: eng, st: st}, rep
}

// loadGraph adds a graph to the registry and persists it, as
// POST /graphs does.
func (h *harness) loadGraph(t *testing.T, name string, kind lagraph.Kind, n int, tuples [][3]float64) {
	t.Helper()
	m := testMatrix(t, n, tuples)
	g, err := lagraph.New(&m, kind)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := h.reg.Add(name, g)
	if err != nil {
		t.Fatalf("Add %s: %v", name, err)
	}
	if err := h.st.SaveGraph(name, g, entry.Version()); err != nil {
		t.Fatalf("SaveGraph %s: %v", name, err)
	}
}

// graphFingerprint captures everything the recovery contract promises.
type graphFingerprint struct {
	version    uint64
	pendingOps int64
	nodes      int
	edges      int
	content    []byte // grb.SerializeMatrix of the finalized adjacency
}

func fingerprint(t *testing.T, reg *registry.Registry, name string) graphFingerprint {
	t.Helper()
	lease, err := reg.Acquire(name)
	if err != nil {
		t.Fatalf("Acquire %s: %v", name, err)
	}
	defer lease.Release()
	e := lease.Entry()
	info := e.Info()
	fp := graphFingerprint{
		version:    e.Version(),
		pendingOps: e.PendingDeltaOps(),
		nodes:      info.Nodes,
		edges:      info.Edges,
	}
	e.EnsureFinalized()
	var buf bytes.Buffer
	if err := grb.SerializeMatrix(&buf, e.Graph().A); err != nil {
		t.Fatalf("serialize %s: %v", name, err)
	}
	fp.content = buf.Bytes()
	return fp
}

func checkFingerprint(t *testing.T, name string, before, after graphFingerprint) {
	t.Helper()
	if after.version != before.version {
		t.Errorf("%s: version %d, want %d", name, after.version, before.version)
	}
	if after.pendingOps != before.pendingOps {
		t.Errorf("%s: pending delta ops %d, want %d", name, after.pendingOps, before.pendingOps)
	}
	if after.nodes != before.nodes || after.edges != before.edges {
		t.Errorf("%s: %d nodes / %d edges, want %d / %d",
			name, after.nodes, after.edges, before.nodes, before.edges)
	}
	if !bytes.Equal(after.content, before.content) {
		t.Errorf("%s: recovered content is not byte-identical (%d vs %d bytes)",
			name, len(after.content), len(before.content))
	}
}

func TestKillAndRecover(t *testing.T) {
	dir := t.TempDir()
	// High thresholds: no compaction, so the whole mutation history rides
	// the WAL.
	opts := stream.Options{CompactThreshold: 1 << 20, CompactRatio: 1e9}

	h1, rep := newHarness(t, dir, opts)
	if rep.GraphsRecovered != 0 {
		t.Fatalf("fresh dir recovered %d graphs", rep.GraphsRecovered)
	}
	h1.loadGraph(t, "dir", lagraph.AdjacencyDirected, 6,
		[][3]float64{{0, 1, 1}, {1, 2, 2}, {2, 3, 3}, {3, 0, 4}, {4, 4, 5}})
	h1.loadGraph(t, "undir", lagraph.AdjacencyUndirected, 5,
		[][3]float64{{0, 1, 1}, {1, 0, 1}, {1, 2, 2}, {2, 1, 2}})

	// A spread of batches: weighted upserts, updates of existing edges,
	// deletes, mirrored undirected ops, and one all-no-op batch (deleting
	// absent edges) that must not publish a version or a WAL record.
	mustApply := func(name string, ops []stream.Op) stream.Result {
		res, err := h1.eng.Apply(name, ops)
		if err != nil {
			t.Fatalf("Apply %s: %v", name, err)
		}
		return res
	}
	mustApply("dir", []stream.Op{
		{Op: stream.OpUpsert, Src: 0, Dst: 5, Weight: fp(9.5)},
		{Op: stream.OpUpsert, Src: 1, Dst: 2, Weight: fp(-2)}, // update
		{Op: stream.OpDelete, Src: 4, Dst: 4},                 // remove self-loop
	})
	mustApply("dir", []stream.Op{
		{Op: stream.OpUpsert, Src: 5, Dst: 0},
		{Op: stream.OpDelete, Src: 0, Dst: 1},
	})
	noop := mustApply("dir", []stream.Op{{Op: stream.OpDelete, Src: 0, Dst: 1}})
	if noop.Version != 3 {
		t.Fatalf("no-op batch published version %d, want unchanged 3", noop.Version)
	}
	mustApply("undir", []stream.Op{
		{Op: stream.OpUpsert, Src: 3, Dst: 4, Weight: fp(7)},
		{Op: stream.OpDelete, Src: 0, Dst: 1},
	})

	before := map[string]graphFingerprint{
		"dir":   fingerprint(t, h1.reg, "dir"),
		"undir": fingerprint(t, h1.reg, "undir"),
	}
	if before["dir"].version != 3 || before["undir"].version != 2 {
		t.Fatalf("pre-crash versions: dir=%d undir=%d", before["dir"].version, before["undir"].version)
	}
	if before["dir"].pendingOps == 0 || before["undir"].pendingOps == 0 {
		t.Fatal("test wants pending delta ops outstanding at crash time")
	}

	// Crash: h1 is abandoned with no Close of any component. Everything
	// durable is already on disk (Fsync was on for every append).
	h1.crash()

	h2, rep := newHarness(t, dir, opts)
	defer h2.st.Close()
	defer h2.eng.Close()
	if len(rep.Failed) != 0 {
		t.Fatalf("recovery failures: %v", rep.Failed)
	}
	if rep.GraphsRecovered != 2 || rep.BatchesReplayed != 3 {
		t.Fatalf("recovered %d graphs / %d batches, want 2 / 3", rep.GraphsRecovered, rep.BatchesReplayed)
	}
	for name, fpBefore := range before {
		checkFingerprint(t, name, fpBefore, fingerprint(t, h2.reg, name))
	}

	// The recovered incarnation keeps evolving: the next mutation lands on
	// the next version, exactly as it would have without the restart.
	res, err := h2.eng.Apply("dir", []stream.Op{{Op: stream.OpUpsert, Src: 2, Dst: 5}})
	if err != nil {
		t.Fatalf("post-recovery Apply: %v", err)
	}
	if res.Version != before["dir"].version+1 {
		t.Fatalf("post-recovery version %d, want %d", res.Version, before["dir"].version+1)
	}
}

func TestKillAndRecoverAfterCompactionCheckpoint(t *testing.T) {
	dir := t.TempDir()
	// Low threshold: a handful of batches triggers background compaction,
	// whose checkpoint supersedes the replayed WAL prefix.
	opts := stream.Options{CompactThreshold: 8, CompactRatio: 1e9}

	h1, _ := newHarness(t, dir, opts)
	h1.loadGraph(t, "g", lagraph.AdjacencyDirected, 16,
		[][3]float64{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}})
	for i := 0; i < 6; i++ {
		res, err := h1.eng.Apply("g", []stream.Op{
			{Op: stream.OpUpsert, Src: i, Dst: i + 4, Weight: fp(float64(i + 1))},
			{Op: stream.OpUpsert, Src: i + 4, Dst: i, Weight: fp(float64(i + 2))},
		})
		if err != nil {
			t.Fatalf("Apply %d: %v", i, err)
		}
		if i != 3 {
			continue
		}
		// The fourth batch fills the log to the threshold. Wait for its
		// compaction's checkpoint (load checkpoint + compaction checkpoint
		// ⇒ >= 2) before the next batch, so the crash below finds the
		// engine at rest: recovery starts from a mid-history checkpoint
		// plus a WAL tail, and no compaction is still adopting a later
		// version whose checkpoint the crash would lose.
		if !res.CompactionScheduled {
			t.Fatalf("batch %d reached the threshold without scheduling a compaction", i)
		}
		deadline := time.Now().Add(5 * time.Second)
		for h1.st.StatsSnapshot().Checkpoints < 2 {
			if time.Now().After(deadline) {
				t.Fatal("compaction checkpoint never happened")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// A couple more batches form the rest of the WAL tail.
	for i := 0; i < 2; i++ {
		if _, err := h1.eng.Apply("g", []stream.Op{
			{Op: stream.OpDelete, Src: i, Dst: i + 4},
		}); err != nil {
			t.Fatalf("tail Apply %d: %v", i, err)
		}
	}
	before := fingerprint(t, h1.reg, "g")
	h1.crash()

	h2, rep := newHarness(t, dir, opts)
	defer h2.st.Close()
	defer h2.eng.Close()
	if len(rep.Failed) != 0 {
		t.Fatalf("recovery failures: %v", rep.Failed)
	}
	if rep.GraphsRecovered != 1 {
		t.Fatalf("recovered %d graphs, want 1", rep.GraphsRecovered)
	}
	checkFingerprint(t, "g", before, fingerprint(t, h2.reg, "g"))
}

func TestRecoveryStopsAtTornTail(t *testing.T) {
	dir := t.TempDir()
	opts := stream.Options{CompactThreshold: 1 << 20, CompactRatio: 1e9}

	h1, _ := newHarness(t, dir, opts)
	h1.loadGraph(t, "g", lagraph.AdjacencyDirected, 4, [][3]float64{{0, 1, 1}})
	if _, err := h1.eng.Apply("g", []stream.Op{{Op: stream.OpUpsert, Src: 1, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	before := fingerprint(t, h1.reg, "g")
	h1.st.Close() // release the WAL handle so the tail write below is last

	// Tear the WAL tail, as a crash mid-append would.
	walPath := filepath.Join(dirForName(dir, "g"), "wal.log")
	appendJunk(t, walPath, []byte{1, 2, 3, 4, 5})

	h2, rep := newHarness(t, dir, opts)
	defer h2.st.Close()
	defer h2.eng.Close()
	if len(rep.Failed) != 0 || rep.BatchesReplayed != 1 {
		t.Fatalf("report = %+v, want 1 replayed batch and no failures", rep)
	}
	checkFingerprint(t, "g", before, fingerprint(t, h2.reg, "g"))
}

func appendJunk(t *testing.T, path string, junk []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(junk); err != nil {
		t.Fatal(err)
	}
}

// TestDirWithEpochMetaRecovers: directories written before the incarnation
// epoch was retired carry an "epoch" key in meta.json — minted locally on a
// single node, or adopted from the leader on a former follower. Either
// opens as a plain directory and recovers at the WAL's last version with
// its pending ops, Open leaves meta.json's bytes alone, and the next fresh
// save writes a meta.json without the key.
func TestDirWithEpochMetaRecovers(t *testing.T) {
	opts := stream.Options{CompactThreshold: 1 << 20, CompactRatio: 1e9}
	tuples := [][3]float64{{0, 1, 1}, {1, 2, 2}, {2, 3, 3}}
	batches := []walRecord{
		{Version: 2, Ops: []stream.Op{
			{Op: stream.OpUpsert, Src: 0, Dst: 3, Weight: fp(2.5)},
			{Op: stream.OpDelete, Src: 1, Dst: 2},
		}},
		{Version: 3, Ops: []stream.Op{{Op: stream.OpUpsert, Src: 2, Dst: 0}}},
	}

	// The reference: the same load and batches applied live.
	ref, _ := newHarness(t, t.TempDir(), opts)
	ref.loadGraph(t, "g", lagraph.AdjacencyDirected, 4, tuples)
	for _, b := range batches {
		if _, err := ref.eng.Apply("g", b.Ops); err != nil {
			t.Fatal(err)
		}
	}
	want := fingerprint(t, ref.reg, "g")
	ref.st.Close()
	ref.eng.Close()
	if want.version != 3 || want.pendingOps == 0 {
		t.Fatalf("reference at v%d with %d pending ops", want.version, want.pendingOps)
	}

	for _, tc := range []struct{ name, epoch string }{
		{"single node", "9c1f04e2b7a3d865"},
		{"former follower", "41d7e0a93b6c2f18"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			gdir := dirForName(dir, "g")
			if err := os.MkdirAll(gdir, 0o755); err != nil {
				t.Fatal(err)
			}
			metaBytes := []byte(`{
  "name": "g",
  "kind": "directed",
  "checkpoint_version": 1,
  "epoch": "` + tc.epoch + `",
  "saved_at": "2026-10-14T09:00:00Z"
}`)
			metaPath := filepath.Join(gdir, "meta.json")
			if err := os.WriteFile(metaPath, metaBytes, 0o644); err != nil {
				t.Fatal(err)
			}
			var ckpt bytes.Buffer
			if err := grb.SerializeMatrix(&ckpt, testMatrix(t, 4, tuples)); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(checkpointPath(gdir, 1), ckpt.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := writeWAL(filepath.Join(gdir, "wal.log"), batches, false); err != nil {
				t.Fatal(err)
			}

			h, rep := newHarness(t, dir, opts)
			defer h.eng.Close()
			defer h.st.Close()
			if len(rep.Failed) != 0 || rep.GraphsRecovered != 1 || rep.BatchesReplayed != 2 {
				t.Fatalf("recovery report = %+v", rep)
			}
			checkFingerprint(t, "g", want, fingerprint(t, h.reg, "g"))
			if got, err := os.ReadFile(metaPath); err != nil || !bytes.Equal(got, metaBytes) {
				t.Fatalf("Open rewrote meta.json (err %v):\n%s", err, got)
			}

			// Delete and reload the name: the fresh save's meta has no epoch.
			if err := h.reg.Remove("g"); err != nil {
				t.Fatal(err)
			}
			h.loadGraph(t, "g", lagraph.AdjacencyDirected, 4, tuples)
			mb, err := os.ReadFile(metaPath)
			if err != nil {
				t.Fatal(err)
			}
			var m map[string]any
			if err := json.Unmarshal(mb, &m); err != nil {
				t.Fatal(err)
			}
			if _, ok := m["epoch"]; ok || m["name"] != "g" {
				t.Fatalf("fresh meta.json = %s", mb)
			}
		})
	}
}

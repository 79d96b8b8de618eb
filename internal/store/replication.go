package store

import (
	"fmt"
	"os"
	"time"

	"lagraph/internal/lagraph"
	"lagraph/internal/stream"
)

// Replication read surface: the per-graph WAL doubles as a replication
// log, and these methods are how a leader serves it. A follower
// bootstraps from OpenCheckpoint, then tails TailSince — every read
// re-parses the WAL through readWAL, so each shipped record is
// CRC-verified at the moment it leaves the leader, and a torn tail is
// simply not served. InstallCheckpoint is the follower-side counterpart:
// it installs a fetched checkpoint verbatim, carrying the *leader's*
// epoch and version, so the follower's own recovery path (RecoverInto)
// later resumes from local state exactly as if the graph had been loaded
// there.

// DurableInfo describes one graph's durable state for replication.
type DurableInfo struct {
	Name              string `json:"name"`
	Kind              string `json:"kind"` // "directed" | "undirected"
	CheckpointVersion uint64 `json:"checkpoint_version"`
	Epoch             string `json:"epoch"`
	WALRecords        int    `json:"wal_records"`
}

// ListDurable reports every graph with durable on-disk state, sorted by
// name. Graphs without a checkpoint yet (created but never saved) are
// omitted — there is nothing to ship.
func (s *Store) ListDurable() []DurableInfo {
	gfs := s.tracked()
	infos := make([]DurableInfo, 0, len(gfs))
	for _, gf := range gfs {
		gf.mu.Lock()
		if gf.ckptVersion != 0 && !gf.removed {
			infos = append(infos, DurableInfo{
				Name:              gf.name,
				Kind:              lagraph.KindName(gf.kind),
				CheckpointVersion: gf.ckptVersion,
				Epoch:             gf.epoch,
				WALRecords:        gf.walRecords,
			})
		}
		gf.mu.Unlock()
	}
	return infos
}

// CheckpointData is one checkpoint snapshot read for shipping.
type CheckpointData struct {
	Version uint64
	Epoch   string
	Kind    string // "directed" | "undirected"
	Data    []byte // grb.SerializeMatrix bytes, verbatim
}

// ReadCheckpoint reads the graph's current checkpoint for shipping. The
// read happens under the graph's file lock so a concurrent checkpoint
// flip cannot serve half of one snapshot and half of another.
func (s *Store) ReadCheckpoint(name string) (CheckpointData, error) {
	gf := s.graph(name)
	if gf == nil {
		return CheckpointData{}, fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	gf.mu.Lock()
	defer gf.mu.Unlock()
	if gf.removed || gf.ckptVersion == 0 {
		return CheckpointData{}, fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	b, err := os.ReadFile(checkpointPath(gf.dir, gf.ckptVersion))
	if err != nil {
		return CheckpointData{}, err
	}
	return CheckpointData{
		Version: gf.ckptVersion,
		Epoch:   gf.epoch,
		Kind:    lagraph.KindName(gf.kind),
		Data:    b,
	}, nil
}

// TailBatch is one WAL record, as decoded from the log and as it goes on
// the replication wire: the ops exactly as the API accepted them, stamped
// with the registry version their publication produced.
type TailBatch struct {
	Version uint64      `json:"version"`
	Ops     []stream.Op `json:"ops"`
}

// Tail is the answer to one tail poll.
type Tail struct {
	// Epoch is the graph's current incarnation. A follower holding state
	// from a different epoch must discard it and re-bootstrap from the
	// checkpoint: its WAL positions mean nothing in this incarnation.
	Epoch string `json:"epoch"`
	// CheckpointVersion is the leader's current checkpoint. When the
	// requested resume point has already been compacted away
	// (after < CheckpointVersion and the records are gone), the follower
	// re-ships the checkpoint instead of replaying a gap.
	CheckpointVersion uint64 `json:"checkpoint_version"`
	// Batches are the WAL records with Version > after, in log order.
	Batches []TailBatch `json:"batches"`
}

// TailSince reads the WAL records published after version `after`. Every
// call re-parses the log — CRC re-verification on read — and a torn tail
// is silently excluded (it will be served once repaired or rewritten).
func (s *Store) TailSince(name string, after uint64) (Tail, error) {
	gf := s.graph(name)
	if gf == nil {
		return Tail{}, fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	gf.mu.Lock()
	defer gf.mu.Unlock()
	if gf.removed || gf.ckptVersion == 0 {
		return Tail{}, fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	t := Tail{Epoch: gf.epoch, CheckpointVersion: gf.ckptVersion}
	recs, _, _, err := readWAL(gf.walPath())
	if err != nil {
		return Tail{}, err
	}
	if recs = recordsBetween(recs, after, noVersion); len(recs) > 0 {
		t.Batches = recs // nil, not empty, when there is none: "batches": null on the wire
	}
	return t, nil
}

// InstallCheckpoint installs checkpoint bytes fetched from a leader as
// this store's durable state for the graph, under the leader's version
// and epoch. Fresh semantics: whatever the name held before — an older
// bootstrap, a dead incarnation's WAL — is wiped first, exactly like
// SaveGraph, except the epoch is adopted rather than minted. After it
// returns, the graph recovers locally through the ordinary RecoverInto
// path: checkpoint at the leader's version, plus whatever WAL records
// later replicated batches append through the journal.
func (s *Store) InstallCheckpoint(name string, kind lagraph.Kind, version uint64, epoch string, data []byte) error {
	if version == 0 {
		return fmt.Errorf("store: install %q: checkpoint version must be > 0", name)
	}
	gf, err := s.graphOrCreate(name, kind)
	if err != nil {
		return err
	}
	gf.mu.Lock()
	defer gf.mu.Unlock()
	if gf.removed {
		return fmt.Errorf("%w: %q was removed", ErrUnknown, name)
	}
	if err := os.MkdirAll(gf.dir, 0o755); err != nil {
		return err
	}
	ckpt := checkpointPath(gf.dir, version)
	tmp, err := stageFile(ckpt, s.opts.Fsync, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
	if err != nil {
		return err
	}
	// Wipe the previous incarnation's state before installing.
	gf.closeWALLocked()
	os.Remove(gf.walPath())
	removeStale(gf.dir, checkpointName(version), false)
	if err := installStaged(tmp, ckpt); err != nil {
		return err
	}
	if err := s.writeMeta(gf.dir, meta{
		Name: name, Kind: lagraph.KindName(kind),
		CheckpointVersion: version,
		Epoch:             epoch,
		SavedAt:           time.Now().UTC().Format(time.RFC3339),
	}); err != nil {
		return err
	}
	gf.ckptVersion = version
	gf.epoch = epoch
	gf.kind = kind
	gf.walSize = 0
	gf.walRecords = 0
	gf.lastAppend = 0
	gf.walDirty = false
	gf.revertFloor = 0
	s.checkpoints.Inc()
	s.ckptBytes.Add(float64(len(data)))
	return nil
}

// Epoch reports the graph's current incarnation id ("" if untracked).
func (s *Store) Epoch(name string) string {
	gf := s.graph(name)
	if gf == nil {
		return ""
	}
	gf.mu.Lock()
	defer gf.mu.Unlock()
	return gf.epoch
}

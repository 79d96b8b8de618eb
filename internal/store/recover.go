package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
	"lagraph/internal/registry"
	"lagraph/internal/stream"
)

// RecoveryReport summarizes one boot-time recovery for the boot log.
type RecoveryReport struct {
	GraphsRecovered int      `json:"graphs_recovered"`
	BatchesReplayed int      `json:"batches_replayed"`
	OpsReplayed     int      `json:"ops_replayed"`
	StaleSkipped    int      `json:"stale_records_skipped"`
	Failed          []string `json:"failed,omitempty"` // "name: reason"
	Seconds         float64  `json:"seconds"`
}

// RecoverInto rebuilds the registry from the store: each persisted graph
// is deserialized from its checkpoint, restored under its recorded
// version, and its WAL tail is replayed through eng's ordinary Apply path
// — the same code that applied the batches the first time — so the
// recovered incarnations carry the same versions and the same pending
// delta state, and result-cache keys minted before the restart stay
// meaningful.
//
// Call it with eng's journal *not yet attached* (stream.Engine.SetJournal
// comes after), otherwise replayed batches would be re-appended to the
// very WAL they came from.
//
// Per-graph failures — an unreadable checkpoint, a version gap in the
// WAL, a registry budget miss — skip that graph (its files stay on disk
// for inspection) and are reported; they do not abort the rest.
func (s *Store) RecoverInto(reg *registry.Registry, eng *stream.Engine) RecoveryReport {
	start := time.Now()
	var rep RecoveryReport

	for _, gf := range s.tracked() {
		if err := recoverOne(reg, eng, gf, &rep); err != nil {
			rep.Failed = append(rep.Failed, fmt.Sprintf("%s: %v", gf.name, err))
			// The graph may be half-restored (checkpoint in, replay
			// failed): drop the partial incarnation so the registry never
			// serves state the WAL says is stale.
			_ = reg.Remove(gf.name)
		}
	}
	rep.Seconds = time.Since(start).Seconds()
	s.recMu.Lock()
	s.recovery = &rep
	s.recMu.Unlock()
	return rep
}

// recoverOne restores one graph: checkpoint, then WAL tail.
func recoverOne(reg *registry.Registry, eng *stream.Engine, gf *graphFile, rep *RecoveryReport) error {
	gf.mu.Lock()
	name, dir, kind, version := gf.name, gf.dir, gf.kind, gf.ckptVersion
	gf.mu.Unlock()

	f, err := os.Open(checkpointPath(dir, version))
	if err != nil {
		return err
	}
	A, err := grb.DeserializeMatrix[float64](f)
	f.Close()
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	g, err := lagraph.New(&A, kind)
	if err != nil {
		return err
	}
	if _, err := reg.Restore(name, g, version); err != nil {
		return err
	}
	rep.GraphsRecovered++

	recs, _, _, err := readWAL(gf.walPath())
	if err != nil {
		return err
	}
	return replay(eng, name, version, recs, rep)
}

// errVersionGap reports a hole in a batch sequence handed to replay.
var errVersionGap = errors.New("version gap")

// replay applies the batches recorded after version `after` through eng's
// ordinary Apply, counting them into rep. Batches at or below the cursor
// were superseded by the checkpoint (a crash between the meta flip and the
// WAL rewrite leaves them behind, harmlessly) and are counted as stale; the
// rest must be contiguous (errVersionGap otherwise) and each must publish
// exactly the version recorded.
func replay(eng *stream.Engine, name string, after uint64, batches []walRecord, rep *RecoveryReport) error {
	for _, b := range batches {
		if b.Version <= after {
			rep.StaleSkipped++
			continue
		}
		if b.Version != after+1 {
			return fmt.Errorf("replay: %w: have v%d, next batch is v%d", errVersionGap, after, b.Version)
		}
		res, err := eng.Apply(name, b.Ops)
		if err != nil {
			return fmt.Errorf("replay v%d: %w", b.Version, err)
		}
		if res.Version != b.Version {
			return fmt.Errorf("replay published v%d, recorded v%d", res.Version, b.Version)
		}
		after = b.Version
		rep.BatchesReplayed++
		rep.OpsReplayed += len(b.Ops)
	}
	return nil
}

// walPath needs no lock: dir is immutable after the handle is created.
func (gf *graphFile) walPath() string { return filepath.Join(gf.dir, "wal.log") }

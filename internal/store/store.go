// Package store is lagraphd's durable persistence layer: a per-graph
// write-ahead log plus full binary snapshot checkpoints under one data
// directory, so a restarted daemon serves the same graphs, at the same
// registry versions, with the same pending delta state as before the
// crash — the restart-safe, reproducible substrate the paper's "study of
// graph algorithms" framing calls for.
//
// Layout, one subdirectory per graph (directory names are hex-encoded so
// any registry name is a safe path):
//
//	<data-dir>/g-<hex(name)>/
//	    meta.json            graph name, kind, checkpoint version
//	    checkpoint-<V>.bin   grb.SerializeMatrix snapshot at version V
//	    wal.log              mutation batches published after V
//
// Writing order is durability before visibility: a mutation batch is
// appended (and optionally fsynced) to the WAL before the stream engine
// publishes its snapshot, and a batch whose publication fails is taken
// back off the log. Checkpoints — written when a graph is first loaded
// and whenever a stream compaction folds a delta log into its base —
// land as checkpoint-<V>.bin via temp+rename, then meta.json flips to V,
// then WAL records with version <= V are dropped. Compaction is what
// bounds the WAL: every record since the last checkpoint is a logged
// delta op, and the log schedules a compaction, ending in a checkpoint,
// at the stream engine's size or ratio threshold.
// Every step is crash-safe: an orphaned checkpoint or a stale WAL prefix
// is cleaned or skipped on the next Open; every install goes through
// stageFile + installStaged, the seam for a fault-injecting filesystem.
//
// Recovery (RecoverInto) rebuilds the registry by deserializing each
// graph's checkpoint, restoring it at its recorded version, and replaying
// the WAL tail through the stream engine's ordinary Apply path — so the
// rebuilt incarnations carry the same versions, and cached-result keys
// minted before the crash mean the same thing after it.
package store

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
	"lagraph/internal/obs"
	"lagraph/internal/registry"
	"lagraph/internal/stream"
)

// Store errors, distinguishable by errors.Is.
var (
	ErrClosed  = errors.New("store: closed")
	ErrUnknown = errors.New("store: graph has no durable state")
)

// Options configures a store.
type Options struct {
	// Dir is the data directory. Created if missing.
	Dir string
	// Fsync syncs the WAL after every appended batch and checkpoint files
	// before their rename. Disabling trades crash-durability of the most
	// recent writes for speed (the files stay structurally valid either
	// way: recovery drops a torn tail).
	Fsync bool
}

// meta is the per-graph meta.json payload. Older directories also carry
// an "epoch" key; decoding ignores it and Open leaves the file as it is.
// Two incarnations of one name never share a WAL: SaveGraph wipes the
// old one's files before the new checkpoint lands.
type meta struct {
	Name              string `json:"name"`
	Kind              string `json:"kind"` // "directed" | "undirected"
	CheckpointVersion uint64 `json:"checkpoint_version"`
	SavedAt           string `json:"saved_at"`
}

// graphFile is the in-memory handle on one graph's on-disk state. mu
// serializes all file operations for the graph; different graphs proceed
// in parallel.
type graphFile struct {
	mu   sync.Mutex
	dir  string
	name string
	kind lagraph.Kind

	ckptVersion uint64 // version meta.json points at
	wal         *os.File
	walSize     int64
	walRecords  int
	lastAppend  int64  // file offset before the most recent append
	walDirty    bool   // a failed append/revert left bad state; rebuild before appending
	revertFloor uint64 // when > 0, records at/above this version are unacknowledged and must be dropped
	removed     bool   // the graph was deleted; late writers must not resurrect it
}

// Store is the durable graph store.
type Store struct {
	opts Options

	mu      sync.Mutex
	graphs  map[string]*graphFile
	closed  bool
	skipped []string // dirs Open could not serve, fixed at Open time
	lock    *os.File // flock on <dir>/LOCK, held for the store's lifetime

	wg      sync.WaitGroup // background tombstone reclamation
	tombSeq atomic.Int64

	// Store telemetry lives in a private obs registry created by Open
	// (the store predates the server in boot order); the server composes
	// it into the scraped exposition via Registry.AddSource(store.Obs()).
	obsReg      *obs.Registry
	appends     *obs.Counter
	appendBytes *obs.Counter
	reverts     *obs.Counter
	checkpoints *obs.Counter
	ckptBytes   *obs.Counter
	removals    *obs.Counter
	appendSecs  *obs.Histogram
	ckptSecs    *obs.Histogram

	// last recovery outcome, for the boot log and the recovery gauges.
	recMu    sync.Mutex
	recovery *RecoveryReport
}

// Stats is the store's counter snapshot, for the boot log and benchmarks.
type Stats struct {
	Dir   string `json:"dir"`
	Fsync bool   `json:"fsync"`

	GraphsPersisted int   `json:"graphs_persisted"`
	WALRecords      int64 `json:"wal_records"`
	WALBytes        int64 `json:"wal_bytes"`

	Appends         int64 `json:"wal_appends"`
	AppendBytes     int64 `json:"wal_append_bytes"`
	Reverts         int64 `json:"wal_reverts"`
	Checkpoints     int64 `json:"checkpoints"`
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	Removals        int64 `json:"removals"`

	// SkippedDirs lists data-directory entries Open could not serve
	// (mangled meta, missing checkpoint); their files are left in place.
	SkippedDirs []string `json:"skipped_dirs,omitempty"`

	Recovery *RecoveryReport `json:"recovery,omitempty"`
}

// Open opens (creating if needed) the store rooted at opts.Dir, scanning
// existing graph directories, repairing torn WAL tails, and removing
// orphaned temp and superseded checkpoint files.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("store: empty data directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// One store per data directory, enforced with an advisory lock: two
	// daemons interleaving WAL appends and checkpoint renames would
	// corrupt the very state both depend on for recovery.
	lock, err := os.OpenFile(filepath.Join(opts.Dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, fmt.Errorf("store: data dir %s is locked by another process: %w", opts.Dir, err)
	}
	o := obs.NewRegistry()
	s := &Store{
		opts:   opts,
		graphs: make(map[string]*graphFile),
		lock:   lock,

		obsReg:      o,
		appends:     o.Counter("store_wal_appends_total", "Mutation batches appended to a WAL."),
		appendBytes: o.Counter("store_wal_append_bytes_total", "Bytes appended to WALs."),
		reverts:     o.Counter("store_wal_reverts_total", "Unacknowledged WAL records removed after a failed publication."),
		checkpoints: o.Counter("store_checkpoints_total", "Checkpoint snapshots written."),
		ckptBytes:   o.Counter("store_checkpoint_bytes_total", "Bytes of checkpoint snapshots written."),
		removals:    o.Counter("store_removals_total", "Graphs removed from durable storage."),
		appendSecs: o.Histogram("store_wal_append_seconds",
			"WAL append latency, including the fsync when enabled.", nil),
		ckptSecs: o.Histogram("store_checkpoint_seconds",
			"Checkpoint duration: serialization through meta flip and WAL trim.", nil),
	}
	o.GaugeFunc("store_graphs_persisted", "Graphs with durable on-disk state.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.graphs))
		})
	o.GaugeFunc("store_wal_records", "Live WAL records summed over graphs.",
		func() float64 { r, _ := s.walTotals(); return float64(r) })
	o.GaugeFunc("store_wal_bytes", "Live WAL bytes summed over graphs.",
		func() float64 { _, b := s.walTotals(); return float64(b) })
	o.GaugeFunc("store_recovered_graphs", "Graphs restored by the last recovery (0 before recovery).",
		func() float64 {
			s.recMu.Lock()
			defer s.recMu.Unlock()
			if s.recovery == nil {
				return 0
			}
			return float64(s.recovery.GraphsRecovered)
		})
	o.GaugeFunc("store_recovery_replayed_batches", "WAL batches replayed by the last recovery.",
		func() float64 {
			s.recMu.Lock()
			defer s.recMu.Unlock()
			if s.recovery == nil {
				return 0
			}
			return float64(s.recovery.BatchesReplayed)
		})
	o.GaugeFunc("store_recovery_seconds", "Wall time of the last recovery.",
		func() float64 {
			s.recMu.Lock()
			defer s.recMu.Unlock()
			if s.recovery == nil {
				return 0
			}
			return s.recovery.Seconds
		})
	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		lock.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, ent := range entries {
		if ent.IsDir() && strings.HasPrefix(ent.Name(), "tomb-") {
			// A deletion whose space reclamation never finished (crash
			// mid-RemoveAll): the rename already made it invisible, so just
			// resume reclaiming.
			os.RemoveAll(filepath.Join(opts.Dir, ent.Name()))
			continue
		}
		if !ent.IsDir() || !strings.HasPrefix(ent.Name(), "g-") {
			continue
		}
		dir := filepath.Join(opts.Dir, ent.Name())
		gf, err := openGraphDir(dir)
		if err != nil {
			// A directory we cannot make sense of is left in place (it may
			// be someone else's data, or a graph whose meta a crash
			// mangled) but not served — and the skip is reported, never
			// silent: a durable graph disappearing must have a trace.
			s.skipped = append(s.skipped, fmt.Sprintf("%s: %v", ent.Name(), err))
			continue
		}
		s.graphs[gf.name] = gf
	}
	return s, nil
}

// SkippedDirs reports the directories Open could not serve and why.
func (s *Store) SkippedDirs() []string { return append([]string(nil), s.skipped...) }

// Healthy probes the store's ability to accept writes: the store is
// open (directory lock still held) and the data directory is writable.
// A read-only remount or a vanished directory flips the /healthz store
// component before the next WAL append discovers it the hard way. The
// probe file is a plain entry Open's directory scan ignores.
func (s *Store) Healthy() (ok bool, detail string) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return false, "store closed (data-dir lock released)"
	}
	probe := filepath.Join(s.opts.Dir, ".healthprobe.tmp")
	f, err := os.OpenFile(probe, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return false, "data dir not writable: " + err.Error()
	}
	_, werr := f.WriteString("ok")
	f.Close()
	os.Remove(probe)
	if werr != nil {
		return false, "data dir write failed: " + werr.Error()
	}
	return true, ""
}

// Obs returns the store's private metrics registry, for composition into
// a scraped registry via AddSource.
func (s *Store) Obs() *obs.Registry { return s.obsReg }

// tracked lists the handle of every tracked graph, in name order.
func (s *Store) tracked() []*graphFile {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.SortedFunc(maps.Values(s.graphs), func(a, b *graphFile) int { return strings.Compare(a.name, b.name) })
}

// walTotals sums live WAL records and bytes over all tracked graphs.
func (s *Store) walTotals() (records, bytes int64) {
	for _, gf := range s.tracked() {
		gf.mu.Lock()
		records += int64(gf.walRecords)
		bytes += gf.walSize
		gf.mu.Unlock()
	}
	return records, bytes
}

// openGraphDir validates one graph directory: reads meta.json, checks the
// checkpoint file exists, repairs the WAL tail, and deletes temp orphans.
func openGraphDir(dir string) (*graphFile, error) {
	mb, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return nil, err
	}
	var m meta
	if err := json.Unmarshal(mb, &m); err != nil {
		return nil, err
	}
	kind, err := lagraph.ParseKind(m.Kind)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", dir, err)
	}
	if m.Name == "" || m.CheckpointVersion == 0 {
		return nil, fmt.Errorf("store: %s: incomplete meta", dir)
	}
	if _, err := os.Stat(checkpointPath(dir, m.CheckpointVersion)); err != nil {
		return nil, err
	}
	// Drop temp files and checkpoints meta no longer points at (both are
	// crash leftovers).
	removeStale(dir, checkpointName(m.CheckpointVersion), true)
	gf := &graphFile{dir: dir, name: m.Name, kind: kind, ckptVersion: m.CheckpointVersion}
	// Repair a torn tail now so appends land after the last good record.
	walPath := filepath.Join(dir, "wal.log")
	recs, goodLen, torn, err := readWAL(walPath)
	if err != nil {
		return nil, err
	}
	if torn {
		if err := os.Truncate(walPath, goodLen); err != nil {
			return nil, err
		}
	}
	gf.walRecords = len(recs)
	gf.walSize = goodLen
	return gf, nil
}

func dirForName(root, name string) string {
	return filepath.Join(root, "g-"+hex.EncodeToString([]byte(name)))
}

func checkpointName(version uint64) string { return fmt.Sprintf("checkpoint-%d.bin", version) }

func checkpointPath(dir string, version uint64) string {
	return filepath.Join(dir, checkpointName(version))
}

// graph returns the tracked handle for name, or nil.
func (s *Store) graph(name string) *graphFile {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.graphs[name]
}

// graphOrCreate returns (creating if needed) the handle for name.
func (s *Store) graphOrCreate(name string, kind lagraph.Kind) (*graphFile, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	gf := s.graphs[name]
	if gf == nil {
		gf = &graphFile{dir: dirForName(s.opts.Dir, name), name: name, kind: kind}
		s.graphs[name] = gf
	}
	return gf, nil
}

// AppendBatch implements stream.Journal: it durably appends one accepted
// mutation batch, stamped with the version its publication will produce,
// before that publication happens. A graph with no checkpoint on disk
// rejects the append — a WAL with no base to replay against is garbage.
func (s *Store) AppendBatch(name string, version uint64, ops []stream.Op) error {
	gf := s.graph(name)
	if gf == nil {
		return fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	payload, err := encodeBatch(version, ops)
	if err != nil {
		return err
	}
	gf.mu.Lock()
	defer gf.mu.Unlock()
	if gf.ckptVersion == 0 {
		return fmt.Errorf("%w: %q has no checkpoint", ErrUnknown, name)
	}
	if gf.walDirty {
		// A previous append left a partial frame it could not truncate
		// away: rebuild the file from its good records before appending,
		// otherwise this (acknowledged) record would land after garbage
		// and be discarded as a torn tail at recovery.
		if err := gf.repairWALLocked(s.opts.Fsync); err != nil {
			return err
		}
	}
	if gf.wal == nil {
		f, size, err := openWALForAppend(gf.walPath())
		if err != nil {
			return err
		}
		gf.wal = f
		gf.walSize = size
	}
	gf.lastAppend = gf.walSize
	appendStart := time.Now()
	n, err := appendRecord(gf.wal, payload, s.opts.Fsync)
	s.appendSecs.Observe(time.Since(appendStart).Seconds())
	if err != nil {
		// The file may now hold a partial frame; drop it so the next
		// append starts clean. If even the truncate fails, poison the
		// handle: the next append must rebuild from the good records
		// rather than trust the physical end of the file.
		if gf.truncateLocked(gf.walSize) != nil {
			gf.closeWALLocked()
			gf.walDirty = true
		}
		return err
	}
	gf.walSize += n
	gf.walRecords++
	s.appends.Inc()
	s.appendBytes.Add(float64(n))
	return nil
}

// repairWALLocked rebuilds the WAL from its parseable prefix, dropping
// any trailing garbage a failed append left behind and any record a
// failed revert could not remove (revertFloor). Called with gf.mu held.
func (gf *graphFile) repairWALLocked(fsync bool) error {
	gf.closeWALLocked()
	recs, _, _, err := readWAL(gf.walPath())
	if err != nil {
		return err
	}
	if gf.revertFloor > 0 {
		recs = recordsBetween(recs, 0, gf.revertFloor)
	}
	size, err := writeWAL(gf.walPath(), recs, fsync)
	if err != nil {
		return err
	}
	gf.walSize = size
	gf.walRecords = len(recs)
	gf.lastAppend = 0
	gf.walDirty = false
	gf.revertFloor = 0
	return nil
}

// RevertBatch implements stream.Journal: it removes the just-appended
// record for version after a failed publication, by truncation when the
// file has not moved underneath (the common case) and otherwise by
// rewriting the WAL without any record at or past version. Best-effort:
// if both fail, the record stays on disk and the handle is poisoned, so
// the next append rebuilds the WAL without it. Until that append the
// window is open: should the process die first, the record's version is
// exactly one past the last acknowledged one, and boot-time replay
// applies the rejected batch.
func (s *Store) RevertBatch(name string, version uint64) {
	gf := s.graph(name)
	if gf == nil {
		return
	}
	gf.mu.Lock()
	defer gf.mu.Unlock()
	// Fast path: nothing rewrote the file since the append — truncate the
	// tail record off.
	if gf.lastAppend > 0 && gf.lastAppend < gf.walSize {
		if gf.truncateLocked(gf.lastAppend) == nil {
			gf.walSize = gf.lastAppend
			gf.lastAppend = 0
			gf.walRecords--
			s.reverts.Inc()
			return
		}
	}
	// Slow path (a checkpoint rewrite moved offsets): filter by version.
	recs, _, _, err := readWAL(gf.walPath())
	if err == nil {
		keep := recordsBetween(recs, 0, version)
		if len(keep) == len(recs) {
			return
		}
		gf.closeWALLocked()
		if size, werr := writeWAL(gf.walPath(), keep, s.opts.Fsync); werr == nil {
			gf.walSize = size
			gf.walRecords = len(keep)
			s.reverts.Inc()
			return
		}
	}
	// Both paths failed: the unacknowledged record is still on disk, and
	// it occupies exactly the version slot the next acknowledged batch
	// will reuse — recovery would replay the rejected ops and then abort
	// the graph on the duplicate version. Poison the handle so the next
	// append rebuilds the WAL without any record at or past this version.
	gf.closeWALLocked()
	gf.walDirty = true
	if gf.revertFloor == 0 || version < gf.revertFloor {
		gf.revertFloor = version
	}
}

// truncateLocked truncates the open WAL to size. Called with gf.mu held.
func (gf *graphFile) truncateLocked(size int64) error {
	if gf.wal == nil {
		return nil
	}
	return gf.wal.Truncate(size)
}

func (gf *graphFile) closeWALLocked() {
	if gf.wal != nil {
		gf.wal.Close()
		gf.wal = nil
	}
}

// Checkpoint implements stream.Journal: it writes a full binary snapshot
// of an already-persisted graph at version, flips meta.json to it, and
// drops the WAL records it supersedes (records with a version at or
// below the checkpoint's). A graph the store does not track — never
// saved, or deleted — is refused: only SaveGraph may create state, so a
// checkpoint racing a DELETE can never resurrect the graph.
func (s *Store) Checkpoint(name string, kind lagraph.Kind, m *grb.Matrix[float64], version uint64) error {
	gf := s.graph(name)
	if gf == nil {
		return fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	return s.checkpointInto(gf, name, kind, m, version, false)
}

// checkpointInto is the shared checkpoint body behind Checkpoint and
// SaveGraph. With fresh set (SaveGraph: a brand-new incarnation of the
// name) any pre-existing durable state — stale checkpoints and WAL
// records from a dead incarnation, possibly at *higher* versions after a
// partial recovery — is wiped rather than merged, so an acknowledged
// load is always exactly what lands on disk. Without fresh (the journal
// path) checkpoints only move forward: a stale writer (a compaction's
// checkpoint of a version SaveGraph has since replaced) is a no-op, because regressing meta would orphan the WAL
// records the newer checkpoint already dropped.
//
// The matrix serialization — the expensive part — runs outside gf.mu so
// a checkpoint of a large graph does not stall that graph's mutation
// appends; only the rename, meta flip, and WAL trim hold the lock.
func (s *Store) checkpointInto(gf *graphFile, name string, kind lagraph.Kind, m *grb.Matrix[float64], version uint64, fresh bool) error {
	ckptStart := time.Now()
	gf.mu.Lock()
	if gf.removed {
		gf.mu.Unlock()
		return fmt.Errorf("%w: %q was removed", ErrUnknown, name)
	}
	if !fresh && gf.ckptVersion >= version {
		gf.mu.Unlock()
		return nil
	}
	if err := os.MkdirAll(gf.dir, 0o755); err != nil {
		gf.mu.Unlock()
		return err
	}
	gf.mu.Unlock()

	// 1. Serialize the snapshot to a uniquely named temp file, off the
	// lock (the matrix is finalized and immutable; concurrent writers get
	// distinct temp names and resolve by version under the lock below).
	ckpt := checkpointPath(gf.dir, version)
	tmp, err := stageFile(ckpt, s.opts.Fsync, func(f *os.File) error { return grb.SerializeMatrix(f, m) })
	if err != nil {
		return err
	}

	gf.mu.Lock()
	defer gf.mu.Unlock()
	// Re-check: a DELETE or a newer checkpoint may have won the race
	// while we serialized.
	if gf.removed {
		os.Remove(tmp)
		return fmt.Errorf("%w: %q was removed", ErrUnknown, name)
	}
	if !fresh && gf.ckptVersion >= version {
		os.Remove(tmp)
		return nil
	}
	if fresh {
		// Wipe any dead incarnation's state before installing the new one
		// — unconditionally, not just when this handle knows a checkpoint
		// version: a directory Open skipped (mangled meta) re-enters here
		// with ckptVersion 0 but can still hold a stale wal.log and
		// checkpoint files whose records must never replay onto the new
		// base.
		gf.closeWALLocked()
		os.Remove(gf.walPath())
		removeStale(gf.dir, "", false)
		gf.ckptVersion = 0
		gf.walSize = 0
		gf.walRecords = 0
		gf.lastAppend = 0
		gf.walDirty = false
	}
	if err := installStaged(tmp, ckpt); err != nil {
		return err
	}
	st, _ := os.Stat(ckpt)
	// 2. Flip meta to the new checkpoint, fsynced through the same
	// temp+rename discipline as the snapshot itself. A crash before this
	// point recovers from the old checkpoint + full WAL; after it, from
	// the new checkpoint + the surviving tail.
	oldVersion := gf.ckptVersion
	if err := s.writeMeta(gf.dir, meta{
		Name: name, Kind: lagraph.KindName(kind),
		CheckpointVersion: version,
		SavedAt:           time.Now().UTC().Format(time.RFC3339),
	}); err != nil {
		return err
	}
	gf.ckptVersion = version
	gf.kind = kind
	if oldVersion != 0 && oldVersion != version {
		os.Remove(checkpointPath(gf.dir, oldVersion))
	}
	// 3. Drop superseded WAL records; keep the tail published after the
	// checkpoint. Concurrent appends are excluded by gf.mu.
	walPath := gf.walPath()
	recs, _, _, err := readWAL(walPath)
	if err == nil {
		keep := recordsBetween(recs, version, noVersion)
		gf.closeWALLocked()
		if len(keep) == 0 {
			os.Remove(walPath)
			gf.walSize = 0
			gf.walRecords = 0
		} else if size, err := writeWAL(walPath, keep, s.opts.Fsync); err == nil {
			gf.walSize = size
			gf.walRecords = len(keep)
		}
		gf.lastAppend = 0
	}
	s.checkpoints.Inc()
	if st != nil {
		s.ckptBytes.Add(float64(st.Size()))
	}
	s.ckptSecs.Observe(time.Since(ckptStart).Seconds())
	return nil
}

// writeMeta installs meta.json via synced temp + rename.
func (s *Store) writeMeta(dir string, m meta) error {
	mb, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return installFile(filepath.Join(dir, "meta.json"), s.opts.Fsync, func(f *os.File) error {
		_, err := f.Write(mb)
		return err
	})
}

// tmpSeq makes temp-file names unique within the process: concurrent
// checkpoint writers stage off the graph lock and must not share a name.
var tmpSeq atomic.Int64

// stageFile writes a uniquely named temp sibling of path through write,
// syncs it iff fsync, closes it and returns its name; on any error the
// temp file is removed. Every durable file but the append-only WAL handle
// (checkpoints, meta.json, rewritten WALs) is born here and nowhere else.
func stageFile(path string, fsync bool, write func(f *os.File) error) (tmp string, err error) {
	tmp = fmt.Sprintf("%s.tmp%d", path, tmpSeq.Add(1))
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", err
	}
	err = write(f)
	if err == nil && fsync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return "", err
	}
	return tmp, nil
}

// installStaged renames a staged temp file over path, removing it when
// the rename fails.
func installStaged(tmp, path string) error {
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// installFile atomically replaces path with what write produces: stage,
// then rename.
func installFile(path string, fsync bool, write func(f *os.File) error) error {
	tmp, err := stageFile(path, fsync, write)
	if err != nil {
		return err
	}
	return installStaged(tmp, path)
}

// removeStale deletes crash and dead-incarnation leftovers from a graph
// directory: every checkpoint-*.bin other than keep ("" keeps none) and,
// with temps set, every temp file. Best-effort: the next Open retries.
func removeStale(dir, keep string, temps bool) {
	files, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, f := range files {
		n := f.Name()
		if (temps && strings.Contains(n, ".tmp")) ||
			(strings.HasPrefix(n, "checkpoint-") && strings.HasSuffix(n, ".bin") && n != keep) {
			os.Remove(filepath.Join(dir, n))
		}
	}
}

// SaveGraph persists a freshly loaded graph: a checkpoint at its load
// version with an empty WAL, wiping whatever a previous incarnation of
// the name left behind. It is the POST /graphs counterpart of the stream
// engine's journal hooks, and the only path allowed to create a graph's
// durable state.
func (s *Store) SaveGraph(name string, g *lagraph.Graph[float64], version uint64) error {
	gf, err := s.graphOrCreate(name, g.Kind)
	if err != nil {
		return err
	}
	return s.checkpointInto(gf, name, g.Kind, g.A, version, true)
}

// RemoveGraph deletes every trace of the graph from disk. The visible
// part is one atomic rename to a tombstone — cheap, because the caller
// may be the registry's removal listener, which runs under the registry
// mutex — and the actual space reclamation happens on a background
// goroutine (resumed by Open after a crash). Missing state is not an
// error (the graph may predate the store or have been evicted without
// ever being persisted).
func (s *Store) RemoveGraph(name string) error {
	s.mu.Lock()
	gf := s.graphs[name]
	delete(s.graphs, name)
	s.mu.Unlock()
	dir := dirForName(s.opts.Dir, name)
	if gf != nil {
		gf.mu.Lock()
		gf.removed = true
		gf.closeWALLocked()
		dir = gf.dir
		gf.mu.Unlock()
	}
	tomb := filepath.Join(filepath.Dir(dir), fmt.Sprintf("tomb-%d-%s", s.tombSeq.Add(1), filepath.Base(dir)))
	if err := os.Rename(dir, tomb); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	s.removals.Inc()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return os.RemoveAll(tomb)
	}
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		os.RemoveAll(tomb)
	}()
	return nil
}

// Attach registers the store's removal listener on the registry: an
// explicit DELETE drops the on-disk state; an LRU eviction keeps it (the
// durable copy is exactly what makes eviction safe to survive). Call it
// only after RecoverInto: recovery unregisters half-restored graphs via
// reg.Remove, and those must keep their files for inspection, not have
// this listener delete them.
func (s *Store) Attach(reg *registry.Registry) {
	reg.AddRemoveListener(func(name string, reason registry.RemoveReason) {
		if reason == registry.RemoveExplicit {
			// Best-effort: a failed unlink leaves the graph to reappear on
			// the next boot, which is visible (and fixable) rather than
			// silently divergent.
			_ = s.RemoveGraph(name)
		}
	})
}

// StatsSnapshot returns the store counters, read back from the same obs
// instruments the Prometheus exposition renders.
func (s *Store) StatsSnapshot() Stats {
	s.mu.Lock()
	n := len(s.graphs)
	s.mu.Unlock()
	recs, bytes := s.walTotals()
	s.recMu.Lock()
	rec := s.recovery
	s.recMu.Unlock()
	return Stats{
		Dir:             s.opts.Dir,
		Fsync:           s.opts.Fsync,
		SkippedDirs:     s.SkippedDirs(),
		GraphsPersisted: n,
		WALRecords:      recs,
		WALBytes:        bytes,
		Appends:         s.appends.Int(),
		AppendBytes:     s.appendBytes.Int(),
		Reverts:         s.reverts.Int(),
		Checkpoints:     s.checkpoints.Int(),
		CheckpointBytes: s.ckptBytes.Int(),
		Removals:        s.removals.Int(),
		Recovery:        rec,
	}
}

// Close waits for background tombstone reclamation and closes open WAL
// handles. Everything on disk is already durable; Close exists so tests
// and daemons can release file descriptors deterministically.
func (s *Store) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	gfs := slices.Collect(maps.Values(s.graphs))
	s.mu.Unlock()
	s.wg.Wait()
	for _, gf := range gfs {
		gf.mu.Lock()
		gf.closeWALLocked()
		gf.mu.Unlock()
	}
	if s.lock != nil {
		s.lock.Close() // closing drops the flock
	}
}

// interface conformance.
var _ stream.Journal = (*Store)(nil)

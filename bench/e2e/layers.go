package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lagraph/internal/algo"
	"lagraph/internal/grb"
	"lagraph/internal/jobs"
	"lagraph/internal/lagraph"
	"lagraph/internal/parallel"
	"lagraph/internal/registry"
	"lagraph/internal/store"
	"lagraph/internal/stream"
)

// onion is the traced run's own copy of every layer below the HTTP server,
// each driven from outside at its public entry point: a registry holding
// the same graphs as the served ones, a stream engine without a journal, a
// store in its own directory, a jobs engine, the catalog. A traced pass
// first does what every pass does over the socket, then replays the same
// work here layer by layer and records a span around each call, so the
// socket-to-socket numbers can be split by layer without a single probe
// inside the program.
type onion struct {
	reg    *registry.Registry
	stream *stream.Engine
	store  *store.Store
	jobs   *jobs.Engine
	cat    *algo.Catalog
	keys   atomic.Uint64 // unique jobs keys

	compactions atomic.Int64 // replica compactions scheduled so far

	mu      sync.Mutex
	version map[string]uint64 // shadow store's version per graph
}

// newOnion builds the layer replicas from the mirrors as they stand now.
func newOnion(r *run, dir string) (*onion, error) {
	sto, err := store.Open(store.Options{Dir: dir, Fsync: true})
	if err != nil {
		return nil, err
	}
	o := &onion{
		reg:     registry.New(0),
		store:   sto,
		jobs:    jobs.NewEngine(jobs.Options{Workers: runtime.GOMAXPROCS(0)}),
		cat:     algo.Default(),
		version: map[string]uint64{},
	}
	o.stream = stream.NewEngine(o.reg, stream.Options{})
	for _, m := range r.st.mirrors {
		ptr, idx, val := m.csr()
		start := time.Now()
		A, err := grb.ImportCSR(m.n, m.n, ptr, idx, val, false)
		r.sample("grb.import_ms", ms(time.Since(start)))
		if err != nil {
			o.close()
			return nil, err
		}
		g, err := lagraph.New(&A, lagraph.AdjacencyUndirected)
		if err != nil {
			o.close()
			return nil, err
		}
		entry, err := o.reg.Add(m.name, g)
		if err != nil {
			o.close()
			return nil, err
		}
		if err := sto.SaveGraph(m.name, g, entry.Version()); err != nil {
			o.close()
			return nil, err
		}
		o.version[m.name] = entry.Version()
	}
	return o, nil
}

func (o *onion) close() {
	o.jobs.Close()
	o.stream.Close()
	o.store.Close()
}

// passRecord is what a pass hands to its replay: the queries it sent and
// what the socket and the baseline took for each.
type passRecord struct {
	ops    []stream.Op
	query  [6]query
	coldMS [6]float64
	gapMS  [6]float64
}

// lap times f and records it as a span under parent and a sample (in the
// unit the name's suffix says: _ms, _us) divided by reps.
func (r *run) lap(cl *client, p, parent int, name, layer string, reps int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	r.tr.add(parent, name, layer, cl.id, p, start, end)
	d := end.Sub(start) / time.Duration(reps)
	r.sample(layer+"."+name, float64(d.Nanoseconds())/1e3)
	return d
}

// replay redoes one pass's work at each layer's entry point.
func (o *onion) replay(r *run, cl *client, p, root int, m *mirror, rec *passRecord) error {
	rp := r.tr.open(root, "replay", "bench", cl.id, p, time.Now())
	defer func() { r.tr.close(rp, time.Now()) }()
	ctx := context.Background()

	// The write path: stream apply (no journal), then the WAL append the
	// journal would have done.
	mu := r.tr.open(rp, "replay.mutate", "server", cl.id, p, time.Now())
	var (
		res stream.Result
		err error
	)
	r.lap(cl, p, mu, "apply", "stream", 1, func() { res, err = o.stream.Apply(m.name, rec.ops) })
	if err == nil && res.Edges != m.nnz {
		err = fmt.Errorf("replica has %d edges after the batch, mirror %d", res.Edges, m.nnz)
	}
	if err != nil {
		return fmt.Errorf("replay %s: %w", m.name, err)
	}
	if res.CompactionScheduled {
		// As on the served stack: no background merge under a timed call.
		for want := o.compactions.Add(1); o.stream.StatsSnapshot().Compactions < want; {
			time.Sleep(200 * time.Microsecond)
		}
	}
	o.mu.Lock()
	o.version[m.name]++
	version := o.version[m.name]
	o.mu.Unlock()
	r.lap(cl, p, mu, "append", "store", 1, func() { err = o.store.AppendBatch(m.name, version, rec.ops) })
	r.tr.close(mu, time.Now())
	if err != nil {
		return fmt.Errorf("replay %s: %w", m.name, err)
	}

	// The first-query-after-write path: lease, finalize, properties.
	fi := r.tr.open(rp, "replay.first", "server", cl.id, p, time.Now())
	lease, err := o.reg.Acquire(m.name)
	if err != nil {
		return err
	}
	defer lease.Release()
	entry, g := lease.Entry(), lease.Graph()
	r.lap(cl, p, fi, "finalize", "registry", 1, entry.EnsureFinalized)
	r.lap(cl, p, fi, "materialize_at", "registry", 1, func() { err = entry.EnsureProperties(registry.PropAT) })
	if err != nil {
		return err
	}
	r.lap(cl, p, fi, "materialize_deg", "registry", 1, func() { err = entry.EnsureProperties(registry.PropRowDegree) })
	r.tr.close(fi, time.Now())
	if err != nil {
		return err
	}

	// The six kernels, straight through the catalog with warm properties.
	for k, name := range kernels {
		d, err := o.cat.Lookup(name)
		if err != nil {
			return err
		}
		params, err := d.Validate(rec.query[k].params())
		if err != nil {
			return err
		}
		if err := entry.EnsureProperties(d.RequiredProperties(g)...); err != nil {
			return err
		}
		ks := r.tr.open(rp, "replay.cold."+name, "server", cl.id, p, time.Now())
		prb := lagraph.NewProbe(0)
		var (
			out          algo.Result
			before, post runtime.MemStats
		)
		runtime.ReadMemStats(&before)
		took := r.lap(cl, p, ks, name, "lagraph", 1, func() {
			out, err = d.Run(lagraph.WithProbe(ctx, prb), g, params)
		})
		runtime.ReadMemStats(&post)
		if err != nil && !lagraph.IsWarning(err) {
			return fmt.Errorf("replay %s: %w", name, err)
		}
		r.sample("lagraph."+name+"_alloc_mb", float64(post.TotalAlloc-before.TotalAlloc)/(1<<20))
		r.sample("lagraph."+name+"_allocs", float64(post.Mallocs-before.Mallocs))
		r.sample("lagraph."+name+"_iters", float64(prb.Snapshot().Iterations))
		r.sample("lagraph."+name+"_x_gap", ms(took)/rec.gapMS[k])
		r.sample("server.overhead_"+name+"_ms", rec.coldMS[k]-ms(took))
		if k == kBFS || k == kPR {
			// The server's response encoder on the same result.
			env := map[string]any{"graph": m.name, "algorithm": name, "seconds": took.Seconds()}
			for key, v := range out {
				env[key] = v
			}
			r.lap(cl, p, ks, "encode_"+name, "server", 1, func() {
				enc := json.NewEncoder(io.Discard)
				enc.SetIndent("", "  ")
				err = enc.Encode(env)
			})
			if err != nil {
				return err
			}
		}
		r.tr.close(ks, time.Now())
	}

	return o.micro(r, cl, p, rp, m, entry, version)
}

// micro times single operations of the lower layers on the pass's graph.
func (o *onion) micro(r *run, cl *client, p, rp int, m *mirror, entry *registry.Entry, version uint64) error {
	mi := r.tr.open(rp, "replay.micro", "bench", cl.id, p, time.Now())
	defer func() { r.tr.close(mi, time.Now()) }()
	g := entry.Graph()
	A, n := g.A, g.NumNodes()
	var err error
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}

	// grb bulk: one pull MxV (a PageRank sweep), the masked dot product of
	// triangle counting, a transpose, the checkpoint serialisation.
	x := grb.DenseVector(n, 1.0)
	y := grb.MustVector[float64](n)
	r.lap(cl, p, mi, "mxv", "grb", 1, func() {
		keep(grb.MxV(y, grb.NoVMask, nil, grb.PlusSecond[float64, float64](), A, x, nil))
	})
	L, U := grb.MustMatrix[float64](n, n), grb.MustMatrix[float64](n, n)
	keep(grb.Select(L, grb.NoMask, nil, grb.Tril[float64](), A, 0, nil))
	keep(grb.Select(U, grb.NoMask, nil, grb.Triu[float64](), A, 0, nil))
	C := grb.MustMatrix[int64](n, n)
	r.lap(cl, p, mi, "mxm_masked", "grb", 1, func() {
		keep(grb.MxM(C, grb.StructMaskOf(L), nil, grb.PlusPair[float64, float64, int64](), L, U, grb.DescT1))
	})
	T := grb.MustMatrix[float64](n, n)
	r.lap(cl, p, mi, "transpose", "grb", 1, func() { keep(grb.Transpose(T, grb.NoMask, nil, A, nil)) })
	r.lap(cl, p, mi, "serialize", "grb", 1, func() { keep(grb.SerializeMatrix(io.Discard, A)) })

	// grb per call: a push step from an 8-vertex frontier (what Road does
	// thousands of times), a copy-on-write snapshot, one parallel.For.
	frontier := grb.MustVector[int64](n)
	for i := 0; i < 8; i++ {
		v := int(m.sources[(i*len(m.sources))/8])
		keep(frontier.SetElement(int64(v), v))
	}
	frontier.Wait()
	next := grb.MustVector[int64](n)
	const tinyReps = 256
	var before, post runtime.MemStats
	runtime.ReadMemStats(&before)
	r.lap(cl, p, mi, "vxm_tiny", "grb", tinyReps, func() {
		for i := 0; i < tinyReps; i++ {
			keep(grb.VxM(next, grb.NoVMask, nil, grb.AnySecondI[int64, float64, int64](), frontier, A, grb.DescR))
		}
	})
	runtime.ReadMemStats(&post)
	r.sample("grb.vxm_tiny_allocs", float64(post.Mallocs-before.Mallocs)/tinyReps)
	r.lap(cl, p, mi, "snapshot", "grb", tinyReps, func() {
		for i := 0; i < tinyReps; i++ {
			_, e := A.Snapshot()
			keep(e)
		}
	})
	var sink atomic.Int64
	r.lap(cl, p, mi, "for", "parallel", tinyReps, func() {
		for i := 0; i < tinyReps; i++ {
			parallel.For(1<<16, func(lo, hi int) { sink.Add(int64(hi - lo)) })
		}
	})

	// registry: lease round trip, snapshot swap (same content, same version).
	const regReps = 1024
	r.lap(cl, p, mi, "lease", "registry", regReps, func() {
		for i := 0; i < regReps; i++ {
			l, e := o.reg.Acquire(m.name)
			keep(e)
			if e == nil {
				l.Release()
			}
		}
	})
	r.lap(cl, p, mi, "swap", "registry", tinyReps, func() {
		prev := entry
		for i := 0; i < tinyReps; i++ {
			e, e2 := o.reg.Swap(m.name, g, registry.SwapStats{Nodes: n, Edges: m.nnz, KeepVersion: true, Prev: prev})
			keep(e2)
			if e2 != nil {
				return
			}
			prev = e
		}
	})

	// algo: schema validation of a request, the warm property check.
	d, _ := o.cat.Get("bfs")
	raw := query{k: kBFS, source: m.sources[0], limit: n}.params()
	r.lap(cl, p, mi, "validate", "algo", regReps, func() {
		for i := 0; i < regReps; i++ {
			_, e := d.Validate(raw)
			keep(e)
		}
	})
	r.lap(cl, p, mi, "ensure_props_warm", "algo", regReps, func() {
		for i := 0; i < regReps; i++ {
			keep(entry.EnsureProperties(d.RequiredProperties(g)...))
		}
	})

	// jobs: submit-and-wait of an empty computation, then the same keys
	// again as result-cache hits.
	const jobReps = 128
	base := o.keys.Add(jobReps) - jobReps
	submit := func(i int) {
		key := jobs.Key{Graph: m.name, Version: version, Algorithm: "noop", Params: strconv.FormatUint(base+uint64(i), 10)}
		j, _, e := o.jobs.Submit(jobs.Request{Key: key, Run: func(context.Context) (any, error) { return i, nil }})
		keep(e)
		if e == nil {
			o.jobs.WaitOrAbandon(context.Background(), j)
		}
	}
	r.lap(cl, p, mi, "dispatch", "jobs", jobReps, func() {
		for i := 0; i < jobReps; i++ {
			submit(i)
		}
	})
	r.lap(cl, p, mi, "hit", "jobs", jobReps, func() {
		for i := 0; i < jobReps; i++ {
			submit(i)
		}
	})

	// store: a full checkpoint of the graph at the replica's version.
	r.lap(cl, p, mi, "checkpoint", "store", 1, func() {
		keep(o.store.Checkpoint(m.name, lagraph.AdjacencyUndirected, A, version))
	})
	return err
}

// layerMetrics fills the per-layer metrics of a traced run.
func (r *run) layerMetrics(out map[string]metric, setups []setupResult, before, after counts, recoverS float64) {
	us := func(name, sample string) { out[name] = metric{r.med(sample), "us"} }
	msOf := func(name, sample string) { out[name] = metric{r.med(sample) / 1e3, "ms"} }
	for _, k := range kernels {
		msOf("lagraph."+k+"_ms", "lagraph."+k)
		out["lagraph."+k+"_x_gap"] = metric{r.med("lagraph." + k + "_x_gap"), "ratio"}
		out["lagraph."+k+"_alloc_mb"] = metric{r.med("lagraph." + k + "_alloc_mb"), "MiB"}
		out["lagraph."+k+"_allocs"] = metric{r.med("lagraph." + k + "_allocs"), "count"}
		out["lagraph."+k+"_iters"] = metric{r.med("lagraph." + k + "_iters"), "count"}
		out["gap."+k+"_ms"] = metric{r.med("gap." + k), "ms"}
		out["server.cold_"+k+"_ms"] = metric{r.med("cold." + k), "ms"}
		out["server.overhead_"+k+"_ms"] = metric{r.med("server.overhead_" + k + "_ms"), "ms"}
	}
	msOf("grb.mxv_ms", "grb.mxv")
	msOf("grb.mxm_masked_ms", "grb.mxm_masked")
	msOf("grb.transpose_ms", "grb.transpose")
	msOf("grb.serialize_ms", "grb.serialize")
	out["grb.import_ms"] = metric{r.med("grb.import_ms"), "ms"}
	us("grb.vxm_tiny_us", "grb.vxm_tiny")
	out["grb.vxm_tiny_allocs"] = metric{r.med("grb.vxm_tiny_allocs"), "count"}
	us("grb.snapshot_us", "grb.snapshot")
	us("parallel.for_us", "parallel.for")

	msOf("registry.finalize_ms", "registry.finalize")
	msOf("registry.materialize_at_ms", "registry.materialize_at")
	msOf("registry.materialize_deg_ms", "registry.materialize_deg")
	us("registry.lease_us", "registry.lease")
	us("registry.swap_us", "registry.swap")

	hits := append(append([]float64(nil), r.samples["hit.bfs"]...), r.samples["hit.pagerank"]...)
	out["server.first_pr_ms"] = metric{r.med("first"), "ms"}
	out["server.hit_ms"] = metric{(r.med("hit.bfs") + r.med("hit.pagerank")) / 2, "ms"}
	out["server.hit_p95_ms"] = metric{quantile(hits, 0.95), "ms"}
	out["server.mutate_ms"] = metric{r.med("mutate"), "ms"}
	out["server.mutate_p95_ms"] = metric{quantile(r.samples["mutate"], 0.95), "ms"}
	out["server.ping_ms"] = metric{r.med("ping"), "ms"}
	msOf("server.encode_pr_ms", "server.encode_pagerank")
	msOf("server.encode_bfs_ms", "server.encode_bfs")

	us("jobs.dispatch_us", "jobs.dispatch")
	us("jobs.hit_us", "jobs.hit")
	us("algo.validate_us", "algo.validate")
	us("algo.ensure_props_warm_us", "algo.ensure_props_warm")

	msOf("stream.apply_ms", "stream.apply")
	msOf("store.append_ms", "store.append")
	msOf("store.checkpoint_ms", "store.checkpoint")
	out["store.fsync_ms"] = metric{r.med("fsync"), "ms"}
	out["store.wal_bytes_per_op"] = metric{
		float64(after.WALBytes-before.WALBytes) / float64(r.attempted[opMutate]*r.w.batch), "B"}
	out["store.recover_s"] = metric{recoverS, "s"}
	gens := make([]float64, len(setups))
	for i, s := range setups {
		gens[i] = s.gen
	}
	out["gen.build_s"] = metric{median(gens), "s"}

	out["jobs.computed"] = metric{float64(after.Completed - before.Completed), "count"}
	out["jobs.cache_hits"] = metric{float64(after.CacheHits - before.CacheHits), "count"}
	out["registry.property_computes"] = metric{float64(after.PropCompute - before.PropCompute), "count"}
	out["stream.versions"] = metric{float64(after.Batches - before.Batches), "count"}
	out["stream.compactions"] = metric{float64(after.Compactions - before.Compactions), "count"}
	out["bench.trace_overhead_pct"] = metric{
		(r.med("x_gap_total.traced")/r.med("x_gap_total.plain") - 1) * 100, "%"}
}

// traceDefault is where a traced run writes its spans when -trace-out is
// not given.
func traceDefault(w workload, seed uint64) string {
	return filepath.Join(scratchRoot(), fmt.Sprintf("e2e-trace-%s-%d.json", w.name, seed))
}

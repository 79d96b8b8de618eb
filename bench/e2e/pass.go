package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lagraph/internal/gap"
	"lagraph/internal/stream"
)

const (
	// firstsPerPass is how many of a pass's opening mutations, evenly
	// spaced, are followed by the first-after-write PageRank.
	firstsPerPass = 2
	// floorPings is how many back-to-back pings the floor calibration times
	// (a hit's ping burst is the workload's, workload.go).
	floorPings = 8
	// pingPath is the ping: the static catalog listing — no graph, no
	// lease, no disk, only the HTTP stack, the middleware and an encode.
	pingPath = "/algorithms"
)

// Operation classes counted as attempted/failed.
const (
	opCold   = "cold"
	opFirst  = "first"
	opHit    = "hit"
	opMutate = "mutate"
)

// run is one measurement: a stack, the workload row driving it, and
// everything the passes record.
type run struct {
	w    workload
	seed uint64
	st   *stack
	tr   *tracer // nil unless tracing
	on   *onion  // nil unless tracing: the layer replicas (layers.go)

	clients []*client

	mu        sync.Mutex
	samples   map[string][]float64
	attempted map[string]int
	failed    map[string]int
	firstErr  error

	compactions  atomic.Int64 // compactions scheduled by acknowledged batches
	checkpoints0 int64        // store checkpoints before the first pass
}

func newRun(w workload, seed uint64, st *stack) *run {
	return &run{
		w: w, seed: seed, st: st,
		samples: map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{},
		checkpoints0: st.srv.Store().StatsSnapshot().Checkpoints,
	}
}

func (r *run) sample(name string, v float64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	r.mu.Unlock()
}

// op counts one operation of a class; a non-nil err is a failure.
func (r *run) op(class string, err error) {
	r.mu.Lock()
	r.attempted[class]++
	if err != nil {
		r.failed[class]++
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("%s: %w", class, err)
		}
	}
	r.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// client is one closed-loop client goroutine's private state: its RNG
// stream, its graphs, its response buffer.
type client struct {
	id  int
	rng *rand.Rand
	own []*mirror
	buf bytes.Buffer

	// srcPos walks the unit interval in golden-ratio steps from a seeded
	// offset: sources are spread evenly over a graph's candidates in every
	// run, so a run's mix of near and far sources — which decides how many
	// iterations Road's traversals take — does not depend on luck.
	srcPos float64
}

// source draws the client's next source on m.
func (cl *client) source(m *mirror) int32 {
	for {
		cl.srcPos += 0.6180339887498949
		cl.srcPos -= float64(int(cl.srcPos))
		if v := m.sources[int(cl.srcPos*float64(len(m.sources)))]; len(m.adj[v]) > 0 {
			return v
		}
	}
}

// drive runs passes [from, to) on every client, concurrently, to
// completion. The clients persist across calls, so a traced run's second
// phase continues each client's RNG stream where the first left it.
func (r *run) drive(from, to int, traced bool) error {
	if r.clients == nil {
		per := r.w.graphs / r.w.clients
		for c := 0; c < r.w.clients; c++ {
			cl := &client{
				id:  c,
				rng: rand.New(rand.NewPCG(r.seed, uint64(c)+1)),
				own: r.st.mirrors[c*per : (c+1)*per],
			}
			cl.srcPos = cl.rng.Float64()
			r.clients = append(r.clients, cl)
		}
	}
	errs := make([]error, len(r.clients))
	var wg sync.WaitGroup
	for _, cl := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := from; p < to && errs[cl.id] == nil; p++ {
				errs[cl.id] = r.pass(cl, p, cl.own[p%len(cl.own)], traced)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// timed sends one request, records its wall time under name (ms) and as a
// server-layer span of the pass, and returns the drained body.
func (r *run) timed(cl *client, p, root int, name, method, path string, body []byte) (time.Duration, []byte, error) {
	start := time.Now()
	d, resp, err := r.st.do(method, r.st.base+path, body, &cl.buf)
	if err != nil {
		return 0, nil, err
	}
	r.tr.add(root, "http."+name, "server", cl.id, p, start, start.Add(d))
	r.sample(name, ms(d))
	return d, resp, nil
}

// pass is the benchmark's one loop body. Every timing it records is
// paired with a calibration taken moments earlier in the same pass — the
// GAP baseline for a cold query, a ping for a cache hit, a ping plus a raw
// 4 KiB fsync for a mutation, the warm PageRank for the first one — so a
// metric is a ratio of two things the machine's drift hits alike.
//
// An error return is fatal (the mirror may no longer match the server);
// wrong answers are counted as failures and the pass goes on.
func (r *run) pass(cl *client, p int, m *mirror, traced bool) error {
	if cl.id == 0 {
		// Client 0 opens each of its passes on a collected heap and a
		// reset RSS high-water mark: a pass's timings and peak memory
		// then depend on the pass, not on how much garbage the previous
		// one happened to leave or on one early overshoot.
		runtime.GC()
		if err := resetPeakRSS(); err != nil {
			return fmt.Errorf("peak_rss_mb: cannot reset the RSS high-water mark: %w", err)
		}
		defer func() { r.sample("pass_peak_rss_mb", peakRSSMiB()) }()
	}
	passStart := time.Now()
	root := r.tr.open(0, "pass", "bench", cl.id, p, passStart)
	defer func() { r.tr.close(root, time.Now()) }()

	var (
		rec passRecord
		gg  *gap.Graph
		err error
	)
	firstEvery := max(1, r.w.mutates/firstsPerPass)
	for i := 0; i < r.w.mutates; i++ {
		if gg, err = r.mutate(cl, p, root, m, &rec.ops); err != nil {
			return err
		}
		if r.w.churn || i%firstEvery != firstEvery-1 {
			continue
		}
		// The first PageRank after a write pays the pending deltas'
		// assembly and the property rematerialisation on top of the
		// kernel; the same computation under another cache key, straight
		// after, pays the kernel alone.
		q := query{k: kPR, tol: prTol(0), limit: m.n}
		w := q.runGAP(gg)
		first, err := r.cold(cl, p, root, m, gg, q, w, "first", opFirst)
		if err != nil {
			return err
		}
		q.tol = prTol(1)
		warm, err := r.cold(cl, p, root, m, gg, q, w, "warm", opCold)
		if err != nil {
			return err
		}
		r.sample("first_x_warm", ms(first)/ms(warm))
	}

	var sumCold, sumGAP float64
	for k := range kernels {
		if r.w.churn && k > 0 {
			if gg, err = r.mutate(cl, p, root, m, &rec.ops); err != nil {
				return err
			}
		}
		q := query{k: k, limit: m.n}
		switch k {
		case kBFS, kSSSP:
			q.source = cl.source(m)
		case kBC:
			for i := 0; i < 4; i++ {
				q.sources = append(q.sources, cl.source(m))
			}
		case kPR:
			q.tol = prTol(2)
		}

		// GAP calibration, R_k back-to-back runs; the last is the oracle.
		var w want
		gapStart := time.Now()
		for i := 0; i < r.w.reps[k]; i++ {
			w = q.runGAP(gg)
		}
		gapEnd := time.Now()
		gapMS := ms(gapEnd.Sub(gapStart)) / float64(r.w.reps[k])
		r.tr.add(root, "gap."+kernels[k], "gap", cl.id, p, gapStart, gapEnd)
		r.sample("gap."+kernels[k], gapMS)

		class := opCold
		if r.w.churn && k == kPR {
			class = opFirst // in churn every query is first-after-write
		}
		d, err := r.cold(cl, p, root, m, gg, q, w, "cold."+kernels[k], class)
		if err != nil {
			return err
		}
		r.sample("x_gap."+kernels[k], ms(d)/gapMS)
		sumCold += ms(d)
		sumGAP += gapMS
		rec.query[k], rec.coldMS[k], rec.gapMS[k] = q, ms(d), gapMS
		if class == opFirst {
			r.sample("first", ms(d))
			q.tol = prTol(1)
			warm, err := r.cold(cl, p, root, m, gg, q, w, "warm", opCold)
			if err != nil {
				return err
			}
			r.sample("first_x_warm", ms(d)/ms(warm))
		}

		if k == kBFS || k == kPR {
			// Result-cache hits on the query just answered (its body is
			// still in the client's buffer), each followed by a ping burst.
			computed := append([]byte(nil), cl.buf.Bytes()...)
			for i := 0; i < r.w.hits/2; i++ {
				_, hit, err := r.timed(cl, p, root, "hit."+kernels[k], http.MethodPost, algPath(m, k), q.body())
				if err == nil && !bytes.Equal(hit, computed) {
					err = fmt.Errorf("cached %s response differs from the computed one", kernels[k])
				}
				r.op(opHit, err)
				if _, err := r.pingBurst(cl, p, root, "ping", r.w.burst); err != nil {
					return err
				}
			}
		}
	}
	r.sample("x_gap_total", sumCold/sumGAP)

	if r.tr != nil {
		// A traced run's plain passes are the untraced reference its
		// replaying passes are compared with.
		if !traced {
			r.sample("x_gap_total.plain", sumCold/sumGAP)
			return nil
		}
		r.sample("x_gap_total.traced", sumCold/sumGAP)
		return r.on.replay(r, cl, p, root, m, &rec)
	}
	return nil
}

// pingBurst sends n back-to-back pings and records their mean: a single
// sub-millisecond round trip is mostly scheduler wake-up latency and swings
// by a factor of three; the burst mean does not.
func (r *run) pingBurst(cl *client, p, root int, name string, n int) (time.Duration, error) {
	start := time.Now()
	for j := 0; j < n; j++ {
		if _, _, err := r.st.do(http.MethodGet, r.st.base+pingPath, nil, &cl.buf); err != nil {
			return 0, err
		}
	}
	end := time.Now()
	r.tr.add(root, "http."+name, "server", cl.id, p, start, end)
	mean := end.Sub(start) / time.Duration(n)
	r.sample(name, ms(mean))
	return mean, nil
}

// cold sends one query that must run a computation, verifies the answer
// against the baseline's (outside the timed region) and counts it.
func (r *run) cold(cl *client, p, root int, m *mirror, gg *gap.Graph, q query, w want, name, class string) (time.Duration, error) {
	d, body, err := r.timed(cl, p, root, name, http.MethodPost, algPath(m, q.k), q.body())
	if err != nil {
		r.op(class, err)
		return 0, err
	}
	r.op(class, q.verify(body, w, m, gg))
	return d, nil
}

// prTol is the GAP tolerance 1e-4 perturbed in the ninth digit: the same
// computation to the oracle's tolerance, a different result-cache key.
func prTol(i int) float64 { return 1e-4 * (1 + float64(i)*1e-9) }

func algPath(m *mirror, k int) string {
	return "/graphs/" + m.name + "/algorithms/" + kernels[k]
}

// mutate sends one batch, pairs it with the floor calibration, waits out
// any compaction it scheduled, and returns the mirror's new GAP graph.
// The batch is appended to *ops for the layer replay.
func (r *run) mutate(cl *client, p, root int, m *mirror, ops *[]stream.Op) (*gap.Graph, error) {
	batch := m.mutation(cl.rng, r.w.batch)
	*ops = append(*ops, batch...)
	body, err := json.Marshal(map[string]any{"ops": batch})
	if err != nil {
		return nil, err
	}
	d, resp, err := r.timed(cl, p, root, "mutate", http.MethodPost, "/graphs/"+m.name+"/edges", body)
	var ack struct {
		Version   uint64 `json:"version"`
		Edges     int    `json:"edges"`
		Scheduled bool   `json:"compaction_scheduled"`
	}
	if err == nil {
		err = json.Unmarshal(resp, &ack)
	}
	if err == nil && (ack.Version != m.version+1 || ack.Edges != m.nnz) {
		err = fmt.Errorf("ack says version %d / %d edges, mirror expects %d / %d",
			ack.Version, ack.Edges, m.version+1, m.nnz)
	}
	r.op(opMutate, err)
	if err != nil {
		return nil, err
	}
	m.version = ack.Version

	// Floor: the cheapest acknowledged durable write this machine can do
	// right now — one round trip plus one 4 KiB append+fsync.
	pd, err := r.pingBurst(cl, p, root, "floorping", floorPings)
	if err != nil {
		return nil, err
	}
	fsStart := time.Now()
	if _, err := r.st.scratch.Write(make([]byte, 4096)); err != nil {
		return nil, err
	}
	if err := r.st.scratch.Sync(); err != nil {
		return nil, err
	}
	fs := time.Since(fsStart)
	r.tr.add(root, "floor.fsync", "disk", cl.id, p, fsStart, fsStart.Add(fs))
	r.sample("fsync", ms(fs))
	r.sample("mutate_x_floor", ms(d)/ms(pd+fs))

	if ack.Scheduled {
		n := r.compactions.Add(1)
		if err := r.st.quiesce(n, r.checkpoints0+n); err != nil {
			return nil, err
		}
	}
	return m.gap(), nil
}

// Command e2e is the repository's end-to-end benchmark: it drives an
// in-process lagraphd (server + durable store, fsync on) over a real
// loopback listener with a fixed, seeded sequence of passes, checks every
// answer against the GAP baseline, and reports drift-cancelling ratio
// metrics. See README.md.
//
//	go run -C bench/e2e . -workload kron-cold -seed 1 -seconds 20 -trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"lagraph/internal/registry"
	"lagraph/internal/server"
	"lagraph/internal/store"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed      = flag.Uint64("seed", 1, "seed for graphs, mutations and sources")
		seconds   = flag.Int("seconds", nominalSeconds, "measured seconds the frozen pass counts are scaled to")
		trace     = flag.Int("trace", 0, "1: replay the layers each pass and print the per-layer metrics instead")
		traceOut  = flag.String("trace-out", "", "with -trace 1: where to write the span file (default: .bench_build/e2e-trace-<workload>-<seed>.json)")
		tiny      = flag.Bool("tiny", false, "use the tiny table (tests)")
		selfcheck = flag.Int("selfcheck", 0, "run two sets of N fresh-process runs per workload and compare them")
	)
	flag.Parse()
	if *selfcheck > 0 {
		os.Exit(selfCheck(*selfcheck, *seed, *seconds))
	}
	table := workloads
	if *tiny {
		table = tinyWorkloads()
	}
	w, err := findWorkload(table, *name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(2)
	}
	res, err := measure(w, *seed, *seconds, *trace == 1, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	fmt.Println(res.json())
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r result) json() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // NaN/Inf: measure rejects those before returning
	}
	return string(b)
}

// checkoutRoot is the directory holding BENCHMARK.json, found by walking up
// from the working directory; the working directory itself if none does.
func checkoutRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "BENCHMARK.json")); err == nil {
			return d
		}
		if d == filepath.Dir(d) {
			return dir
		}
	}
}

// scratchRoot is where a run keeps its data dirs and traces.
func scratchRoot() string { return filepath.Join(checkoutRoot(), ".bench_build") }

// gitRev asks git for the checkout's revision ("-dirty" when tracked files
// differ from it). `go run` leaves no VCS stamp in the binary, so the build
// info cannot say. A checkout that is not a repository of its own — the
// driver's — is "unknown": the ceiling keeps git from adopting a repository
// further up.
func gitRev() string {
	root, err := filepath.Abs(checkoutRoot())
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "-C", root, "describe", "--always", "--dirty", "--abbrev=40", "--exclude=*")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil || len(bytes.TrimSpace(out)) == 0 {
		return "unknown"
	}
	return string(bytes.TrimSpace(out))
}

// measure performs one complete run of a workload.
func measure(w workload, seed uint64, seconds int, traced bool, traceOut string) (result, error) {
	fmt.Printf("# e2e workload=%s seed=%d seconds=%d trace=%v nproc=%d GOMAXPROCS=%d %s git=%s\n",
		w.name, seed, seconds, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitRev())

	scratch := scratchRoot()
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return result{}, err
	}
	root, err := os.MkdirTemp(scratch, "e2e-"+w.name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(root)

	// Set-up, several complete times; the last stack is the one measured.
	var (
		st     *stack
		setups []setupResult
	)
	for i := 0; i < w.setups; i++ {
		if st != nil {
			st.tearDown()
		}
		runtime.GC() // every set-up starts from the same heap: none
		var s setupResult
		st, s, err = setUp(w, seed, filepath.Join(root, strconv.Itoa(i)))
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s)
	}
	defer st.stop()

	r := newRun(w, seed, st)
	passes := max(2, (w.passes*seconds+nominalSeconds/2)/nominalSeconds)
	before, err := st.counts()
	if err != nil {
		return result{}, err
	}
	if !traced {
		err = r.drive(0, passes, false)
	} else {
		// A replaying pass costs about twice a plain one: run a third of
		// the passes plain (the untraced reference for the overhead
		// figure), build the layer replicas from the mirrors as they then
		// stand, and run another third traced — about the same wall time.
		plain := max(1, passes/3)
		r.tr = newTracer()
		if err = r.drive(0, plain, false); err == nil {
			if r.on, err = newOnion(r, filepath.Join(root, "onion")); err == nil {
				defer r.on.close()
				err = r.drive(plain, 2*plain, true)
			}
		}
	}
	if err != nil {
		return result{}, err
	}
	after, err := st.counts()
	if err != nil {
		return result{}, err
	}
	r.checkCounts(before, after)

	// Durability: stop the stack, reopen the data dir, recover, and demand
	// every graph back at its last acknowledged version.
	st.stop()
	recoverS, err := r.recoverCheck()
	r.op("recover", err)

	res := result{Metrics: map[string]metric{}}
	for class, n := range r.attempted {
		res.Attempted += n
		res.Failed += r.failed[class]
	}
	res.Correct = res.Failed == 0
	classes := make([]string, 0, len(r.attempted))
	for class := range r.attempted {
		classes = append(classes, fmt.Sprintf("%s=%d/%d", class, r.attempted[class]-r.failed[class], r.attempted[class]))
	}
	sort.Strings(classes)
	fmt.Printf("# ops ok/attempted: %s\n", strings.Join(classes, " "))
	if r.firstErr != nil {
		fmt.Printf("# first failure: %v\n", r.firstErr)
	}

	if traced {
		r.layerMetrics(res.Metrics, setups, before, after, recoverS)
		if traceOut == "" {
			traceOut = traceDefault(w, seed)
		}
		if err := r.tr.write(traceOut, w.name, seed); err != nil {
			return result{}, err
		}
		fmt.Printf("# trace: %s\n", traceOut)
	} else {
		r.endToEnd(res.Metrics, setups)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return result{}, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return res, nil
}

// checkCounts asserts the server's own counters agree with what the
// clients sent: every hit was served from the result cache, every cold
// and first query ran exactly one computation, every batch published one
// version, and nothing failed or was deduplicated.
func (r *run) checkCounts(before, after counts) {
	r.mu.Lock()
	hits, computed := int64(r.attempted[opHit]), int64(r.attempted[opCold]+r.attempted[opFirst])
	batches := int64(r.attempted[opMutate])
	r.mu.Unlock()
	var err error
	switch {
	case after.CacheHits-before.CacheHits != hits:
		err = fmt.Errorf("jobs.cache_hits moved by %d, %d hits sent", after.CacheHits-before.CacheHits, hits)
	case after.Completed-before.Completed != computed:
		err = fmt.Errorf("jobs.completed moved by %d, %d cold+first queries sent", after.Completed-before.Completed, computed)
	case after.Batches-before.Batches != batches:
		err = fmt.Errorf("stream.batches moved by %d, %d batches sent", after.Batches-before.Batches, batches)
	case after.DedupHits != before.DedupHits || after.JobsFailed != before.JobsFailed || after.AlgErrors != before.AlgErrors:
		err = fmt.Errorf("dedup hits, failed jobs or algorithm errors moved: %+v -> %+v", before, after)
	}
	r.op("counts", err)
}

// recoverCheck reopens the stopped stack's data dir the way a restarted
// daemon would and checks every graph came back at its last acknowledged
// version with the mirror's edge count. Returns the recovery wall time.
func (r *run) recoverCheck() (float64, error) {
	sto, err := store.Open(store.Options{Dir: r.st.dir, Fsync: true})
	if err != nil {
		return 0, err
	}
	reg := registry.New(0)
	srv := server.New(reg, server.Options{Store: sto}) // recovers in New
	defer srv.Close()
	rep := sto.StatsSnapshot().Recovery
	if rep == nil || len(rep.Failed) > 0 {
		return 0, fmt.Errorf("recovery failed: %+v", rep)
	}
	for _, m := range r.st.mirrors {
		info, ok := reg.Info(m.name)
		if !ok {
			return 0, fmt.Errorf("graph %s not recovered", m.name)
		}
		if info.Version != m.version || info.Edges != m.nnz {
			return 0, fmt.Errorf("graph %s recovered at version %d / %d edges, last acknowledged %d / %d",
				m.name, info.Version, info.Edges, m.version, m.nnz)
		}
	}
	return rep.Seconds, nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func (r *run) med(name string) float64 { return median(r.samples[name]) }

// endToEnd fills the seven end-to-end metrics.
func (r *run) endToEnd(out map[string]metric, setups []setupResult) {
	logSum := 0.0
	for _, k := range kernels {
		logSum += math.Log(r.med("x_gap." + k))
	}
	out["x_gap_geomean"] = metric{math.Exp(logSum / float64(len(kernels))), "ratio"}
	out["x_gap_total"] = metric{r.med("x_gap_total"), "ratio"}
	out["first_x_warm"] = metric{r.med("first_x_warm"), "ratio"}
	// Per query type first: BFS and PageRank bodies differ in size, and the
	// median of a two-mode mixture would sit in the gap between the modes.
	out["hit_x_ping"] = metric{(r.med("hit.bfs") + r.med("hit.pagerank")) / 2 / r.med("ping"), "ratio"}
	out["mutate_x_floor"] = metric{r.med("mutate_x_floor"), "ratio"}
	totals := make([]float64, len(setups))
	for i, s := range setups {
		totals[i] = s.total
	}
	out["setup_s"] = metric{median(totals), "s"}
	// The process-lifetime high-water mark is a maximum over the run, so one
	// GC overshoot in one pass moves it by a third. A pass's own peak climbs
	// from pass to pass while the server's caches fill, so the median over
	// passes is the middle pass's peak alone; the mean averages them all.
	peaks := r.samples["pass_peak_rss_mb"]
	sum := 0.0
	for _, v := range peaks {
		sum += v
	}
	out["peak_rss_mb"] = metric{sum / float64(len(peaks)), "MiB"}
}

// resetPeakRSS resets the process's resident-set high-water mark to its
// current resident size (Linux: "5" to /proc/self/clear_refs).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				break
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

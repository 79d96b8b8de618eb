package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
	"lagraph/internal/registry"
	"lagraph/internal/server"
	"lagraph/internal/store"
)

// stack is one complete system under test: durable store, registry,
// server, and a real loopback listener in front of it.
type stack struct {
	dir     string
	base    string // http://127.0.0.1:port
	srv     *server.Server
	httpSrv *http.Server
	served  chan struct{}
	client  *http.Client
	scratch *os.File // floor-calibration file, in the data dir
	mirrors []*mirror

	stopOnce sync.Once
}

// setupResult carries what one complete set-up measured.
type setupResult struct {
	total float64 // seconds: empty data dir -> every graph answering GET
	gen   float64 // seconds of total spent generating graphs
}

// setUp builds a stack from an empty data dir: generate the graphs, open
// the store (fsync on), start the server, upload every graph as a binary
// undirected matrix and wait until each answers GET /graphs/{g}.
func setUp(w workload, seed uint64, dir string) (*stack, setupResult, error) {
	start := time.Now()
	var res setupResult
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, res, err
	}
	st := &stack{dir: dir, served: make(chan struct{})}

	genStart := time.Now()
	for g := 0; g < w.graphs; g++ {
		st.mirrors = append(st.mirrors, buildMirror(w, g, seed))
	}
	res.gen = time.Since(genStart).Seconds()

	sto, err := store.Open(store.Options{Dir: dir, Fsync: true})
	if err != nil {
		return nil, res, err
	}
	st.srv = server.New(registry.New(0), server.Options{Store: sto})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.srv.Close()
		return nil, res, err
	}
	st.base = "http://" + ln.Addr().String()
	st.httpSrv = &http.Server{Handler: st.srv.Handler()}
	go func() {
		defer close(st.served)
		_ = st.httpSrv.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	st.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}

	for _, m := range st.mirrors {
		if err := st.upload(m); err != nil {
			st.tearDown()
			return nil, res, err
		}
	}
	res.total = time.Since(start).Seconds()

	st.scratch, err = os.OpenFile(filepath.Join(dir, "floor.scratch"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		st.tearDown()
		return nil, res, err
	}
	return st, res, nil
}

// upload posts one mirror as a binary undirected matrix and checks the
// server answers GET for it with the mirror's size.
func (st *stack) upload(m *mirror) error {
	ptr, idx, val := m.csr()
	A, err := grb.ImportCSR(m.n, m.n, ptr, idx, val, false)
	if err != nil {
		return err
	}
	var body bytes.Buffer
	if err := lagraph.BinWrite(&body, A); err != nil {
		return err
	}
	url := fmt.Sprintf("%s/graphs?format=bin&kind=undirected&name=%s", st.base, m.name)
	if _, _, err := st.do(http.MethodPost, url, body.Bytes(), nil); err != nil {
		return fmt.Errorf("upload %s: %w", m.name, err)
	}
	var info registry.GraphInfo
	if err := st.getJSON("/graphs/"+m.name, &info); err != nil {
		return err
	}
	if info.Nodes != m.n || info.Edges != m.nnz {
		return fmt.Errorf("graph %s: server has %d nodes / %d edges, mirror %d / %d",
			m.name, info.Nodes, info.Edges, m.n, m.nnz)
	}
	m.version = info.Version
	return nil
}

// stop shuts the listener and the server down (closing the store) and
// waits for the serving goroutine; the data dir stays for recovery.
// Idempotent, so measure can defer it and still stop early to recover.
func (st *stack) stop() {
	st.stopOnce.Do(st.shutDown)
}

func (st *stack) shutDown() {
	// The client's connections first: one the transport dialled for a
	// request that another connection then served has carried no request,
	// and Shutdown waits five seconds before it counts such a one as idle.
	st.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = st.httpSrv.Shutdown(ctx)
	<-st.served
	st.srv.Close()
	if st.scratch != nil {
		st.scratch.Close()
	}
}

func (st *stack) tearDown() {
	st.stop()
	os.RemoveAll(st.dir)
}

// do sends one request and drains the response into buf (reused across
// calls when non-nil), returning the socket-to-socket wall time. Any
// non-2xx status is an error.
func (st *stack) do(method, url string, body []byte, buf *bytes.Buffer) (time.Duration, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	if buf == nil {
		buf = new(bytes.Buffer)
	}
	buf.Reset()
	start := time.Now()
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	_, err = buf.ReadFrom(resp.Body)
	elapsed := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return 0, nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode,
			strings.TrimSpace(string(buf.Bytes()[:min(buf.Len(), 200)])))
	}
	return elapsed, buf.Bytes(), nil
}

func (st *stack) getJSON(path string, v any) error {
	_, body, err := st.do(http.MethodGet, st.base+path, nil, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// counts is the subset of /stats (and one /metrics series) the bench
// reads: monotone counters whose deltas over the measured interval must
// repeat exactly from run to run.
type counts struct {
	Completed   int64 // jobs: computations that ran
	CacheHits   int64
	DedupHits   int64
	JobsFailed  int64
	AlgErrors   int64
	Batches     int64 // stream: versions published
	Compactions int64
	WALBytes    int64
	PropCompute int64 // registry_property_computes_total
}

func (st *stack) counts() (counts, error) {
	var s struct {
		AlgErrors int64 `json:"algorithm_errors"`
		Jobs      struct {
			Completed int64 `json:"completed"`
			Failed    int64 `json:"failed"`
			DedupHits int64 `json:"dedup_hits"`
			CacheHits int64 `json:"cache_hits"`
		} `json:"jobs"`
		Stream struct {
			Batches     int64 `json:"batches"`
			Compactions int64 `json:"compactions"`
		} `json:"stream"`
		Store struct {
			AppendBytes int64 `json:"wal_append_bytes"`
		} `json:"store"`
	}
	if err := st.getJSON("/stats", &s); err != nil {
		return counts{}, err
	}
	c := counts{
		Completed: s.Jobs.Completed, CacheHits: s.Jobs.CacheHits, DedupHits: s.Jobs.DedupHits,
		JobsFailed: s.Jobs.Failed, AlgErrors: s.AlgErrors,
		Batches: s.Stream.Batches, Compactions: s.Stream.Compactions,
		WALBytes: s.Store.AppendBytes,
	}
	// The per-graph property counters in /stats die with each swapped
	// entry; the monotone aggregate is only on /metrics.
	_, body, err := st.do(http.MethodGet, st.base+"/metrics", nil, nil)
	if err != nil {
		return counts{}, err
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "registry_property_computes_total "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return counts{}, err
			}
			c.PropCompute = int64(f)
		}
	}
	return c, sc.Err()
}

// quiesce waits, outside every timed region, until the background
// compactions scheduled so far have finished and checkpointed — so no
// compaction ever overlaps a timed query, and the compaction and
// checkpoint counts repeat exactly from run to run.
func (st *stack) quiesce(compactions, checkpoints int64) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		eng := st.srv.Stream().StatsSnapshot()
		sto := st.srv.Store().StatsSnapshot()
		if eng.Compactions >= compactions && sto.Checkpoints >= checkpoints {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("compaction did not finish: %d/%d compactions, %d/%d checkpoints",
				eng.Compactions, compactions, sto.Checkpoints, checkpoints)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

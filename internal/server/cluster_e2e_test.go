package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lagraph/internal/cluster"
	"lagraph/internal/grb"
	"lagraph/internal/registry"
	"lagraph/internal/store"
	"lagraph/internal/stream"
)

// Two-process cluster e2e: a leader and a follower, each a full handler
// stack over its own data directory, wired through real TCP listeners
// (the cluster config needs addresses before the servers exist, so the
// listeners are allocated first and handed to httptest).

// clusterNode is one booted node.
type clusterNode struct {
	ts   *httptest.Server
	srv  *Server
	addr string // advertised host:port
	dir  string
}

func (n *clusterNode) url() string { return "http://" + n.addr }

// kill drops the node without any orderly shutdown beyond closing its
// sockets — the two-process analogue of the store suite's crash().
func (n *clusterNode) kill() {
	n.ts.Close()
	n.srv.Close()
}

// listenLoopback reserves an address for a node before it boots.
func listenLoopback(t *testing.T) (net.Listener, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return l, l.Addr().String()
}

// bootClusterNode starts a node on l with its cluster config, recovering
// whatever dir holds. testPoll keeps convergence waits short.
const testPoll = 20 * time.Millisecond

func bootClusterNode(t *testing.T, dir string, l net.Listener, cfg cluster.Config) *clusterNode {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("cluster config: %v", err)
	}
	st, err := store.Open(store.Options{Dir: dir, Fsync: true})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	reg := registry.New(0)
	// Compaction off: a leader checkpoint that truncates the WAL past a
	// downed follower's cursor forces a (correct) re-bootstrap, and the
	// restart-resume test needs the tail to stay servable instead.
	srv := New(reg, Options{Store: st, Cluster: cfg, Stream: stream.Options{CompactThreshold: 1 << 20, CompactRatio: 1e9}})
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Listener.Close()
	ts.Listener = l
	ts.Start()
	return &clusterNode{ts: ts, srv: srv, addr: cfg.Self, dir: dir}
}

// bootPair starts a fresh leader+follower pair on new directories.
func bootPair(t *testing.T) (leader, follower *clusterNode) {
	t.Helper()
	ll, laddr := listenLoopback(t)
	fl, faddr := listenLoopback(t)
	leader = bootClusterNode(t, t.TempDir(), ll, cluster.Config{
		Role: cluster.RoleLeader, Self: laddr, Peers: []string{laddr, faddr}, Poll: testPoll,
	})
	t.Cleanup(leader.kill)
	follower = bootClusterNode(t, t.TempDir(), fl, cluster.Config{
		Role: cluster.RoleFollower, Self: faddr, Leader: laddr, Poll: testPoll,
	})
	t.Cleanup(follower.kill)
	return leader, follower
}

// doLocal issues a request with the routed header set, pinning it to the
// receiving node (no ring forwarding) — how the tests observe one node's
// local state.
func doLocal(t *testing.T, method, url string, body any) (int, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cluster.HeaderRouted, "test")
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	out := map[string]any{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatalf("%s %s: decode: %v", method, url, err)
	}
	return resp.StatusCode, out
}

// waitFollowerAt polls the follower's local view until the graph reports
// exactly the wanted registry version.
func waitFollowerAt(t *testing.T, follower *clusterNode, graph string, version float64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		code, info := doLocal(t, "GET", follower.url()+"/graphs/"+graph, nil)
		if code == 200 && info["version"].(float64) == version {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never reached %s@v%v (last: HTTP %d %v)", graph, version, code, info)
		}
		time.Sleep(testPoll)
	}
}

// nodeFingerprint serializes a node's finalized adjacency for
// byte-identity checks (tests run in-package, so the registry is
// reachable directly).
func nodeFingerprint(t *testing.T, n *clusterNode, name string) (uint64, []byte) {
	t.Helper()
	lease, err := n.srv.reg.Acquire(name)
	if err != nil {
		t.Fatalf("Acquire %s on %s: %v", name, n.addr, err)
	}
	defer lease.Release()
	e := lease.Entry()
	e.EnsureFinalized()
	var buf bytes.Buffer
	if err := grb.SerializeMatrix(&buf, e.Graph().A); err != nil {
		t.Fatal(err)
	}
	return e.Version(), buf.Bytes()
}

// clusterSection digs the cluster section out of a node's /stats.
func clusterSection(t *testing.T, n *clusterNode) map[string]any {
	t.Helper()
	code, stats := doLocal(t, "GET", n.url()+"/stats", nil)
	if code != 200 {
		t.Fatalf("stats: HTTP %d", code)
	}
	cs, ok := stats["cluster"].(map[string]any)
	if !ok {
		t.Fatalf("stats has no cluster section: %v", stats)
	}
	return cs
}

func mutateOn(t *testing.T, base, graph string, ops []map[string]any) float64 {
	t.Helper()
	code, body := doLocal(t, "POST", base+"/graphs/"+graph+"/edges", map[string]any{"ops": ops})
	if code != 200 {
		t.Fatalf("mutate %s: HTTP %d: %v", graph, code, body)
	}
	return body["version"].(float64)
}

func TestClusterReplicationConvergence(t *testing.T) {
	leader, follower := bootPair(t)

	// Load on the leader, mutate it through a few versions.
	loadSyntheticGraph(t, leader.url(), "g", "kron", 6)
	v := mutateOn(t, leader.url(), "g", []map[string]any{
		{"op": "upsert", "src": 0, "dst": 50, "weight": 2.5},
		{"op": "delete", "src": 0, "dst": 1},
	})
	v = mutateOn(t, leader.url(), "g", []map[string]any{
		{"op": "upsert", "src": 3, "dst": 40},
	})
	if v != 3 {
		t.Fatalf("leader at v%v, want 3", v)
	}

	// The follower converges to the *exact* leader version, byte-identical.
	waitFollowerAt(t, follower, "g", v)
	lv, lbytes := nodeFingerprint(t, leader, "g")
	fv, fbytes := nodeFingerprint(t, follower, "g")
	if lv != fv {
		t.Fatalf("versions diverge: leader %d, follower %d", lv, fv)
	}
	if !bytes.Equal(lbytes, fbytes) {
		t.Fatalf("replicated graph not byte-identical (%d vs %d bytes)", len(lbytes), len(fbytes))
	}

	// An algorithm run on the follower matches the leader's bit for bit —
	// same version, same kernel, same floats.
	params := map[string]any{"max_iter": 25}
	code, lres := doLocal(t, "POST", leader.url()+"/graphs/g/algorithms/pagerank", params)
	if code != 200 {
		t.Fatalf("leader pagerank: HTTP %d: %v", code, lres)
	}
	code, fres := doLocal(t, "POST", follower.url()+"/graphs/g/algorithms/pagerank", params)
	if code != 200 {
		t.Fatalf("follower pagerank: HTTP %d: %v", code, fres)
	}
	lranks, _ := json.Marshal(lres["ranks"])
	franks, _ := json.Marshal(fres["ranks"])
	if !bytes.Equal(lranks, franks) {
		t.Fatal("follower pagerank differs from leader's")
	}

	// The follower's stats publish per-graph replication progress.
	cs := clusterSection(t, follower)
	if cs["role"] != "follower" {
		t.Fatalf("follower role = %v", cs["role"])
	}
	repl := cs["replication"].(map[string]any)
	graphs := repl["graphs"].([]any)
	if len(graphs) != 1 {
		t.Fatalf("replication graphs = %v", graphs)
	}
	g0 := graphs[0].(map[string]any)
	if g0["name"] != "g" || g0["version"].(float64) != v || g0["lag_batches"].(float64) != 0 {
		t.Fatalf("replication status = %v", g0)
	}
	if repl["bootstraps"].(float64) != 1 {
		t.Fatalf("bootstraps = %v, want exactly 1", repl["bootstraps"])
	}

	// Leader-side service counters moved.
	lcs := clusterSection(t, leader)
	if lcs["role"] != "leader" || lcs["checkpoint_ships"].(float64) < 1 {
		t.Fatalf("leader cluster stats = %v", lcs)
	}

	// Writes on the follower are refused with 421 naming the leader.
	req, _ := http.NewRequest("POST", follower.url()+"/graphs/g/edges",
		strings.NewReader(`{"ops":[{"op":"upsert","src":1,"dst":2}]}`))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("follower write: HTTP %d, want 421", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.Contains(loc, leader.addr) {
		t.Fatalf("421 Location %q does not name the leader %s", loc, leader.addr)
	}

	// A delete on the leader propagates: the follower drops the graph.
	if code, _ := doLocal(t, "DELETE", leader.url()+"/graphs/g", nil); code != 200 {
		t.Fatalf("leader delete: HTTP %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code, _ := doLocal(t, "GET", follower.url()+"/graphs/g", nil); code == 404 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never dropped the deleted graph")
		}
		time.Sleep(testPoll)
	}
}

func TestClusterFollowerRestartResumesWithoutRebootstrap(t *testing.T) {
	leader, follower := bootPair(t)
	loadSyntheticGraph(t, leader.url(), "g", "urand", 6)
	mutateOn(t, leader.url(), "g", []map[string]any{{"op": "upsert", "src": 1, "dst": 2}})
	waitFollowerAt(t, follower, "g", 2)

	// Kill the follower mid-stream while the leader keeps mutating: churn
	// before, during and after the outage.
	var churnV float64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			churnV = mutateOn(t, leader.url(), "g", []map[string]any{
				{"op": "upsert", "src": i % 60, "dst": (i * 7) % 60, "weight": float64(i)},
				{"op": "delete", "src": (i + 1) % 60, "dst": (i * 3) % 60},
			})
			time.Sleep(2 * time.Millisecond)
		}
	}()
	time.Sleep(10 * testPoll) // let some churn replicate
	followerAddr := follower.addr
	followerDir := follower.dir
	follower.kill()
	time.Sleep(5 * testPoll) // more churn lands while the follower is down

	// Reboot the follower on the same directory and address.
	fl, err := net.Listen("tcp", followerAddr)
	if err != nil {
		t.Fatalf("relisten %s: %v", followerAddr, err)
	}
	follower2 := bootClusterNode(t, followerDir, fl, cluster.Config{
		Role: cluster.RoleFollower, Self: followerAddr, Leader: leader.addr, Poll: testPoll,
	})
	t.Cleanup(follower2.kill)

	close(stop)
	wg.Wait()

	waitFollowerAt(t, follower2, "g", churnV)
	lv, lbytes := nodeFingerprint(t, leader, "g")
	fv, fbytes := nodeFingerprint(t, follower2, "g")
	if lv != fv || !bytes.Equal(lbytes, fbytes) {
		t.Fatalf("post-restart divergence: leader v%d/%dB, follower v%d/%dB",
			lv, len(lbytes), fv, len(fbytes))
	}

	// The restarted follower recovered from its own journal and resumed
	// the tail — zero checkpoint re-ships, zero bootstraps.
	repl := clusterSection(t, follower2)["replication"].(map[string]any)
	if repl["bootstraps"].(float64) != 0 {
		t.Fatalf("restarted follower re-bootstrapped %v times, want 0", repl["bootstraps"])
	}
	if repl["applied_batches"].(float64) == 0 {
		t.Fatal("restarted follower applied no batches — it should have caught up over the tail")
	}
}

func TestClusterEpochResyncAfterRecreate(t *testing.T) {
	leader, follower := bootPair(t)
	loadSyntheticGraph(t, leader.url(), "g", "kron", 5)
	mutateOn(t, leader.url(), "g", []map[string]any{{"op": "upsert", "src": 1, "dst": 2}})
	waitFollowerAt(t, follower, "g", 2)
	repl := clusterSection(t, follower)["replication"].(map[string]any)
	oldEpoch := repl["graphs"].([]any)[0].(map[string]any)["epoch"].(string)

	// Delete the graph, then restart the leader and recreate the same
	// name: the fresh registry's version counter restarts, so the new
	// incarnation reuses version numbers 1 and 2 that the follower already
	// holds — the one case where versions alone cannot tell two logs
	// apart. Only the epoch can force the re-bootstrap.
	if code, _ := doLocal(t, "DELETE", leader.url()+"/graphs/g", nil); code != 200 {
		t.Fatal("leader delete failed")
	}
	leaderAddr, leaderDir := leader.addr, leader.dir
	leader.kill()
	ll, err := net.Listen("tcp", leaderAddr)
	if err != nil {
		t.Fatalf("relisten %s: %v", leaderAddr, err)
	}
	leader2 := bootClusterNode(t, leaderDir, ll, cluster.Config{
		Role: cluster.RoleLeader, Self: leaderAddr,
		Peers: []string{leaderAddr, follower.addr}, Poll: testPoll,
	})
	t.Cleanup(leader2.kill)
	loadSyntheticGraph(t, leader2.url(), "g", "urand", 6) // different content, same versions
	mutateOn(t, leader2.url(), "g", []map[string]any{{"op": "upsert", "src": 0, "dst": 9, "weight": 4}})

	// The follower must converge onto the new incarnation — new epoch,
	// version 2 again, byte-identical to the recreated graph.
	deadline := time.Now().Add(15 * time.Second)
	for {
		repl = clusterSection(t, follower)["replication"].(map[string]any)
		if gs, ok := repl["graphs"].([]any); ok && len(gs) == 1 {
			g0 := gs[0].(map[string]any)
			if g0["epoch"].(string) != oldEpoch && g0["version"].(float64) == 2 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never adopted the new incarnation: %v", repl)
		}
		time.Sleep(testPoll)
	}
	lv, lbytes := nodeFingerprint(t, leader2, "g")
	fv, fbytes := nodeFingerprint(t, follower, "g")
	if lv != fv || !bytes.Equal(lbytes, fbytes) {
		t.Fatalf("post-recreate divergence: leader v%d, follower v%d", lv, fv)
	}
	if b := repl["bootstraps"].(float64); b != 2 {
		t.Fatalf("bootstraps = %v, want 2 (initial + epoch resync)", b)
	}
}

func TestClusterReadRoutingAndJobRouting(t *testing.T) {
	leader, follower := bootPair(t)
	loadSyntheticGraph(t, leader.url(), "g", "kron", 5)
	waitFollowerAt(t, follower, "g", 1)

	ring := cluster.NewRing([]string{leader.addr, follower.addr})
	owner := ring.Owner("g")
	nonOwner := leader
	if owner == leader.addr {
		nonOwner = follower
	}

	// A read landing on the non-owner is forwarded to the ring owner and
	// still answers 200 — the client never sees the topology.
	code, info := doJSON(t, "GET", nonOwner.url()+"/graphs/g", nil)
	if code != 200 || info["name"] != "g" {
		t.Fatalf("routed read: HTTP %d %v", code, info)
	}
	if cs := clusterSection(t, nonOwner); cs["proxied_requests"].(float64) < 1 {
		t.Fatalf("non-owner proxied nothing: %v", cs)
	}

	// Async jobs: ids minted on a node carry "@addr", and polling any
	// other node forwards to the owner.
	code, sub := doLocal(t, "POST", leader.url()+"/graphs/g/jobs",
		map[string]any{"algorithm": "pagerank", "params": map[string]any{"max_iter": 10}})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d %v", code, sub)
	}
	id := sub["id"].(string)
	if !strings.HasSuffix(id, "@"+leader.addr) {
		t.Fatalf("job id %q lacks node suffix @%s", id, leader.addr)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		code, st := doJSON(t, "GET", follower.url()+"/jobs/"+id, nil)
		if code != 200 {
			t.Fatalf("cross-node poll: HTTP %d %v", code, st)
		}
		if st["state"] == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %v", id, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code, res := doJSON(t, "GET", follower.url()+"/jobs/"+id+"/result", nil); code != 200 || res["ranks"] == nil {
		t.Fatalf("cross-node result: HTTP %d %v", code, res)
	}
}

// TestSingleNodeUnchangedByClusterCode is the regression the cluster
// feature must not break: with Role unset the daemon's wire surface is
// exactly the pre-cluster one — no replication routes, no cluster stats
// key, no routing headers required or consumed.
func TestSingleNodeUnchangedByClusterCode(t *testing.T) {
	ts, _ := newTestServer(t, 0)

	resp, err := http.Get(ts.URL + "/replication/graphs")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("/replication/graphs on single node: HTTP %d, want 404", resp.StatusCode)
	}
	loadSyntheticGraph(t, ts.URL, "g", "kron", 5)
	code, body := doJSON(t, "POST", ts.URL+"/graphs/g/edges", map[string]any{
		"ops": []map[string]any{{"op": "upsert", "src": 1, "dst": 2}},
	})
	if code != 200 {
		t.Fatalf("single-node write: HTTP %d %v", code, body)
	}
	code, stats := doJSON(t, "GET", ts.URL+"/stats", nil)
	if code != 200 {
		t.Fatalf("stats: HTTP %d", code)
	}
	if _, present := stats["cluster"]; present {
		t.Fatalf("single-node /stats grew a cluster section: %v", stats["cluster"])
	}
	// Job ids carry no node suffix.
	code, sub := doJSON(t, "POST", ts.URL+"/graphs/g/jobs", map[string]any{"algorithm": "pagerank"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if id := sub["id"].(string); strings.Contains(id, "@") {
		t.Fatalf("single-node job id %q carries a cluster suffix", id)
	}
}

// TestClusterFollowerServesAtReplicatedVersionDuringLag pins the
// bounded-staleness contract: a follower answers reads at a version it
// has fully applied, never a torn intermediate.
func TestClusterFollowerVersionsAreExact(t *testing.T) {
	leader, follower := bootPair(t)
	loadSyntheticGraph(t, leader.url(), "g", "kron", 5)
	var finalV float64
	for i := 0; i < 20; i++ {
		finalV = mutateOn(t, leader.url(), "g", []map[string]any{
			{"op": "upsert", "src": i, "dst": i + 1, "weight": float64(i + 1)},
		})
	}
	// Every version the follower ever reports must be one the leader
	// actually published (1..finalV), monotonically nondecreasing.
	var last float64
	deadline := time.Now().Add(15 * time.Second)
	for {
		code, info := doLocal(t, "GET", follower.url()+"/graphs/g", nil)
		if code == 200 {
			v := info["version"].(float64)
			if v < last {
				t.Fatalf("follower version went backwards: %v after %v", v, last)
			}
			if v != float64(uint64(v)) || v > finalV {
				t.Fatalf("follower reported impossible version %v", v)
			}
			last = v
			if v == finalV {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stalled at v%v of %v", last, finalV)
		}
		time.Sleep(testPoll / 4)
	}
}

package algo

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"

	"lagraph/internal/lagraph"
	"lagraph/internal/parallel"
)

// stdlibResponse is the executable statement of the wire: the flat
// envelope map the server used to build, through encoding/json's
// indenting encoder. AppendResponse must produce these bytes.
func stdlibResponse(graph, algorithm string, seconds float64, res Result, rep *RunReport) ([]byte, error) {
	m := make(map[string]any, len(res)+4)
	for k, v := range res {
		m[k] = v
	}
	m["graph"] = graph
	m["algorithm"] = algorithm
	m["seconds"] = seconds
	if rep != nil {
		m["report"] = rep
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(m)
	return buf.Bytes(), err
}

// checkIdentity compares AppendResponse with the stdlib rendering, both
// into an empty buffer and appended behind existing bytes.
func checkIdentity(t *testing.T, graph, algorithm string, seconds float64, res Result, rep *RunReport) {
	t.Helper()
	want, err := stdlibResponse(graph, algorithm, seconds, res, rep)
	if err != nil {
		t.Fatalf("stdlib encoder: %v", err)
	}
	got, err := AppendResponse(nil, graph, algorithm, seconds, res, rep)
	if err != nil {
		t.Fatalf("AppendResponse: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendResponse diverged from encoding/json\n got: %s\nwant: %s", got, want)
	}
	got, err = AppendResponse([]byte("head"), graph, algorithm, seconds, res, rep)
	if err != nil || !bytes.Equal(got, append([]byte("head"), want...)) {
		t.Fatalf("appending behind existing bytes: err %v\n got: %s", err, got)
	}
}

// TestAppendResponseMatchesStdlibOnCatalog: every catalog entry on the
// golden graph — default parameters and, where the kernel echoes a
// vector, a limit past its length — without and with its run report.
func TestAppendResponseMatchesStdlibOnCatalog(t *testing.T) {
	prev := parallel.SetMaxThreads(1)
	defer parallel.SetMaxThreads(prev)

	c := Builtin()
	g := goldenGraph(t)
	for _, name := range c.Names() {
		d, _ := c.Get(name)
		raws := []map[string]any{{}}
		for _, s := range d.Params {
			if s.Name == "limit" {
				raws = append(raws, map[string]any{"limit": 4096})
			}
		}
		for _, raw := range raws {
			p, err := d.Validate(raw)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := EnsureProperties(d, g); err != nil {
				t.Fatalf("%s: EnsureProperties: %v", name, err)
			}
			prb := lagraph.NewProbe(0)
			out, err := d.Run(lagraph.WithProbe(context.Background(), prb), g, p)
			if err != nil && !lagraph.IsWarning(err) {
				t.Fatalf("%s: Run: %v", name, err)
			}
			rep := NewReport(name, prb, 0.000125, 0.0375)
			if !rep.NonEmpty() {
				t.Fatalf("%s: empty report", name)
			}
			checkIdentity(t, "golden", name, 0.0375, out, nil)
			checkIdentity(t, "golden", name, 0.0375, out, rep)
		}
	}
}

var floatEdges = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, -0.25, 3, 100, 1e6, 123456789, 1.5e-5,
	1e-6, 9.99e-7, 9.999999999999999e-7, 1e-7, -1e-7, 1.234e-9, 1e-10, 1e-100,
	1e21, 9.99e20, 999999999999999868928, -1e21, 1e22, 1.5e300,
	1 << 53, 1<<53 + 2, -(1 << 53), 1e15, 1e20,
	1<<53 - 1, -(1<<53 - 1), 1<<53 - 2, 9007199254740993, 1e15 + 1,
	5e-324, math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
	math.Pi, 1.0 / 3.0, 2.2250738585072014e-308,
}

func TestAppendResponseFloats(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	floats := append([]float64(nil), floatEdges...)
	for len(floats) < len(floatEdges)+20000 {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			floats = append(floats, f)
		}
	}
	// One document per batch: as seconds, as a scalar and as vector values.
	for lo := 0; lo < len(floats); lo += 500 {
		batch := floats[lo:min(lo+500, len(floats))]
		s := &VecSummary{NVals: len(batch), Entries: []VecEntry{}}
		for i, f := range batch {
			s.Entries = append(s.Entries, VecEntry{I: i * 7, V: f})
		}
		checkIdentity(t, "g", "floats", batch[0], Result{"mean": batch[len(batch)-1], "v": s}, nil)
	}
	for _, f := range floatEdges {
		checkIdentity(t, "g", "edge", f, Result{"x": f, "v": &VecSummary{NVals: 1, Entries: []VecEntry{{I: 0, V: f}}}}, nil)
	}
}

func TestAppendResponseShapes(t *testing.T) {
	converged := true
	rep := &RunReport{Algorithm: "x<y>", ProbeSnapshot: lagraph.ProbeSnapshot{
		Iterations: 3, Converged: &converged, Method: "a&b",
		Iters:    []lagraph.IterStat{{Iter: 1, Frontier: 4, Work: 9, Direction: "push"}, {Iter: 2, Residual: 1e-9}},
		Counters: map[string]int64{"relaxations": 12, "nnz": 7},
	}}
	for name, res := range map[string]Result{
		"nil result":    nil,
		"empty result":  {},
		"empty entries": {"v": &VecSummary{Entries: []VecEntry{}}},
		"nil entries":   {"v": &VecSummary{NVals: 2}},
		"nil summary":   {"level": (*VecSummary)(nil), "parent": &VecSummary{NVals: 1, Entries: []VecEntry{{I: 3, V: -1}}}},
		"truncated":     {"v": &VecSummary{NVals: 9, Entries: []VecEntry{{I: 0, V: 1}, {I: 1, V: 2}}, Truncated: true}},
		"scalars":       {"n": 7, "big": int64(math.MinInt64), "neg": -12, "ok": true, "no": false, "mean": 0.5},
		"strings":       {"method": "sandia-lut", "html": "\"<>&' \\ \t\n\x00", "bad utf8": "a\xffb\xc0", "sep": "  é", "del": "\x7f"},
		"odd keys":      {"a<b": 1, "\"q\"": 2, "é": 3, "": 4, "Z": 5, "a": 6, "\xff": 7},
		"fallback": {
			"list": []int{1, 2, 3}, "empty list": []int{}, "nil list": []string(nil),
			"nested":      map[string]any{"b": []any{1.5, "x<", nil, map[string]int{}}, "a": map[string]any{}},
			"untyped nil": nil, "u8": uint8(3), "f32": float32(1e-7), "i32": int32(-4), "raw": json.RawMessage(`{"k": [1,  2]}`),
			"entries": []VecEntry{{I: 1, V: 1e-9}}, "summary by value": VecSummary{NVals: 1},
			"ptr": &converged,
		},
		"many keys": {"k01": 1, "k02": 2, "k03": 3, "k04": 4, "k05": 5, "k06": 6, "k07": 7, "k08": 8, "k09": 9,
			"k10": 10, "k11": 11, "k12": 12, "k13": 13, "k14": 14, "k15": 15, "k16": 16, "k17": 17},
	} {
		t.Run(name, func(t *testing.T) {
			checkIdentity(t, "g", "alg", 0.25, res, nil)
			checkIdentity(t, "g", "alg", 0.25, res, rep)
			checkIdentity(t, "tenant\"a\\b<&>\x01é\xfe", "bfs.level", 1e-9, res, rep)
		})
	}
	// The envelope's keys win over a result entry of the same name, as
	// they did in the map (the server's CheckReserved refuses such a
	// kernel before it gets here).
	checkIdentity(t, "g", "alg", 1, Result{"graph": "other", "seconds": 9, "algorithm": 1, "report": 2, "x": 1}, rep)
}

// TestAppendResponseRejectsNonFinite: where encoding/json returns an
// UnsupportedValueError, so does AppendResponse — never invalid JSON.
func TestAppendResponseRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, tc := range map[string]struct {
			seconds float64
			res     Result
		}{
			"seconds": {f, Result{}},
			"scalar":  {0, Result{"mean": f}},
			"entry":   {0, Result{"v": &VecSummary{NVals: 2, Entries: []VecEntry{{I: 0, V: 1}, {I: 1, V: f}}}}},
			"nested":  {0, Result{"list": []float64{f}}},
		} {
			_, wantErr := stdlibResponse("g", "a", tc.seconds, tc.res, nil)
			_, err := AppendResponse(nil, "g", "a", tc.seconds, tc.res, nil)
			var want, got *json.UnsupportedValueError
			if !errors.As(wantErr, &want) || !errors.As(err, &got) {
				t.Fatalf("%s %v: stdlib err %v, AppendResponse err %v; want UnsupportedValueError from both", name, f, wantErr, err)
			}
			if got.Str != want.Str {
				t.Errorf("%s %v: error names %q, stdlib names %q", name, f, got.Str, want.Str)
			}
		}
	}
}

// TestAppendResponseDoesNotAllocate: a vector result appended into a
// buffer that is already large enough costs no allocation at all.
func TestAppendResponseDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := &VecSummary{NVals: 4096, Entries: make([]VecEntry, 4096)}
	for i := range s.Entries {
		s.Entries[i] = VecEntry{I: i, V: 1 / float64(i+1)}
	}
	res := Result{"iterations": 17, "ranks": s}
	buf, err := AppendResponse(nil, "g", "pagerank", 0.0123, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		buf, _ = AppendResponse(buf[:0], "g", "pagerank", 0.0123, res, nil)
	}); allocs != 0 {
		t.Errorf("AppendResponse into a pre-grown buffer: %v allocs/run, want 0", allocs)
	}
}

// bigVec is an n-entry vector mixing the kernels' value kinds: integers
// (levels, parents, labels), small fractions (ranks) and large and tiny
// magnitudes, so every block of a parallel cut prints each kind.
func bigVec(n int) *VecSummary {
	rng := rand.New(rand.NewSource(43))
	s := &VecSummary{NVals: 2 * n, Entries: make([]VecEntry, n), Truncated: true}
	for i := range s.Entries {
		v := float64(rng.Intn(1 << 20))
		switch i % 4 {
		case 1:
			v = rng.Float64() / 4096
		case 2:
			v = -v
		case 3:
			v = math.Float64frombits(rng.Uint64() &^ (1 << 62)) // finite
		}
		s.Entries[i] = VecEntry{I: 3 * i, V: v}
	}
	return s
}

// TestAppendResponseParallelBlocks: a vector far past the parallel cut,
// rendered at several worker counts, is the stdlib's document; a
// non-finite entry fails the response with the error and the partial
// bytes of the serial path, the first failing entry's when there are two.
func TestAppendResponseParallelBlocks(t *testing.T) {
	const n = 40000
	defer parallel.SetMaxThreads(parallel.MaxThreads())
	for _, threads := range []int{1, 2, 4} {
		parallel.SetMaxThreads(threads)
		s := bigVec(n)
		checkIdentity(t, "g", "bfs", 0.5, Result{"level": s, "iterations": 9}, nil)

		for _, bad := range []map[int]float64{
			{n - 1: math.NaN()},
			{n/2 + 1: math.Inf(-1), n - 1: math.NaN()},
		} {
			s := bigVec(n)
			for i, f := range bad {
				s.Entries[i].V = f
			}
			res := Result{"level": s}
			_, wantErr := stdlibResponse("g", "bfs", 0.5, res, nil)
			got, err := AppendResponse([]byte("head"), "g", "bfs", 0.5, res, nil)
			var want, have *json.UnsupportedValueError
			if !errors.As(wantErr, &want) || !errors.As(err, &have) || have.Str != want.Str {
				t.Fatalf("threads %d, %v: err %v, stdlib err %v", threads, bad, err, wantErr)
			}
			parallel.SetMaxThreads(1)
			serial, _ := AppendResponse([]byte("head"), "g", "bfs", 0.5, res, nil)
			parallel.SetMaxThreads(threads)
			if !bytes.Equal(got, serial) {
				t.Fatalf("threads %d, %v: partial output of %d bytes, serial path's %d", threads, bad, len(got), len(serial))
			}
		}
	}
}

// TestAppendResponseParallelAllocatesByBlock: the parallel path costs a
// few allocations per block (the fan-out and, until the pool holds
// enough, a block buffer), however many entries the blocks hold.
func TestAppendResponseParallelAllocatesByBlock(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const threads = 4
	prev := parallel.SetMaxThreads(threads)
	defer parallel.SetMaxThreads(prev)
	for _, n := range []int{2 * encodeGrain, 8 * encodeGrain} {
		res := Result{"ranks": bigVec(n)}
		buf, err := AppendResponse(nil, "g", "pagerank", 0.0123, res, nil)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			buf, _ = AppendResponse(buf[:0], "g", "pagerank", 0.0123, res, nil)
		})
		if allocs > 4*threads {
			t.Errorf("%d entries on %d workers: %v allocs/run, want at most %d", n, threads, allocs, 4*threads)
		}
	}
}

var benchBuf []byte

// BenchmarkAppendResponse renders the two vector kinds a cache hit
// serves at scale: PageRank-like fractions and integer-valued entries
// (BFS levels and parents, CC labels), 32 768 of each. Each kind's
// "copy" sub-benchmark times the exact-length copy of the rendered body
// that the server keeps after every default cold render.
func BenchmarkAppendResponse(b *testing.B) {
	const n = 32768
	rng := rand.New(rand.NewSource(1))
	ranks := &VecSummary{NVals: n, Entries: make([]VecEntry, n)}
	levels := &VecSummary{NVals: n, Entries: make([]VecEntry, n)}
	for i := range n {
		ranks.Entries[i] = VecEntry{I: i, V: rng.ExpFloat64() / n}
		levels.Entries[i] = VecEntry{I: i, V: float64(rng.Intn(n))}
	}
	for name, res := range map[string]Result{"pagerank": {"ranks": ranks}, "bfs": {"parent": levels}} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				var err error
				if benchBuf, err = AppendResponse(benchBuf[:0], "g", name, 0.01, res, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/copy", func(b *testing.B) {
			body, _ := AppendResponse(nil, "g", name, 0.01, res, nil)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				benchBuf = bytes.Clone(body)
			}
		})
	}
}

// FuzzAppendResponse holds AppendResponse to the stdlib encoder over
// arbitrary float bit patterns, integers, strings (as graph name, key
// and value) and entry counts. A count of 255 repeats the vector's
// pattern 65 times, 16 575 entries, past the parallel cut at 2·encodeGrain
// entries; only that count pays for rendering a vector that long twice.
func FuzzAppendResponse(f *testing.F) {
	f.Add(uint64(0), int64(0), "", uint8(0))
	f.Add(math.Float64bits(1e-6), int64(-1), "g", uint8(1))
	f.Add(math.Float64bits(9.99e-7), int64(math.MaxInt64), "a<b>&\"\\", uint8(3))
	f.Add(math.Float64bits(1e21), int64(math.MinInt64), "\xff\xfe", uint8(2))
	f.Add(math.Float64bits(math.Copysign(0, -1)), int64(42), "seconds", uint8(0))
	f.Add(math.Float64bits(math.NaN()), int64(7), "é ", uint8(5))
	f.Add(math.Float64bits(0.37), int64(1), "ranks", uint8(255))
	f.Add(math.Float64bits(1.8e304), int64(2), "overflow", uint8(255)) // +Inf from entry 9 987 on
	f.Fuzz(func(t *testing.T, bits uint64, n int64, s string, count uint8) {
		x := math.Float64frombits(bits)
		entries := int(count)
		if count == math.MaxUint8 {
			entries *= 2*encodeGrain/math.MaxUint8 + 1
		}
		vec := &VecSummary{NVals: int(n), Entries: []VecEntry{}, Truncated: n%2 == 0}
		for i := 0; i < entries; i++ {
			vec.Entries = append(vec.Entries, VecEntry{I: int(n) + i, V: x * float64(i+1)})
		}
		res := Result{s: s, "n": n, "i": int(n), "x": x, "vec": vec, "list": []any{x, s}}
		want, wantErr := stdlibResponse(s, "fuzz", x, res, nil)
		got, err := AppendResponse(nil, s, "fuzz", x, res, nil)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("AppendResponse err %v, stdlib err %v", err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("diverged from encoding/json\n got: %s\nwant: %s", got, want)
		}
	})
}

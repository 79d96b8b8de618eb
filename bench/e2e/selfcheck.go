package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the self-check reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec() (benchmarkSpec, error) {
	var spec benchmarkSpec
	b, err := os.ReadFile(filepath.Join(checkoutRoot(), "BENCHMARK.json"))
	if err != nil {
		return spec, err
	}
	return spec, json.Unmarshal(b, &spec)
}

// child runs this binary once, in a fresh process, and parses its result.
func child(workload string, seed uint64, seconds, trace int) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	out, err := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace)).Output()
	if err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, err
	}
	if !res.Correct {
		return res, fmt.Errorf("%s seed %d: incorrect run", workload, seed)
	}
	return res, nil
}

// quartiles returns the exclusive-method quartiles (Python's
// statistics.quantiles(xs, n=4), the driver's definition).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based position
		lo := int(pos)
		lo = min(max(lo, 1), len(s)-1)
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(1), at(2), at(3)
}

// verdict judges one cell from the wider of its two sets' spreads and the
// shift between their medians. Both sets ran the same code, so a shift in
// either direction beyond the bound is a breach, as is a spread beyond it;
// a shift above half the bound or a spread above a third of it (the targets
// the benchmark was steadied to) is reported but passes. setup_s is held to
// the shift alone, as the driver holds it.
func verdict(name string, bound, spread, shift float64) (string, bool) {
	gated := name != "setup_s"
	switch {
	case math.Abs(shift) > bound:
		return "BREACH (shift)", true
	case gated && spread > bound:
		return "BREACH (spread)", true
	case math.Abs(shift) > bound/2:
		return "ok (shift above half the bound)", false
	case gated && spread > bound/3:
		return "ok (spread above a third of the bound)", false
	}
	return "ok", false
}

// selfCheck is the benchmark's own acceptance test: per workload, two sets
// of n fresh-process runs (every run another seed), compared cell by cell
// against the bounds in BENCHMARK.json the way the driver compares them,
// plus two traced runs of one seed whose exact counts must be identical.
// Prints a markdown table; returns the process exit code.
func selfCheck(n int, seed0 uint64, seconds int) int {
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e: selfcheck:", err)
		return 2
	}
	if n < 2 {
		fmt.Fprintln(os.Stderr, "e2e: selfcheck needs at least 2 runs per set")
		return 2
	}
	breaches := 0
	fmt.Printf("Two sets of %d runs per workload, seeds %d.., -seconds %d. spread = (Q3-Q1)/median of a set; shift = (median B - median A)/median A.\n\n",
		n, seed0, seconds)
	fmt.Println("| workload | metric | median A | spread A | median B | spread B | shift | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	for _, w := range spec.Workloads {
		var sets [2]map[string][]float64
		attempted := -1
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < n; i++ {
				res, err := child(w.Name, seed0+uint64(s*n+i), seconds, 0)
				if err != nil {
					fmt.Fprintln(os.Stderr, "e2e: selfcheck:", err)
					return 1
				}
				if attempted >= 0 && res.Attempted != attempted {
					fmt.Printf("| %s | attempted | %d | | %d | | | exact | BREACH |\n", w.Name, attempted, res.Attempted)
					breaches++
				}
				attempted = res.Attempted
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		for _, e := range spec.EndToEnd {
			a1, a2, a3 := quartiles(sets[0][e.Name])
			b1, b2, b3 := quartiles(sets[1][e.Name])
			spread, shift := max((a3-a1)/a2, (b3-b1)/b2), (b2-a2)/a2
			v, breach := verdict(e.Name, e.Bound, spread, shift)
			if breach {
				breaches++
			}
			fmt.Printf("| %s | %s | %.4g | %.1f%% | %.4g | %.1f%% | %+.1f%% | %.0f%% | %s |\n",
				w.Name, e.Name, a2, 100*(a3-a1)/a2, b2, 100*(b3-b1)/b2, 100*shift, 100*e.Bound, v)
		}

		// Exact counts: two traced runs of one seed must agree on every
		// count the program itself makes.
		t1, err := child(w.Name, seed0, seconds, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2e: selfcheck:", err)
			return 1
		}
		t2, err := child(w.Name, seed0, seconds, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2e: selfcheck:", err)
			return 1
		}
		exact, differ := 0, []string{}
		for _, p := range spec.PerLayer {
			if p.Unit != "count" || strings.HasSuffix(p.Name, "_allocs") {
				continue // allocation counts include the runtime's own
			}
			exact++
			if t1.Metrics[p.Name].Value != t2.Metrics[p.Name].Value {
				differ = append(differ, p.Name)
			}
		}
		verdict := "ok"
		if len(differ) > 0 {
			verdict = "BREACH: " + strings.Join(differ, ", ")
			breaches++
		}
		fmt.Printf("| %s | %d exact counts, 2 traced runs of seed %d | | | | | | exact | %s |\n", w.Name, exact, seed0, verdict)
	}
	if breaches > 0 {
		fmt.Printf("\n%d breach(es).\n", breaches)
		return 1
	}
	fmt.Println("\nNo breach.")
	return 0
}

// Command gapbench regenerates the evaluation tables of the LAGraph paper
// (Tables III and IV) on scaled-down synthetic analogues of the GAP
// benchmark graphs.
//
// Usage:
//
//	gapbench -table3 -scale 14 -trials 3
//	gapbench -table4 -scale 14
//	gapbench -table3 -algos BFS,PR -graphs Kron,Road
//	gapbench -table3 -algos lcc,tc.advanced -graphs Kron    # catalog-only kernels
//	gapbench -list-algorithms
//
// Table III prints the run time (seconds) of the GAP-style baselines
// ("GAP") and the LAGraph-on-GraphBLAS implementations ("SS", following
// the paper's label for LAGraph+SS:GrB) for six kernels on five graphs,
// plus the SS/GAP ratio so the "shape" — who wins where — is explicit.
// Within a cell the two implementations alternate trial by trial, so the
// box's drift over a long run lands on both sides of every ratio. This
// is the paper artefact only: whether a change made the repo faster or
// slower is bench/e2e's question.
//
// The SS side dispatches through the algorithm catalog (internal/algo),
// so -algos accepts any registered algorithm name — kernels without a GAP
// baseline (lcc, the advanced variants, anything registered later) get an
// SS row and no ratio.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"lagraph/internal/algo"
	"lagraph/internal/bench"
	"lagraph/internal/lagraph"
)

func main() {
	var (
		table3   = flag.Bool("table3", false, "regenerate paper Table III (run times)")
		table4   = flag.Bool("table4", false, "regenerate paper Table IV (graph statistics)")
		listAlgs = flag.Bool("list-algorithms", false, "print the algorithm catalog and exit")
		scale    = flag.Int("scale", 12, "log2 of the vertex count for synthetic classes")
		ef       = flag.Int("ef", 8, "edges per vertex before deduplication")
		trials   = flag.Int("trials", 3, "trials per source-based kernel")
		seed     = flag.Uint64("seed", 1, "generator seed")
		algos    = flag.String("algos", strings.Join(bench.AlgNames, ","), "comma-separated kernels (Table III labels or catalog names)")
		graphs   = flag.String("graphs", strings.Join(bench.GraphNames, ","), "comma-separated graph classes")
	)
	flag.Parse()
	if *listAlgs {
		printCatalog()
		return
	}
	if !*table3 && !*table4 {
		flag.Usage()
		os.Exit(2)
	}

	graphList := splitList(*graphs)
	algoList := splitList(*algos)
	for _, alg := range algoList {
		if _, err := algo.Default().Lookup(bench.CatalogName(alg)); err != nil {
			fatal("%v", err)
		}
	}

	fmt.Printf("# lagraph-go GAP benchmark harness\n")
	fmt.Printf("# scale=%d edgefactor=%d trials=%d seed=%d GOMAXPROCS=%d\n\n",
		*scale, *ef, *trials, *seed, runtime.GOMAXPROCS(0))

	workloads := map[string]*bench.Workload{}
	for _, gName := range graphList {
		w, err := bench.Load(gName, *scale, *ef, *seed)
		if err != nil {
			fatal("loading %s: %v", gName, err)
		}
		workloads[gName] = w
	}

	if *table4 {
		printTable4(graphList, workloads)
	}
	if *table3 {
		printTable3(graphList, algoList, workloads, *trials)
	}
}

// printCatalog renders the self-describing catalog: every registered
// algorithm with its tier, parameter schema and defaults — the same data
// GET /algorithms serves and the README reference is generated from.
func printCatalog() {
	fmt.Println("# algorithm catalog (internal/algo)")
	for _, in := range algo.Default().List() {
		kind := ""
		if in.Undirected {
			kind = "  [undirected only]"
		}
		fmt.Printf("\n%-14s %s%s\n", in.Name, in.Tier, kind)
		if len(in.Properties) > 0 {
			fmt.Printf("    properties: %s\n", strings.Join(in.Properties, ", "))
		}
		for _, p := range in.Params {
			def := "-"
			if p.Default != nil {
				def = fmt.Sprintf("%v", p.Default)
			}
			fmt.Printf("    %-10s %-7s default=%-8s %s\n", p.Name, p.Type, def, p.Doc)
		}
	}
}

func printTable4(graphList []string, workloads map[string]*bench.Workload) {
	fmt.Println("TABLE IV: Benchmark matrices")
	fmt.Printf("%-10s %12s %14s %12s\n", "graph", "nodes", "entries in A", "graph kind")
	for _, gName := range graphList {
		w := workloads[gName]
		fmt.Printf("%-10s %12d %14d %12s\n", gName, w.Edges.N, w.LG.A.NVals(), lagraph.KindName(w.LG.Kind))
	}
	fmt.Println()
}

// cellWorkload symmetrises directed workloads for undirected-only
// kernels (TC and friends), exactly as the real GAP runner does.
func cellWorkload(alg string, w *bench.Workload) *bench.Workload {
	if d, ok := algo.Default().Get(bench.CatalogName(alg)); ok && d.Undirected {
		return bench.TCWorkload(w)
	}
	return w
}

// cellTrials reduces whole-graph kernels (no source parameter) to one
// trial, as the GAP runner times them once.
func cellTrials(alg string, trials int) int {
	d, ok := algo.Default().Get(bench.CatalogName(alg))
	if !ok {
		return trials
	}
	for _, p := range d.Params {
		if p.Name == "source" || p.Name == "sources" {
			return trials
		}
	}
	return 1
}

// printTable3 renders the run-time table: a GAP and an SS row per
// algorithm (SS alone for kernels without a GAP baseline), then the
// SS/GAP ratios of the same paired timings.
func printTable3(graphList, algoList []string, workloads map[string]*bench.Workload, trials int) {
	fmt.Println("TABLE III: Run time of GAP and LAGraph+GrB (seconds)")
	printRow("package", graphList)
	ratios := make([][]string, len(algoList))
	for a, alg := range algoList {
		impls := []string{"GAP", "SS"}
		if !bench.HasGAP(alg) {
			impls = []string{"SS"}
		}
		rows := make([][]string, len(impls))
		for _, gName := range graphList {
			secs, err := pairedCell(alg, impls, cellWorkload(alg, workloads[gName]), cellTrials(alg, trials))
			if err != nil {
				// A kernel/graph incompatibility (cc.advanced on an
				// asymmetric directed class, say) skips the cell with a
				// warning instead of aborting the whole table.
				fmt.Fprintf(os.Stderr, "gapbench: skipping %s on %s: %v\n", alg, gName, err)
			}
			ratio := "-"
			for i := range impls {
				cell := "-"
				if err == nil {
					cell = fmt.Sprintf("%.3f", secs[i])
				}
				rows[i] = append(rows[i], cell)
			}
			if err == nil && len(impls) == 2 && secs[0] > 0 {
				ratio = fmt.Sprintf("%.2f", secs[1]/secs[0])
			}
			ratios[a] = append(ratios[a], ratio)
		}
		for i, impl := range impls {
			printRow(alg+" : "+impl, rows[i])
		}
	}
	fmt.Println()
	fmt.Println("SS / GAP ratio (>1: GAP faster, <1: LAGraph faster)")
	printRow("", graphList)
	for a, alg := range algoList {
		printRow(alg, ratios[a])
	}
}

func printRow(label string, cells []string) {
	fmt.Printf("%-12s", label)
	for _, c := range cells {
		fmt.Printf(" %10s", c)
	}
	fmt.Println()
}

// pairedCell times one (algorithm, graph) cell, alternating the
// implementations trial by trial, and returns each one's mean seconds in
// impls order.
func pairedCell(alg string, impls []string, w *bench.Workload, trials int) ([]float64, error) {
	if trials < 1 {
		trials = 1
	}
	secs := make([]float64, len(impls))
	for trial := 0; trial < trials; trial++ {
		for i, impl := range impls {
			res, err := bench.RunTrial(alg, impl, w, trial)
			if err != nil && !lagraph.IsWarning(err) {
				return nil, fmt.Errorf("%s: %w", impl, err)
			}
			secs[i] += res.Seconds / float64(trials)
		}
	}
	return secs, nil
}

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gapbench: "+format+"\n", args...)
	os.Exit(1)
}

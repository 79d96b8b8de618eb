// Command promcheck validates Prometheus text exposition (format 0.0.4)
// with the strict parser from internal/obs: every sample must belong to a
// declared TYPE family, label syntax and escaping must be exact, and
// histograms must have monotone cumulative buckets ending in +Inf with a
// matching _count and a _sum.
//
// Usage:
//
//	curl -s localhost:8080/metrics | promcheck
//	promcheck -url http://localhost:8080/metrics
//	promcheck -url http://localhost:8080/metrics \
//	    -require jobs_queued,store_wal_appends_total \
//	    -require go_goroutines,component_ready,http_requests_total
//
// -require repeats and takes comma-separated lists; when families are
// missing, promcheck prints every missing family (one per line) before
// exiting non-zero, so one CI run reports the whole gap instead of the
// first hole. Exit status 0 means the exposition parsed and every
// required family is present; CI runs it against a live lagraphd to keep
// /metrics honest.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"lagraph/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main minus the process boundary, so tests can drive it.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("promcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		url      = fs.String("url", "", "scrape this endpoint instead of reading stdin")
		quiet    = fs.Bool("q", false, "print nothing on success")
		required []string
	)
	fs.Func("require", "comma-separated metric families that must be present (repeatable)", func(v string) error {
		for _, name := range strings.Split(v, ",") {
			if name = strings.TrimSpace(name); name != "" {
				required = append(required, name)
			}
		}
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return 2
	}

	in := stdin
	if *url != "" {
		c := &http.Client{Timeout: 10 * time.Second}
		resp, err := c.Get(*url)
		if err != nil {
			fmt.Fprintf(stderr, "promcheck: scraping %s: %v\n", *url, err)
			return 1
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fmt.Fprintf(stderr, "promcheck: scraping %s: status %s\n", *url, resp.Status)
			return 1
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			fmt.Fprintf(stderr, "promcheck: scraping %s: unexpected Content-Type %q\n", *url, ct)
			return 1
		}
		in = resp.Body
	}

	exp, err := obs.ValidateExposition(in)
	if err != nil {
		fmt.Fprintf(stderr, "promcheck: invalid exposition: %v\n", err)
		return 1
	}

	var missing []string
	for _, name := range required {
		if _, ok := exp.Types[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		// Report the complete gap, not the first hole: one CI failure
		// names every family that fell out of the exposition.
		for _, name := range missing {
			fmt.Fprintf(stderr, "promcheck: missing required family: %s\n", name)
		}
		fmt.Fprintf(stderr, "promcheck: %d of %d required families missing\n", len(missing), len(required))
		return 1
	}
	if !*quiet {
		fmt.Fprintf(stdout, "ok: %d families, %d samples\n", len(exp.Types), len(exp.Samples))
	}
	return 0
}

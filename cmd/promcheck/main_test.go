package main

import (
	"strings"
	"testing"
)

const validExposition = `# HELP jobs_queued Jobs waiting for a worker.
# TYPE jobs_queued gauge
jobs_queued 0
# HELP store_wal_appends_total WAL batches appended.
# TYPE store_wal_appends_total counter
store_wal_appends_total 12
`

func runCheck(t *testing.T, args []string, input string) (code int, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, strings.NewReader(input), &out, &errb)
	return code, errb.String()
}

func TestRunValidWithRequired(t *testing.T) {
	code, stderr := runCheck(t, []string{"-require", "jobs_queued,store_wal_appends_total"}, validExposition)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
}

// TestRunReportsEveryMissingFamily is the -require contract: one run
// names the complete gap — every missing family on its own line — and
// exits non-zero, instead of stopping at the first hole.
func TestRunReportsEveryMissingFamily(t *testing.T) {
	code, stderr := runCheck(t, []string{
		"-require", "jobs_queued,component_ready",
		"-require", "http_requests_total",
	}, validExposition)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr)
	}
	for _, want := range []string{
		"missing required family: component_ready",
		"missing required family: http_requests_total",
		"2 of 3 required families missing",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr)
		}
	}
	if strings.Contains(stderr, "missing required family: jobs_queued") {
		t.Errorf("present family reported missing:\n%s", stderr)
	}
}

func TestRunInvalidExposition(t *testing.T) {
	code, stderr := runCheck(t, []string{}, "untyped_sample 1\n")
	if code != 1 || !strings.Contains(stderr, "invalid exposition") {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
}

func TestRunBadFlag(t *testing.T) {
	if code, _ := runCheck(t, []string{"-no-such-flag"}, ""); code != 2 {
		t.Fatalf("exit %d, want 2 for a flag parse error", code)
	}
}

package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestParseExps(t *testing.T) {
	got, err := parseExps("table2, headline,metrics")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"table2", "headline", "metrics"} {
		if !got[id] {
			t.Errorf("%s not selected: %v", id, got)
		}
	}
	if _, err := parseExps("all"); err != nil {
		t.Errorf("all: %v", err)
	}
	for _, bad := range []string{"tabel2", "table2,perf"} {
		_, err := parseExps(bad)
		if err == nil || !strings.Contains(err.Error(), "valid: all table1") {
			t.Errorf("%q: err = %v, want an unknown-experiment error listing the valid ids", bad, err)
		}
	}
}

// TestUnknownExperimentExitStatus runs main in a child process: an
// unknown -exp id must exit 2 before any workload is built.
func TestUnknownExperimentExitStatus(t *testing.T) {
	if os.Getenv("LSMS_BENCH_RUN_MAIN") == "1" {
		os.Args = []string{"lsms-bench", "-exp", "tabel2"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownExperimentExitStatus$")
	cmd.Env = append(os.Environ(), "LSMS_BENCH_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), `unknown experiment "tabel2"`) {
		t.Fatalf("output does not name the bad id:\n%s", out)
	}
}

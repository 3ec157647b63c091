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
	for _, bad := range []string{"tabel2", "table2,perf", "latencies"} {
		_, err := parseExps(bad)
		if err == nil || !strings.Contains(err.Error(), "valid: all table1") {
			t.Errorf("%q: err = %v, want an unknown-experiment error listing the valid ids", bad, err)
		}
	}
}

// TestUnknownExperimentExitStatus runs main in a child process: an
// unknown -exp id or flag (retired ones included) must exit 2 before
// any workload is built.
func TestUnknownExperimentExitStatus(t *testing.T) {
	if args := os.Getenv("LSMS_BENCH_ARGS"); args != "" {
		os.Args = append([]string{"lsms-bench"}, strings.Fields(args)...)
		main()
		return
	}
	for _, c := range []struct{ args, msg string }{
		{"-exp tabel2", `unknown experiment "tabel2"`},
		{"-exp latencies", `unknown experiment "latencies"`},
		{"-nofastpaths -exp table1", "flag provided but not defined: -nofastpaths"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownExperimentExitStatus$")
		cmd.Env = append(os.Environ(), "LSMS_BENCH_ARGS="+c.args)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("%s: exit = %v, want status 2; output:\n%s", c.args, err, out)
		} else if !strings.Contains(string(out), c.msg) {
			t.Errorf("%s: output does not say %q:\n%s", c.args, c.msg, out)
		}
	}
}

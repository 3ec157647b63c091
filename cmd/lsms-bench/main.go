// Command lsms-bench regenerates the paper's evaluation (Sections 6-7):
// every table and figure, plus the extra ablations DESIGN.md documents.
//
// Usage:
//
//	lsms-bench [-size 1525] [-seed 1993] [-exp all] [-parallel N]
//	           [-metricsjson BENCH_metrics.json]
//	           [-tracedir DIR] [-deadline 0] [-degrade]
//
// -tracedir traces every compilation in the sweep and writes one Chrome
// trace_event document per policy (DIR/<policy>.trace.json) — open in
// Perfetto to see which loops and pipeline phases dominate a sweep.
//
// -exp takes a comma-separated list of the ids in bench.Experiments
// (table1 ... metrics), or all; an unknown id exits with status 2.
//
// The "gap" experiment re-searches the corpus with the exact
// branch-and-bound backend under a per-loop budget (-gap-deadline,
// -gap-nodes) and reports the heuristic's optimality gap per target:
// how often slack was provably optimal, where the exact search won II
// or MaxLive, and the timeout rate. Like "targets" it honors -targets
// and prints console and Markdown tables.
//
// -machine runs the whole evaluation on another registered target (or
// a spec file: any argument containing a path separator or .json is
// loaded as a declarative machine document). The "targets" experiment
// sweeps the corpus on every registered target instead (-targets picks
// a subset) and prints both console and Markdown tables — the latter
// is what EXPERIMENTS.md publishes.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
)

func main() {
	var opt bench.Options
	flag.IntVar(&opt.Size, "size", 1525, "number of workload loops (paper: 1,525)")
	flag.Int64Var(&opt.Seed, "seed", 1993, "workload generator seed")
	exp := flag.String("exp", "all", "comma-separated experiment ids")
	flag.IntVar(&opt.Parallel, "parallel", 0, "worker pool for the scheduling sweep (0 = GOMAXPROCS, 1 = sequential)")
	flag.StringVar(&opt.MetricsJSON, "metricsjson", "", "write each policy's summed effort counters (the §6 Stats) as JSON here (implies -exp metrics)")
	tracedir := flag.String("tracedir", "", "write one Chrome trace_event file per policy into this directory")
	flag.DurationVar(&opt.Deadline, "deadline", 0, "per-loop scheduling deadline (0 = unbudgeted)")
	flag.BoolVar(&opt.Degrade, "degrade", false, "fall back to the list scheduler when a loop exhausts its deadline")
	machName := flag.String("machine", "", "target machine: a registered name or a spec file (default: the paper machine)")
	targets := flag.String("targets", "", "targets/gap experiments: comma-separated machine names (default: every registered target)")
	flag.DurationVar(&opt.GapDeadline, "gap-deadline", 2*time.Second, "gap experiment: per-loop exact-search wall-clock budget")
	flag.Int64Var(&opt.GapNodes, "gap-nodes", 1<<20, "gap experiment: per-loop exact-search node budget")
	flag.Parse()

	wants, err := parseExps(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lsms-bench: %v\n", err)
		os.Exit(2)
	}
	if opt.MetricsJSON != "" {
		wants["metrics"] = true
	}
	opt.Mach = resolveMachine(*machName)
	if *targets != "" {
		for _, t := range strings.Split(*targets, ",") {
			opt.Targets = append(opt.Targets, strings.TrimSpace(t))
		}
	}
	opt.Trace = *tracedir != ""

	env := &bench.Env{Options: opt, Out: os.Stdout}
	for _, x := range bench.Experiments {
		if wants["all"] || wants[x.ID] {
			check(x.Run(env))
		}
	}
	if *tracedir != "" {
		s, err := env.Suite()
		check(err)
		check(writeTraces(s, *tracedir))
	}
}

// parseExps splits the comma-separated -exp list, rejecting ids that
// name no experiment so a typo cannot pass for an empty run.
func parseExps(list string) (map[string]bool, error) {
	wants := map[string]bool{}
	for _, e := range strings.Split(list, ",") {
		e = strings.TrimSpace(e)
		if e == "" {
			continue
		}
		if e != "all" && !slices.ContainsFunc(bench.Experiments, func(x bench.Experiment) bool { return x.ID == e }) {
			ids := make([]string, len(bench.Experiments))
			for i, x := range bench.Experiments {
				ids[i] = x.ID
			}
			return nil, fmt.Errorf("unknown experiment %q (valid: all %s)", e, strings.Join(ids, " "))
		}
		wants[e] = true
	}
	return wants, nil
}

// writeTraces sweeps every policy (cached runs are reused) and writes
// each policy's per-loop span traces as one Chrome trace_event file.
func writeTraces(s *bench.Suite, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range core.Schedulers() {
		rs, err := s.Runs(name)
		if err != nil {
			return err
		}
		traces := make([]*obs.Trace, 0, len(rs))
		for _, r := range rs {
			if r.Trace != nil {
				traces = append(traces, r.Trace)
			}
		}
		path := filepath.Join(dir, string(name)+".trace.json")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := obs.WriteChromeTrace(f, traces); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace for %s (%d loops) written to %s\n", name, len(traces), path)
	}
	return nil
}

// resolveMachine turns the -machine argument into a description: empty
// means the paper machine (nil lets each experiment default). A
// file-loaded machine is registered so every part of the harness can
// find it by name.
func resolveMachine(arg string) *machine.Desc {
	if arg == "" {
		return nil
	}
	m, err := machine.Resolve(arg)
	check(err)
	machine.Register(m)
	return m
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lsms-bench: "+format+"\n", args...)
	os.Exit(1)
}

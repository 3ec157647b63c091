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
// Experiments: table1 table2 table3 table4 fig5 fig6 fig7 fig8 effort
// headline ablation regalloc iistep expansion predshare straightline
// latencies targets gap metrics all. An unknown id exits with status 2.
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
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sched"
)

func main() {
	size := flag.Int("size", 1525, "number of workload loops (paper: 1,525)")
	seed := flag.Int64("seed", 1993, "workload generator seed")
	exp := flag.String("exp", "all", "comma-separated experiment ids")
	par := flag.Int("parallel", 0, "worker pool for the scheduling sweep (0 = GOMAXPROCS, 1 = sequential)")
	metricsjson := flag.String("metricsjson", "", "write the merged event-stream metrics JSON here (implies -exp metrics)")
	tracedir := flag.String("tracedir", "", "write one Chrome trace_event file per policy into this directory")
	noFast := flag.Bool("nofastpaths", false, "disable parametric MinDist reuse and incremental bounds (perf attribution baseline)")
	deadline := flag.Duration("deadline", 0, "per-loop scheduling deadline (0 = unbudgeted)")
	degrade := flag.Bool("degrade", false, "fall back to the list scheduler when a loop exhausts its deadline")
	machName := flag.String("machine", "", "target machine: a registered name or a spec file (default: the paper machine)")
	targets := flag.String("targets", "", "targets/gap experiments: comma-separated machine names (default: every registered target)")
	gapDeadline := flag.Duration("gap-deadline", 2*time.Second, "gap experiment: per-loop exact-search wall-clock budget")
	gapNodes := flag.Int64("gap-nodes", 1<<20, "gap experiment: per-loop exact-search node budget")
	flag.Parse()

	wants, err := parseExps(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lsms-bench: %v\n", err)
		os.Exit(2)
	}
	want := func(id string) bool { return wants["all"] || wants[id] }
	mach := resolveMachine(*machName)

	var s *bench.Suite
	suite := func() *bench.Suite {
		if s == nil {
			var err error
			s, err = bench.NewSuite(loopgen.Options{Size: *size, Seed: *seed, Mach: mach})
			if err != nil {
				fatalf("building workload: %v", err)
			}
			s.Parallel = *par
			s.Degrade = *degrade
			s.Trace = *tracedir != ""
			if *noFast || *deadline > 0 {
				cfg := sched.Config{
					NoFastPaths: *noFast,
					Budget:      sched.Budget{Deadline: *deadline},
				}
				for _, n := range core.Schedulers() {
					s.Configure(n, cfg)
				}
			}
			fmt.Printf("workload: %d loops (seed %d) on machine %q\n\n", s.Size(), *seed, s.Mach.Name)
		}
		return s
	}

	if want("table1") {
		fmt.Println(bench.Table1(machine.Cydra()))
	}
	if want("table2") {
		r, err := bench.Table2(suite())
		check(err)
		fmt.Println(r)
	}
	if want("table3") {
		r, err := bench.Table34(suite(), core.SchedSlack)
		check(err)
		fmt.Println("Table 3 — " + r.String())
	}
	if want("table4") {
		r, err := bench.Table34(suite(), core.SchedCydrome)
		check(err)
		fmt.Println("Table 4 — " + r.String())
	}
	if want("fig5") {
		r, err := bench.Figure5(suite())
		check(err)
		fmt.Println(r)
	}
	if want("fig6") {
		r, err := bench.Figure6(suite())
		check(err)
		fmt.Println(r)
	}
	if want("fig7") {
		r, err := bench.Figure7(suite())
		check(err)
		fmt.Println(r)
	}
	if want("fig8") {
		r, err := bench.Figure8(suite())
		check(err)
		fmt.Println(r)
	}
	if want("effort") {
		for _, n := range []core.SchedulerName{core.SchedSlack, core.SchedCydrome} {
			r, err := bench.Effort(suite(), n)
			check(err)
			fmt.Println(r)
		}
	}
	if want("headline") {
		r, err := bench.Headline(suite())
		check(err)
		fmt.Println(r)
	}
	if want("ablation") {
		r, err := bench.Ablation(suite())
		check(err)
		fmt.Println(r)
	}
	if want("regalloc") {
		r, err := bench.Regalloc(suite())
		check(err)
		fmt.Println(bench.RenderRegalloc(r))
	}
	if want("iistep") {
		n := *size
		if n > 400 {
			n = 400 // two full suite runs; keep the ablation affordable
		}
		r, err := bench.IIStep(loopgen.Options{Size: n, Seed: *seed})
		check(err)
		fmt.Println(r)
	}
	if want("expansion") {
		r, err := bench.CodeExpansion(suite())
		check(err)
		fmt.Println(r)
	}
	if want("predshare") {
		r, err := bench.PredicateSharing(suite())
		check(err)
		fmt.Println(r)
	}
	if want("straightline") {
		r, err := bench.Straightline(suite())
		check(err)
		fmt.Println(r)
	}
	if want("latencies") {
		n := *size
		if n > 400 {
			n = 400
		}
		rows, err := bench.Latencies(n, *seed)
		check(err)
		fmt.Println(bench.RenderLatencies(rows))
	}
	if want("targets") {
		names := machine.Names()
		if *targets != "" {
			names = nil
			for _, t := range strings.Split(*targets, ",") {
				names = append(names, strings.TrimSpace(t))
			}
		}
		rows, err := bench.TargetSweep(*size, *seed, *par, names)
		check(err)
		fmt.Println(bench.RenderTargetSweep(rows))
		fmt.Println("Markdown (EXPERIMENTS.md form):")
		fmt.Println(bench.MarkdownTargetSweep(rows))
	}
	if want("gap") {
		names := machine.Names()
		if *targets != "" {
			names = nil
			for _, t := range strings.Split(*targets, ",") {
				names = append(names, strings.TrimSpace(t))
			}
		}
		rows, err := bench.GapSweep(bench.GapOptions{
			Size: *size, Seed: *seed, Parallel: *par,
			Targets: names, Deadline: *gapDeadline, Nodes: *gapNodes,
		})
		check(err)
		fmt.Println(bench.RenderGap(rows))
		fmt.Println("Markdown (EXPERIMENTS.md form):")
		fmt.Println(bench.MarkdownGap(rows))
	}
	if want("metrics") || *metricsjson != "" {
		r, err := bench.CollectMetrics(suite())
		check(err)
		fmt.Println(r)
		if *metricsjson != "" {
			check(r.WriteJSON(*metricsjson))
			fmt.Printf("metrics record written to %s\n", *metricsjson)
		}
	}
	if *tracedir != "" {
		check(writeTraces(suite(), *tracedir))
	}
}

// experiments lists the -exp ids in the order they run.
var experiments = []string{"table1", "table2", "table3", "table4", "fig5", "fig6", "fig7", "fig8",
	"effort", "headline", "ablation", "regalloc", "iistep", "expansion", "predshare",
	"straightline", "latencies", "targets", "gap", "metrics"}

// parseExps splits the comma-separated -exp list, rejecting ids that
// name no experiment so a typo cannot pass for an empty run.
func parseExps(list string) (map[string]bool, error) {
	wants := map[string]bool{}
	for _, e := range strings.Split(list, ",") {
		e = strings.TrimSpace(e)
		if e == "" {
			continue
		}
		if e != "all" && !slices.Contains(experiments, e) {
			return nil, fmt.Errorf("unknown experiment %q (valid: all %s)", e, strings.Join(experiments, " "))
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
// means the paper machine (nil lets each harness default), a path-like
// argument is loaded as a spec document, anything else must be a
// registered name. File-loaded machines are registered so every part
// of the harness can find them by name.
func resolveMachine(arg string) *machine.Desc {
	if arg == "" {
		return nil
	}
	if m, ok := machine.Lookup(arg); ok {
		return m
	}
	if strings.ContainsAny(arg, "/\\") || strings.HasSuffix(arg, ".json") {
		m, err := machine.LoadFile(arg)
		if err != nil {
			fatalf("%v", err)
		}
		machine.Register(m)
		return m
	}
	fatalf("unknown machine %q (registered: %v; or pass a spec file)", arg, machine.Names())
	return nil
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

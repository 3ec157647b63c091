// Command lsms compiles mini-FORTRAN DO loops and modulo schedules them
// with the paper's lifetime-sensitive bidirectional slack scheduler (or
// any of the baselines), printing the loop IR, the II lower bounds, the
// schedule, its register pressure against the MinAvg bound, and the
// generated rotating-register kernel.
//
// Usage:
//
//	lsms [-scheduler slack|slack-unidirectional|cydrome|list|exact]
//	     [-machine <registered name>|path/to/spec.json]
//	     [-dump ir,sched,kernel,pressure]
//	     [-trace[=text|chrome]] [-traceout lsms-trace.json]
//	     [-deadline 0] [-degrade] file.f
//
// -trace (or -trace=text) prints the scheduler's per-iteration decision
// trace before each loop's report. -trace=chrome instead records each
// loop's compile-pipeline span trace and writes one Chrome trace_event
// document to -traceout — load it in Perfetto or chrome://tracing to
// see where the compile time went.
//
// -machine accepts any registered target name (see `lsmsd`'s GET
// /v1/machines, or the built-in family: cydra, shortmem, longops,
// pipediv, cluster2, simdwide, cgra4) or the path of a declarative
// machine.Spec JSON document — any argument with a path separator or a
// .json suffix is loaded as a file.
//
// With -emit json, lsms does not schedule: it prints each eligible
// loop's canonical wire-format compile request (lsms-wire/2) as one
// JSON line on stdout — ready to POST to lsmsd's /v1/compile — and the
// loop's content hash (the service's cache key) on stderr. For a
// file-loaded machine the request embeds the spec, so a server that
// has never heard of the target can still compile for it.
//
// Exit codes map the typed compilation errors so scripts can tell the
// failure modes apart:
//
//	0 — every eligible loop was scheduled (possibly degraded);
//	1 — generic failure (I/O, frontend, internal error);
//	2 — the -scheduler name has no registration (core.ErrUnknownScheduler);
//	3 — some loop was infeasible: the II ceiling was exhausted
//	    (sched.ErrInfeasible);
//	4 — some loop exhausted its -deadline budget without -degrade
//	    rescuing it (sched.ErrBudgetExhausted).
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/viz"
	"repro/internal/wire"
)

// The documented exit codes.
const (
	exitOK         = 0
	exitGeneric    = 1
	exitUnknown    = 2
	exitInfeasible = 3
	exitBudget     = 4
)

// traceFlag is the -trace mode: "" (off), "text" (the per-iteration
// decision trace), or "chrome" (trace_event spans to -traceout). It is
// boolean-shaped so the historical bare "-trace" keeps meaning text.
type traceFlag struct{ mode string }

func (f *traceFlag) String() string { return f.mode }

func (f *traceFlag) IsBoolFlag() bool { return true }

func (f *traceFlag) Set(s string) error {
	switch s {
	case "true":
		f.mode = "text"
	case "false":
		f.mode = ""
	case "text", "chrome":
		f.mode = s
	default:
		return fmt.Errorf("unknown trace mode %q (supported: text, chrome)", s)
	}
	return nil
}

func main() {
	schedName := flag.String("scheduler", "slack", "scheduling policy: slack, slack-unidirectional, cydrome, list, exact")
	machName := flag.String("machine", machine.PaperMachine, "target machine: a registered name or a spec file (JSON)")
	dump := flag.String("dump", "sched,pressure", "comma-separated: ir, sched, mrt, gantt, lifetimes, kernel, pressure")
	verify := flag.Bool("verify", false, "execute the generated kernel on the VLIW simulator against the interpreter (auto-generated inputs)")
	par := flag.Int("parallel", 0, "compile the file's loops on this many workers (0 = GOMAXPROCS, 1 = sequential); output order is unchanged")
	var trace traceFlag
	flag.Var(&trace, "trace", `trace mode: "text" prints the per-iteration scheduler trace, "chrome" writes pipeline spans to -traceout`)
	traceout := flag.String("traceout", "lsms-trace.json", "Chrome trace_event output path for -trace=chrome")
	deadline := flag.Duration("deadline", 0, "per-loop scheduling deadline (0 = unbudgeted)")
	degrade := flag.Bool("degrade", false, "fall back to the list scheduler when a loop exhausts its -deadline")
	emit := flag.String("emit", "", `emit "json": print each eligible loop's canonical wire request instead of scheduling`)
	flag.Parse()

	// A registered name resolves through the registry; a path-like
	// argument loads a declarative spec document. File-loaded machines
	// are deliberately NOT registered: wire.NewRequest then embeds the
	// spec in emitted requests, so -emit json output is self-contained.
	m, err := machine.Resolve(*machName)
	if err != nil {
		fatalf("%v", err)
	}

	var src []byte
	switch flag.NArg() {
	case 0:
		src, err = io.ReadAll(os.Stdin)
	case 1:
		src, err = os.ReadFile(flag.Arg(0))
	default:
		fatalf("usage: lsms [flags] [file.f]")
	}
	if err != nil {
		fatalf("reading source: %v", err)
	}

	unit, loops, err := frontend.Compile(string(src), m)
	if err != nil {
		fatalf("compile: %v", err)
	}

	if *emit != "" {
		if *emit != "json" {
			fatalf("unknown -emit format %q (supported: json)", *emit)
		}
		os.Exit(emitWire(loops, *schedName, *deadline, *degrade))
	}

	fmt.Printf("subroutine %s: %d innermost loop(s)\n", unit.Prog.Name, len(loops))

	wants := map[string]bool{}
	for _, d := range strings.Split(*dump, ",") {
		wants[strings.TrimSpace(d)] = true
	}

	// Compile every eligible loop up front — concurrently when -parallel
	// allows — then render the reports in source order. Each loop gets
	// its own trace buffer so parallel compilation cannot interleave the
	// event streams.
	compiled := make([]*core.Compiled, len(loops))
	cerrs := make([]error, len(loops))
	traces := make([]bytes.Buffer, len(loops))
	spans := make([]*obs.Trace, len(loops))
	compileAll(loops, *par, func(i int) {
		if loops[i].Ineligible != nil {
			return
		}
		opt := core.Options{
			Scheduler: core.SchedulerName(*schedName),
			Config:    sched.Config{Budget: sched.Budget{Deadline: *deadline}},
			Degrade:   *degrade,
		}
		if trace.mode == "text" {
			opt.Config.Observer = sched.TextObserver(&traces[i])
		}
		ctx := context.Background()
		if trace.mode == "chrome" {
			name := fmt.Sprintf("loop-%d", i+1)
			spans[i] = obs.NewTrace(name, name)
			ctx = obs.WithTrace(ctx, spans[i])
		}
		compiled[i], cerrs[i] = core.Compile(ctx, loops[i].Loop, opt)
		if spans[i] != nil {
			spans[i].Finish(compileOutcome(compiled[i], cerrs[i]))
		}
	})

	exit := exitOK
	worse := func(code int) {
		if code > exit {
			exit = code
		}
	}
	for i, cl := range loops {
		fmt.Printf("\n=== loop %d (line %d) ===\n", i+1, cl.Do.Pos())
		if cl.Ineligible != nil {
			fmt.Printf("not modulo scheduled: %v\n", cl.Ineligible)
			continue
		}
		if wants["ir"] {
			fmt.Print(cl.Loop.String())
		}
		if trace.mode == "text" && traces[i].Len() > 0 {
			os.Stdout.Write(traces[i].Bytes())
		}
		c, err := compiled[i], cerrs[i]
		if err != nil {
			var be *sched.BudgetError
			switch {
			case errors.Is(err, core.ErrUnknownScheduler):
				fmt.Fprintf(os.Stderr, "lsms: %v\n", err)
				os.Exit(exitUnknown)
			case errors.As(err, &be):
				fmt.Printf("scheduler %s exhausted its budget (%s) at II=%d (MII %d) after %d central iteration(s)\n",
					*schedName, be.Reason, be.LastII, be.MII, be.Stats.CentralIters)
				worse(exitBudget)
				continue
			case errors.Is(err, sched.ErrInfeasible):
				// Fall through: the partial result carries the give-up
				// evidence the report below prints.
			default:
				fatalf("scheduling: %v", err)
			}
		}
		b := c.Result.Bounds
		fmt.Printf("bounds: ResMII=%d RecMII=%d MII=%d\n", b.ResMII, b.RecMII, b.MII)
		if !c.OK() {
			fmt.Printf("scheduler %s gave up (last II attempted: %d)\n", *schedName, c.Result.FailedII)
			worse(exitInfeasible)
			continue
		}
		if c.Degraded {
			fmt.Printf("budget exhausted (%s); degraded to the list scheduler\n", c.BudgetErr.Reason)
		}
		s := c.Result.Schedule
		fmt.Printf("scheduled at II=%d (%s), length %d, %d stages\n",
			s.II, optimality(s.II, b.MII), s.Length(), s.Stages())
		if wants["sched"] {
			fmt.Print(s.String())
		}
		if wants["mrt"] {
			fmt.Print(viz.MRT(cl.Loop, s))
		}
		if wants["gantt"] {
			fmt.Print(viz.Gantt(cl.Loop, s))
		}
		if wants["lifetimes"] {
			fmt.Print(viz.Lifetimes(cl.Loop, s))
		}
		if wants["pressure"] {
			fmt.Printf("pressure: MaxLive=%d MinAvg=%d (gap %d), GPRs=%d, ICR=%d\n",
				c.RR.MaxLive, c.MinAvg, c.RR.MaxLive-c.MinAvg, c.GPRs, c.ICR)
		}
		if wants["kernel"] && c.Kernel != nil {
			fmt.Print(c.Kernel.String())
		}
		st := c.Result.Stats
		fmt.Printf("effort: %d II attempt(s), %d central iterations, %d forces, %d ejections, %v\n",
			st.IIAttempts, st.CentralIters, st.Forces, st.Ejections, st.Elapsed)
		if *verify {
			env, _, trips, err := cl.BuildEnv(loopgen.AutoBinding(cl))
			if err != nil {
				fmt.Printf("verify: cannot build an environment: %v\n", err)
				continue
			}
			if trips > 64 {
				trips = 64
			}
			if err := core.VerifyExecution(c, env, trips); err != nil {
				fatalf("verification FAILED: %v", err)
			}
			fmt.Printf("verify: %d iterations on the VLIW simulator match the interpreter\n", trips)
		}
	}
	if trace.mode == "chrome" {
		kept := make([]*obs.Trace, 0, len(spans))
		for _, tr := range spans {
			if tr != nil {
				kept = append(kept, tr)
			}
		}
		f, err := os.Create(*traceout)
		if err != nil {
			fatalf("trace output: %v", err)
		}
		if err := obs.WriteChromeTrace(f, kept); err != nil {
			fatalf("writing trace: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("writing trace: %v", err)
		}
		fmt.Printf("\nchrome trace (%d loop(s)) written to %s\n", len(kept), *traceout)
	}
	if exit != exitOK {
		os.Exit(exit)
	}
}

// compileOutcome names a finished compilation for its trace, matching
// the vocabulary the lsmsd flight recorder uses.
func compileOutcome(c *core.Compiled, err error) string {
	var be *sched.BudgetError
	switch {
	case errors.As(err, &be):
		if be.Reason != "" {
			return be.Reason
		}
		return obs.OutcomeBudgetExhausted
	case errors.Is(err, sched.ErrInfeasible):
		return obs.OutcomeInfeasible
	case err != nil:
		return obs.OutcomeError
	case c != nil && c.Degraded:
		return obs.OutcomeDegraded
	case c != nil && !c.OK():
		return obs.OutcomeInfeasible
	}
	return obs.OutcomeOK
}

// emitWire prints each eligible loop's canonical wire request as one
// JSON line on stdout and its content hash on stderr. Ineligible loops
// are reported on stderr and degrade the exit code to exitGeneric; the
// JSON stream stays clean either way.
func emitWire(loops []*frontend.CompiledLoop, scheduler string, deadline time.Duration, degrade bool) int {
	opt := wire.OptionsFrom(sched.Config{Budget: sched.Budget{Deadline: deadline}}, degrade)
	code := exitOK
	for i, cl := range loops {
		if cl.Ineligible != nil {
			fmt.Fprintf(os.Stderr, "lsms: loop %d (line %d) not modulo-schedulable: %v\n", i+1, cl.Do.Pos(), cl.Ineligible)
			code = exitGeneric
			continue
		}
		req, err := wire.NewRequest(cl.Loop, scheduler, opt)
		if err != nil {
			fatalf("loop %d: %v", i+1, err)
		}
		b, err := req.Canonical()
		if err != nil {
			fatalf("loop %d: %v", i+1, err)
		}
		hash, err := req.Hash()
		if err != nil {
			fatalf("loop %d: %v", i+1, err)
		}
		os.Stdout.Write(append(b, '\n'))
		fmt.Fprintf(os.Stderr, "lsms: loop %d (line %d): %s\n", i+1, cl.Do.Pos(), hash)
	}
	return code
}

// compileAll runs fn(i) for every loop index over a bounded worker pool.
func compileAll(loops []*frontend.CompiledLoop, par int, fn func(i int)) {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(loops) {
		par = len(loops)
	}
	if par <= 1 {
		for i := range loops {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < par; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(loops) {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

func optimality(ii, mii int) string {
	if ii == mii {
		return "optimal: II = MII"
	}
	return fmt.Sprintf("MII + %d", ii-mii)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lsms: "+format+"\n", args...)
	os.Exit(1)
}

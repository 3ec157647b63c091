package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/sched"
)

// Options are the settings every experiment runs under (lsms-bench's
// flags).
type Options struct {
	Size int   // corpus loops (paper: 1,525)
	Seed int64 // corpus generator seed
	// Mach is the target; nil means the paper machine.
	Mach *machine.Desc
	// Parallel bounds the worker pool: 0 means GOMAXPROCS, 1 sequential.
	Parallel int
	// Deadline bounds each loop's scheduling in the shared suite
	// (0 = unbudgeted); Degrade falls back to the list scheduler when a
	// loop exhausts it.
	Deadline time.Duration
	Degrade  bool
	// Trace attaches a span trace to every run of the shared suite.
	Trace bool
	// Targets names the registered machines the targets and gap
	// experiments sweep; empty means every registered target.
	Targets []string
	// GapDeadline and GapNodes bound one loop's exact search in the gap
	// experiment; defaults 2s and 1<<20 nodes.
	GapDeadline time.Duration
	GapNodes    int64
	// MetricsJSON, if set, is where the metrics experiment writes its
	// record.
	MetricsJSON string
}

// newSuite builds the o.Size-loop corpus on m, swept by o's worker pool.
func (o Options) newSuite(m *machine.Desc) (*Suite, error) {
	s, err := NewSuite(loopgen.Options{Size: o.Size, Seed: o.Seed, Mach: m})
	if err != nil {
		return nil, err
	}
	s.Parallel = o.Parallel
	return s, nil
}

// targets resolves Targets, defaulting to every registered machine.
func (o Options) targets() ([]*machine.Desc, error) {
	if len(o.Targets) == 0 {
		return machine.Machines(), nil
	}
	out := make([]*machine.Desc, len(o.Targets))
	for i, name := range o.Targets {
		m, ok := machine.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("bench: unknown machine %q (registered: %v)", name, machine.Names())
		}
		out[i] = m
	}
	return out, nil
}

// Env is one harness run: its options, its output, and the suite the
// paper's experiments share, built on first use.
type Env struct {
	Options
	Out   io.Writer
	suite *Suite
}

// Suite returns the shared suite, building the workload and announcing
// it on Out the first time.
func (e *Env) Suite() (*Suite, error) {
	if e.suite != nil {
		return e.suite, nil
	}
	s, err := e.newSuite(e.Mach)
	if err != nil {
		return nil, fmt.Errorf("building workload: %w", err)
	}
	s.Degrade = e.Degrade
	s.Trace = e.Trace
	if e.Deadline > 0 {
		for _, n := range core.Schedulers() {
			s.Configure(n, sched.Config{Budget: sched.Budget{Deadline: e.Deadline}})
		}
	}
	fmt.Fprintf(e.Out, "workload: %d loops (seed %d) on machine %q\n\n", s.Size(), e.Seed, s.Mach.Name)
	e.suite = s
	return s, nil
}

// report prints an experiment's result r, or returns its error.
func (e *Env) report(r any, err error) error {
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(e.Out, r)
	return err
}

// Experiment is one -exp id and the run that prints it.
type Experiment struct {
	ID  string
	Run func(*Env) error
}

// Experiments is the experiment registry, in the order "-exp all" runs
// them. lsms-bench dispatches through it, and the paper-tables golden
// (testdata/golden/experiments.txt) runs every entry but the ones it
// names as untabled.
var Experiments = []Experiment{
	{"table1", func(e *Env) error {
		m := e.Mach
		if m == nil {
			m = machine.Cydra()
		}
		return e.report(Table1(m), nil)
	}},
	{"table2", onSuite(Table2)},
	{"table3", onSuite(func(s *Suite) (string, error) { return table34(s, "Table 3", core.SchedSlack) })},
	{"table4", onSuite(func(s *Suite) (string, error) { return table34(s, "Table 4", core.SchedCydrome) })},
	{"fig5", onSuite(Figure5)},
	{"fig6", onSuite(Figure6)},
	{"fig7", onSuite(Figure7)},
	{"fig8", onSuite(Figure8)},
	{"effort", onSuite(func(s *Suite) (string, error) {
		a, err := Effort(s, core.SchedSlack)
		if err != nil {
			return "", err
		}
		b, err := Effort(s, core.SchedCydrome)
		if err != nil {
			return "", err
		}
		return a.String() + "\n" + b.String(), nil
	})},
	{"headline", onSuite(Headline)},
	{"ablation", onSuite(Ablation)},
	{"regalloc", onSuite(Regalloc)},
	{"iistep", func(e *Env) error {
		o := e.Options
		o.Size = min(o.Size, 400) // two full sweeps; keep the ablation affordable
		return e.report(IIStep(o))
	}},
	{"expansion", onSuite(CodeExpansion)},
	{"predshare", onSuite(PredicateSharing)},
	{"straightline", onSuite(Straightline)},
	{"targets", func(e *Env) error {
		rows, err := TargetSweep(e.Options)
		if err != nil {
			return err
		}
		return e.report(RenderTargetSweep(rows)+"\nMarkdown (EXPERIMENTS.md form):\n"+MarkdownTargetSweep(rows), nil)
	}},
	{"gap", func(e *Env) error {
		rows, err := GapSweep(e.Options)
		if err != nil {
			return err
		}
		return e.report(RenderGap(rows)+"\nMarkdown (EXPERIMENTS.md form):\n"+MarkdownGap(rows), nil)
	}},
	{"metrics", func(e *Env) error {
		s, err := e.Suite()
		if err != nil {
			return err
		}
		r, err := CollectMetrics(s)
		if err := e.report(r, err); err != nil || e.MetricsJSON == "" {
			return err
		}
		if err := r.WriteJSON(e.MetricsJSON); err != nil {
			return err
		}
		return e.report("metrics record written to "+e.MetricsJSON, nil)
	}},
}

// onSuite adapts an experiment over the shared suite.
func onSuite[R any](f func(*Suite) (R, error)) func(*Env) error {
	return func(e *Env) error {
		s, err := e.Suite()
		if err != nil {
			return err
		}
		return e.report(f(s))
	}
}

func table34(s *Suite, title string, n core.SchedulerName) (string, error) {
	r, err := Table34(s, n)
	if err != nil {
		return "", err
	}
	return title + " — " + r.String(), nil
}

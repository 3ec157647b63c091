package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/exact"
	"repro/internal/sched"
	"repro/internal/stats"
)

// GapRow summarizes one target's slack-vs-exact comparison. Every
// corpus loop lands in exactly one of Solved, Exhausted, or Failed;
// Proven, SlackOptimal, IIWins, and MLWins partition further detail
// out of Solved.
type GapRow struct {
	Machine string
	Loops   int

	Solved    int // exact returned a schedule (proven or anytime)
	Proven    int // solved with optimality proven within budget
	Exhausted int // budget ran out before any schedule was found
	Failed    int // infeasible or internal failure

	SlackOptimal int // proven loops where slack already matched (II, MaxLive)
	IIWins       int // exact strictly lowered II
	MLWins       int // equal II, exact strictly lowered MaxLive

	SumSlackII int // ΣII of the slack seed over solved loops
	SumExactII int // ΣII of the exact result over the same loops

	// MLDelta is slack MaxLive − exact MaxLive over solved loops where
	// both achieved the same II (the lifetime-sensitivity headroom).
	MLDelta stats.Quantiles

	mlDeltas []int
}

// PctSlackOptimal is the share of proven loops where the slack
// heuristic was already exactly optimal — the paper's central quality
// claim, now measured against a proof instead of the MII proxy.
func (r *GapRow) PctSlackOptimal() float64 {
	if r.Proven == 0 {
		return 0
	}
	return 100 * float64(r.SlackOptimal) / float64(r.Proven)
}

// PctExhausted is the budget-timeout rate over the whole corpus.
func (r *GapRow) PctExhausted() float64 {
	if r.Loops == 0 {
		return 0
	}
	return 100 * float64(r.Exhausted) / float64(r.Loops)
}

// IIRatio is ΣII(slack) / ΣII(exact) over solved loops; 1.0 means the
// heuristic never pays an II penalty the exact search can recover.
func (r *GapRow) IIRatio() float64 {
	if r.SumExactII == 0 {
		return 0
	}
	return float64(r.SumSlackII) / float64(r.SumExactII)
}

// GapSweep measures the heuristic's optimality gap per target: every
// corpus loop is re-searched by the exact backend under the given
// budget, and the exact outcome's own slack seed (the identical
// warm-start the backend refines) is the baseline — so each row
// compares a heuristic answer and an exact answer produced under the
// same configuration. The corpus is regenerated per target, as in
// TargetSweep.
func GapSweep(opt Options) ([]GapRow, error) {
	if opt.GapDeadline <= 0 {
		opt.GapDeadline = 2 * time.Second
	}
	if opt.GapNodes <= 0 {
		opt.GapNodes = 1 << 20
	}
	ms, err := opt.targets()
	if err != nil {
		return nil, err
	}
	var out []GapRow
	for _, m := range ms {
		s, err := opt.newSuite(m)
		if err != nil {
			return nil, err
		}
		row := GapRow{Machine: m.Name, Loops: len(s.Loops)}
		type verdict struct {
			solved, proven, exhausted, failed bool
			slackII, exactII                  int
			mlDelta                           int // valid when solved && slackII == exactII
			iiWin, mlWin, slackOpt            bool
		}
		vs := make([]verdict, len(s.Loops))
		err = s.forEach(len(s.Loops), func(i int) error {
			l := s.Loops[i].CL.Loop
			cfg := sched.Config{Budget: sched.Budget{
				Deadline:        opt.GapDeadline,
				MaxCentralIters: opt.GapNodes,
			}}
			res, err := exact.New(cfg).Search(context.Background(), l)
			v := &vs[i]
			switch {
			case err == nil && res != nil && res.Result != nil && res.Result.OK():
				v.solved = true
				v.proven = res.Proven
				v.slackII, v.exactII = res.SeedII, res.Result.Schedule.II
				if v.exactII < v.slackII {
					v.iiWin = true
				} else if res.MaxLive < res.SeedMaxLive {
					v.mlWin = true
				}
				if v.slackII == v.exactII {
					v.mlDelta = res.SeedMaxLive - res.MaxLive
				}
				v.slackOpt = res.Proven && !res.Improved
			case errors.Is(err, sched.ErrBudgetExhausted):
				v.exhausted = true
			default:
				v.failed = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for i := range vs {
			v := &vs[i]
			switch {
			case v.solved:
				row.Solved++
				row.SumSlackII += v.slackII
				row.SumExactII += v.exactII
				if v.proven {
					row.Proven++
				}
				if v.slackOpt {
					row.SlackOptimal++
				}
				if v.iiWin {
					row.IIWins++
				}
				if v.mlWin {
					row.MLWins++
				}
				if v.slackII == v.exactII {
					row.mlDeltas = append(row.mlDeltas, v.mlDelta)
				}
			case v.exhausted:
				row.Exhausted++
			default:
				row.Failed++
			}
		}
		row.MLDelta = stats.Quants(row.mlDeltas)
		out = append(out, row)
	}
	return out, nil
}

// RenderGap formats the optimality-gap sweep for the console.
func RenderGap(rows []GapRow) string {
	t := stats.NewTable("Machine", "loops", "solved", "proven", "% slack opt",
		"II wins", "ML wins", "ΣII ratio", "ML Δ p50/max", "% timeout")
	for _, r := range rows {
		t.Row(r.Machine, r.Loops, r.Solved, r.Proven,
			fmt.Sprintf("%.1f", r.PctSlackOptimal()),
			r.IIWins, r.MLWins,
			fmt.Sprintf("%.3f", r.IIRatio()),
			fmt.Sprintf("%d/%d", r.MLDelta.P50, r.MLDelta.Max),
			fmt.Sprintf("%.1f", r.PctExhausted()))
	}
	return "Optimality gap — slack heuristic vs exact branch-and-bound, per target\n" + t.String()
}

// MarkdownGap renders the sweep as a GitHub table — the form
// EXPERIMENTS.md publishes.
func MarkdownGap(rows []GapRow) string {
	var b strings.Builder
	b.WriteString("| Machine | Loops | Solved | Proven | % slack optimal | II wins | ML wins | ΣII ratio | ML Δ p50/max | % timeout |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %d | %d | %d | %.1f | %d | %d | %.3f | %d/%d | %.1f |\n",
			r.Machine, r.Loops, r.Solved, r.Proven, r.PctSlackOptimal(),
			r.IIWins, r.MLWins, r.IIRatio(), r.MLDelta.P50, r.MLDelta.Max, r.PctExhausted())
	}
	return b.String()
}

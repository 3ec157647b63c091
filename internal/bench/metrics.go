// The effort record of a harness sweep: each policy's Section 6
// counters summed over its runs in loop order, so the record is
// deterministic for any worker count.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/wire"
)

// PolicyMetrics is one policy's summed effort plus the per-loop outcome
// tallies of the sweep that produced it.
type PolicyMetrics struct {
	Policy   string `json:"policy"`
	Loops    int    `json:"loops"`
	Failures int    `json:"failures"`           // infeasible loops (OK=false, no error)
	Errors   int    `json:"errors,omitempty"`   // per-loop Run.Err (budget, panic, internal)
	Degraded int    `json:"degraded,omitempty"` // list-scheduler rescues

	// Effort sums wire.EffortOf(run.Stats) over the policy's runs: the
	// counters an lsmsd response reports for one compile.
	Effort wire.Effort `json:"effort"`
}

// MetricsReport is the machine-readable effort record of one sweep
// (lsms-bench -metricsjson). It is byte-identical for serial and
// parallel sweeps.
type MetricsReport struct {
	Size     int             `json:"size"`
	Seed     int64           `json:"seed"`
	Parallel int             `json:"parallel"`
	Policies []PolicyMetrics `json:"policies"`
}

// CollectMetrics sweeps every registered policy, reusing the suite's
// cached sweeps, and sums each policy's effort counters.
func CollectMetrics(s *Suite) (*MetricsReport, error) {
	r := &MetricsReport{Size: s.Size(), Seed: s.Seed, Parallel: s.workers(s.Size())}
	for _, name := range core.Schedulers() {
		rs, err := s.Runs(name)
		if err != nil {
			return nil, err
		}
		p := PolicyMetrics{Policy: string(name), Loops: len(rs)}
		for _, run := range rs {
			switch {
			case run.Err != nil:
				p.Errors++
			case !run.OK:
				p.Failures++
			}
			if run.Degraded {
				p.Degraded++
			}
			e := wire.EffortOf(run.Stats)
			p.Effort.IIAttempts += e.IIAttempts
			p.Effort.CentralIters += e.CentralIters
			p.Effort.Placements += e.Placements
			p.Effort.Forces += e.Forces
			p.Effort.Ejections += e.Ejections
			p.Effort.Restarts += e.Restarts
		}
		r.Policies = append(r.Policies, p)
	}
	return r, nil
}

// WriteJSON records the metrics report at path.
func (r *MetricsReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// String renders the human-readable effort summary.
func (r *MetricsReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scheduling effort — %d loops (seed %d), %d worker(s)\n", r.Size, r.Seed, r.Parallel)
	fmt.Fprintf(&b, "%-22s %9s %10s %10s %9s %10s %9s %7s %7s %9s\n",
		"policy", "attempts", "iters", "places", "forces", "ejects", "restarts", "fails", "errors", "degraded")
	for _, p := range r.Policies {
		e := p.Effort
		fmt.Fprintf(&b, "%-22s %9d %10d %10d %9d %10d %9d %7d %7d %9d\n",
			p.Policy, e.IIAttempts, e.CentralIters, e.Placements, e.Forces, e.Ejections, e.Restarts,
			p.Failures, p.Errors, p.Degraded)
	}
	return b.String()
}

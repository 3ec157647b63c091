// Event-stream metrics of a harness sweep: every loop is scheduled with
// its own sched.Metrics observer and each policy's aggregates merge in
// loop order, so the record is deterministic for any worker count.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/sched"
)

// PolicyMetrics is one policy's merged event-stream aggregates plus the
// per-loop outcome tallies of the sweep that produced them.
type PolicyMetrics struct {
	Policy   string `json:"policy"`
	Loops    int    `json:"loops"`
	Failures int    `json:"failures"`           // infeasible loops (OK=false, no error)
	Errors   int    `json:"errors,omitempty"`   // per-loop Run.Err (budget, panic, internal)
	Degraded int    `json:"degraded,omitempty"` // list-scheduler rescues

	// Events counts the typed event stream by wire name, Outcomes the
	// finished attempts by their AttemptOutcome name; Counters carries
	// the rest of the sched.Metrics aggregate. Both maps marshal with
	// sorted keys (encoding/json's map ordering), so the JSON record is
	// byte-deterministic.
	Events   map[string]int64 `json:"events"`
	Outcomes map[string]int64 `json:"attempt_outcomes"`
	Counters *sched.Metrics   `json:"counters"`
}

// MetricsReport is the machine-readable event-stream record of one
// sweep (lsms-bench -metricsjson). Each policy's per-loop metrics are
// merged in loop order, so the report is byte-identical for serial and
// parallel sweeps.
type MetricsReport struct {
	Size     int             `json:"size"`
	Seed     int64           `json:"seed"`
	Parallel int             `json:"parallel"`
	Policies []PolicyMetrics `json:"policies"`
}

// CollectMetrics sweeps every registered policy with a per-loop
// sched.Metrics observer attached and folds each policy's streams
// deterministically. It enables Suite.Metrics and re-runs the cached
// sweeps that ran without it, so every run carries its aggregate.
func CollectMetrics(s *Suite) (*MetricsReport, error) {
	s.Metrics = true
	r := &MetricsReport{Size: s.Size(), Seed: s.Seed, Parallel: s.workers(s.Size())}
	for _, name := range core.Schedulers() {
		if rs := s.runs[name]; len(rs) > 0 && rs[0].Metrics == nil {
			delete(s.runs, name)
		}
		rs, err := s.Runs(name)
		if err != nil {
			return nil, err
		}
		m := MergeMetrics(rs)
		if m == nil {
			m = &sched.Metrics{}
		}
		p := PolicyMetrics{
			Policy:   string(name),
			Loops:    len(rs),
			Events:   m.EventCounts(),
			Outcomes: m.OutcomeCounts(),
			Counters: m,
		}
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

// String renders the human-readable metrics summary.
func (r *MetricsReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Event-stream metrics — %d loops (seed %d), %d worker(s)\n", r.Size, r.Seed, r.Parallel)
	fmt.Fprintf(&b, "%-22s %10s %10s %12s %10s %8s %8s %9s\n",
		"policy", "attempts", "ok", "places", "ejects", "fails", "errors", "degraded")
	for _, p := range r.Policies {
		fmt.Fprintf(&b, "%-22s %10d %10d %12d %10d %8d %8d %9d\n",
			p.Policy, p.Events[sched.EvAttemptStart.String()], p.Outcomes[sched.AttemptOK.String()],
			p.Events[sched.EvPlace.String()], p.Events[sched.EvEject.String()],
			p.Failures, p.Errors, p.Degraded)
	}
	return b.String()
}

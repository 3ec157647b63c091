package sched

// CydromePolicy reimplements the baseline "Old Scheduler" as Section 8
// describes it: the same backtracking operation-driven framework with
// very different heuristics. It relies on a static priority favouring
// operations whose initial slack is minimal; because a static scheme
// cannot detect when a recurrence circuit becomes fixed, it plays safe by
// placing all operations on recurrence circuits before any others. Like
// all prior schedulers it always places an operation as early as possible
// — the unidirectional habit whose lifetime cost the paper quantifies.
type CydromePolicy struct {
	staticPrio []int
}

// Name implements Policy.
func (p *CydromePolicy) Name() string { return "cydrome" }

// BeginAttempt snapshots each index's initial slack as its static
// priority for the whole attempt, in the attempt-scoped scratch buffer
// (every entry is overwritten, as PolicyScratch requires).
func (p *CydromePolicy) BeginAttempt(st *State) {
	p.staticPrio = st.PolicyScratch(st.n + 1)
	for x := 0; x <= st.n; x++ {
		p.staticPrio[x] = st.Slack(x)
	}
}

// ChooseOp picks the unplaced recurrence-circuit op with minimal static
// priority, or — once every recurrence op is placed — the minimal
// static priority op overall. Ties break by smaller current Lstart,
// then smaller id, keeping the baseline deterministic.
func (p *CydromePolicy) ChooseOp(st *State) int {
	pick := func(filter func(int) bool) int {
		best := -1
		for x := range st.unplaced.all {
			if !filter(x) {
				continue
			}
			if best == -1 || p.staticPrio[x] < p.staticPrio[best] ||
				(p.staticPrio[x] == p.staticPrio[best] && st.Lstart(x) < st.Lstart(best)) {
				best = x
			}
		}
		return best
	}
	if x := pick(func(x int) bool { return x < st.n && st.L.Ops[x].OnRecurrence }); x != -1 {
		return x
	}
	return pick(func(int) bool { return true })
}

// ScanEarly implements the unidirectional legacy: always as early as
// possible.
func (p *CydromePolicy) ScanEarly(st *State, x int) bool { return true }

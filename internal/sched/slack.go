package sched

import "repro/internal/ir"

// SlackPolicy is the paper's contribution: slack scheduling with a
// dynamic priority scheme (Section 4.3) and — unless Unidirectional is
// set — the bidirectional, lifetime-sensitive issue-cycle heuristic of
// Section 5.2.
type SlackPolicy struct {
	// Unidirectional disables the bidirectional heuristic (Section 7's
	// ablation: "without them, the slack scheduler generates nearly the
	// same register pressure as Cydrome's scheduler").
	Unidirectional bool
}

// Name implements Policy.
func (p *SlackPolicy) Name() string {
	if p.Unidirectional {
		return "slack-unidirectional"
	}
	return "slack"
}

// BeginAttempt implements Policy; the slack policy is fully dynamic and
// needs no per-attempt preparation.
func (p *SlackPolicy) BeginAttempt(st *State) {}

// ChooseOp implements the dynamic priority scheme of Section 4.3: choose
// an operation with the minimum number of issue slots available to it,
// approximated by its slack — halved if the op uses a critical resource
// (an estimate of resource contention), halved again if it uses the
// divider (whose complex non-pipelined reservation pattern leaves few
// slots). Ties break toward the smallest Lstart: a top-down bias that
// interacts well with the backtracking policy, then toward the smallest
// index. Priorities are kept as four times the halved slack, an exact
// integer, so they order exactly as the fractional values do.
func (p *SlackPolicy) ChooseOp(st *State) int {
	best, bestPrio := -1, 0
	contention := st.Contention()
	for x := range st.unplaced.all {
		prio := 4 * st.Slack(x)
		if contention && st.Critical(x) {
			prio /= 2
		}
		if st.UsesDivider(x) {
			prio /= 2
		}
		if best == -1 || prio < bestPrio ||
			(prio == bestPrio && st.Lstart(x) < st.Lstart(best)) {
			best = x
			bestPrio = prio
		}
	}
	return best
}

// ScanEarly implements the bidirectional heuristic of Section 5.2. The
// primary goal is minimizing value lifetimes: an operation goes to
// whichever end stretches fewer of them. Placing an op early stretches
// its outputs (the loop body is in SSA form, so the output lifetime ends
// at fixed uses); placing it late stretches those inputs that this op —
// and not some other use — would actually stretch.
func (p *SlackPolicy) ScanEarly(st *State, x int) bool {
	if p.Unidirectional || x == st.StopIndex() {
		return true
	}
	in, out := p.stretchable(st, x)
	switch {
	case in == 0 && out == 0:
		// No stretchable lifetimes at stake (e.g. an accumulator not
		// referenced until the loop exits): place early to minimize the
		// overall schedule length.
		return true
	case in > out:
		return true
	case in < out:
		return false
	}
	// Tie: placement cannot affect final pressure, but it can affect the
	// likelihood of finding a feasible schedule. Place near whichever
	// group — immediate predecessors or successors — has the larger
	// fraction placed, because that group is less likely to be ejected.
	fp, np := placedFraction(st, st.Preds(x))
	fs, ns := placedFraction(st, st.Succs(x))
	switch {
	case fp > fs:
		return true
	case fp < fs:
		return false
	}
	// Final tie: early if and only if no predecessor or successor has
	// yet been placed.
	return np == 0 && ns == 0
}

// placedFraction returns the fraction of the group currently placed and
// the count placed.
func placedFraction(st *State, group []int32) (float64, int) {
	if len(group) == 0 {
		return 0, 0
	}
	n := 0
	for _, y := range group {
		if st.Placed(int(y)) {
			n++
		}
	}
	return float64(n) / float64(len(group)), n
}

// stretchable counts the op's stretchable input and output lifetimes
// given the current partial schedule (Section 5.2). Only flow
// dependencies whose lengths can be stretched count; loop invariants
// (GPR file), duplicate inputs (a lifetime is not counted twice), and
// self-recurrences (fixed length ω·II) are ignored. Predicate guards
// live in the ICR file and are likewise outside the RR-pressure goal.
//
// Whether the output counts (an RR result with a flow use by another
// op) does not depend on the schedule, so it is read from the
// per-compile table Arena.prepareLoop builds.
//
// An input v, defined by d and read by x at distance ω, cannot be
// stretched by x if even x's latest start leaves some other use holding
// the lifetime at least as long:
//
//	Estart(d) + MinLT(v) ≥ ω·II + Lstart(x).
func (p *SlackPolicy) stretchable(st *State, x int) (in, out int) {
	op := st.L.Ops[x]
	for i, rd := range op.Args {
		v := st.L.Value(rd.Val)
		if v.File != ir.RR || !v.IsVariant() || seenBefore(op.Args[:i], rd.Val) {
			continue
		}
		self := false
		for _, d := range v.Defs {
			if int(d) == x {
				self = true
			}
		}
		if self {
			continue
		}
		for _, d := range v.Defs {
			if st.Estart(int(d))+st.MinLT(v.ID) < rd.Omega*st.II+st.Lstart(x) {
				in++
				break
			}
		}
	}
	if st.otherUse[x] {
		out = 1
	}
	return in, out
}

// seenBefore reports whether an earlier operand already read v.
func seenBefore(args []ir.Operand, v ir.ValueID) bool {
	for _, a := range args {
		if a.Val == v {
			return true
		}
	}
	return false
}

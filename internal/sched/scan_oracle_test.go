package sched

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ir"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/mii"
	"repro/internal/mindist"
)

// The scan oracle: the central loop's bound maintenance, victim search,
// op choice and lifetime count as they were before the attempt state
// kept placed/unplaced index sets, related sets, MinDist rows and their
// transpose, and a per-compile "has other use" table. Every function
// here walks all n+1 indices and reads MinDist one entry at a time
// through Table.Dist, mapping Stop through Table.Stop.
// TestScanOracleDifferential holds the production scans to these step
// for step.
//
// An oracle state runs with noIncremental set, so State.eject keeps its
// bookkeeping but leaves the repair to oracleEject.

// oracleDist returns MinDist between state indices (ops or Stop).
func oracleDist(st *State, x, y int) int {
	return st.MD.Dist(oracleMDIndex(st, x), oracleMDIndex(st, y))
}

func oracleMDIndex(st *State, x int) int {
	if x == st.n {
		return st.MD.Stop()
	}
	return x
}

func oracleRecomputeBounds(st *State) {
	for {
		for x := 0; x <= st.n; x++ {
			if st.Placed(x) {
				st.estart[x] = st.time[x]
				st.lstart[x] = st.time[x]
				st.esFrom[x] = -1
				st.lsFrom[x] = -1
				continue
			}
			oracleRecomputeIndex(st, x)
		}
		if !oracleMaintainStop(st) {
			return
		}
	}
}

func oracleRecomputeIndex(st *State, x int) {
	es := 0
	if d := st.MD.Dist(st.MD.Start(), oracleMDIndex(st, x)); d != mindist.NoPath {
		es = d
	}
	ls := st.lstartStop
	if d := oracleDist(st, x, st.n); d != mindist.NoPath {
		ls = st.lstartStop - d
	}
	esFrom, lsFrom := -1, -1
	for y := 0; y <= st.n; y++ {
		if !st.Placed(y) || y == x {
			continue
		}
		ty := st.time[y]
		if d := oracleDist(st, y, x); d != mindist.NoPath && ty+d > es {
			es = ty + d
			esFrom = y
		}
		if d := oracleDist(st, x, y); d != mindist.NoPath && ty-d < ls {
			ls = ty - d
			lsFrom = y
		}
	}
	st.estart[x] = es
	st.esFrom[x] = esFrom
	st.lstart[x] = ls
	st.lsFrom[x] = lsFrom
}

func oracleRecomputeEstart(st *State, x int) {
	es := 0
	if d := st.MD.Dist(st.MD.Start(), oracleMDIndex(st, x)); d != mindist.NoPath {
		es = d
	}
	from := -1
	for y := 0; y <= st.n; y++ {
		if !st.Placed(y) || y == x {
			continue
		}
		if d := oracleDist(st, y, x); d != mindist.NoPath && st.time[y]+d > es {
			es = st.time[y] + d
			from = y
		}
	}
	st.estart[x] = es
	st.esFrom[x] = from
}

func oracleRecomputeLstart(st *State, x int) {
	ls := st.lstartStop
	if d := oracleDist(st, x, st.n); d != mindist.NoPath {
		ls = st.lstartStop - d
	}
	from := -1
	for y := 0; y <= st.n; y++ {
		if !st.Placed(y) || y == x {
			continue
		}
		if d := oracleDist(st, x, y); d != mindist.NoPath && st.time[y]-d < ls {
			ls = st.time[y] - d
			from = y
		}
	}
	st.lstart[x] = ls
	st.lsFrom[x] = from
}

func oracleRefreshBounds(st *State, x int) {
	t := st.time[x]
	st.estart[x] = t
	st.lstart[x] = t
	st.esFrom[x] = -1
	st.lsFrom[x] = -1
	for y := 0; y <= st.n; y++ {
		if y == x || st.Placed(y) {
			continue
		}
		if d := oracleDist(st, x, y); d != mindist.NoPath && t+d > st.estart[y] {
			st.estart[y] = t + d
			st.esFrom[y] = x
		}
		if d := oracleDist(st, y, x); d != mindist.NoPath && t-d < st.lstart[y] {
			st.lstart[y] = t - d
			st.lsFrom[y] = x
		}
	}
	if oracleMaintainStop(st) {
		oracleRecomputeBounds(st)
	}
}

func oracleRepairAfterEject(st *State, y int) {
	oracleRecomputeIndex(st, y)
	for x := 0; x <= st.n; x++ {
		if x == y || st.Placed(x) {
			continue
		}
		switch {
		case st.esFrom[x] == y && st.lsFrom[x] == y:
			oracleRecomputeIndex(st, x)
		case st.esFrom[x] == y:
			oracleRecomputeEstart(st, x)
		case st.lsFrom[x] == y:
			oracleRecomputeLstart(st, x)
		}
	}
}

func oracleMaintainStop(st *State) bool {
	stop := st.n
	es := st.estart[stop]
	if st.Placed(stop) {
		es = 0
		if d := st.MD.Dist(st.MD.Start(), st.MD.Stop()); d != mindist.NoPath {
			es = d
		}
		for y := 0; y < st.n; y++ {
			if !st.Placed(y) {
				continue
			}
			if d := oracleDist(st, y, stop); d != mindist.NoPath && st.time[y]+d > es {
				es = st.time[y] + d
			}
		}
		if es > st.time[stop] {
			oracleEject(st, stop)
			st.lstartStop = stopAnchor(es, st.II, st.contention)
			return true
		}
		return false
	}
	if es > st.lstartStop {
		st.lstartStop = stopAnchor(es, st.II, st.contention)
		return true
	}
	return false
}

// oracleEject is State.eject followed by the oracle's repair.
func oracleEject(st *State, x int) {
	st.eject(x)
	oracleRepairAfterEject(st, x)
}

func oracleDepVictims(st *State, x, cycle int) []int {
	var out []int
	for y := 0; y <= st.n; y++ {
		if y == x || !st.Placed(y) {
			continue
		}
		ty := st.time[y]
		if d := oracleDist(st, x, y); d != mindist.NoPath && cycle+d > ty {
			out = append(out, y)
			continue
		}
		if d := oracleDist(st, y, x); d != mindist.NoPath && ty+d > cycle {
			out = append(out, y)
		}
	}
	return out
}

func oracleSlackChooseOp(st *State) int {
	best := -1
	var bestPrio float64
	for x := 0; x <= st.n; x++ {
		if st.Placed(x) {
			continue
		}
		prio := float64(st.Slack(x))
		if st.Contention() && st.Critical(x) {
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

func oracleCydromeChooseOp(st *State, staticPrio []int) int {
	pick := func(filter func(int) bool) int {
		best := -1
		for x := 0; x <= st.n; x++ {
			if st.Placed(x) || !filter(x) {
				continue
			}
			if best == -1 || staticPrio[x] < staticPrio[best] ||
				(staticPrio[x] == staticPrio[best] && st.Lstart(x) < st.Lstart(best)) {
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

// oracleScanEarly is SlackPolicy.ScanEarly (bidirectional) over
// oracleStretchable.
func oracleScanEarly(st *State, x int) bool {
	if x == st.StopIndex() {
		return true
	}
	in, out := oracleStretchable(st, x)
	switch {
	case in == 0 && out == 0:
		return true
	case in > out:
		return true
	case in < out:
		return false
	}
	fp, np := placedFraction(st, st.Preds(x))
	fs, ns := placedFraction(st, st.Succs(x))
	switch {
	case fp > fs:
		return true
	case fp < fs:
		return false
	}
	return np == 0 && ns == 0
}

func oracleStretchable(st *State, x int) (in, out int) {
	op := st.L.Ops[x]
	counted := map[ir.ValueID]bool{}
	for _, rd := range op.Args {
		v := st.L.Value(rd.Val)
		if v.File != ir.RR || !v.IsVariant() || counted[v.ID] {
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
		counted[v.ID] = true
		for _, d := range v.Defs {
			if st.Estart(int(d))+st.MinLT(v.ID) < rd.Omega*st.II+st.Lstart(x) {
				in++
				break
			}
		}
	}
	if op.Result != ir.None {
		v := st.L.Value(op.Result)
		if v.File == ir.RR {
			for _, dep := range st.L.Deps {
				if dep.Kind == ir.DepFlow && dep.Val == v.ID && int(dep.To) != x {
					out = 1
					break
				}
			}
		}
	}
	return in, out
}

// sizedLoop builds a random loop of exactly n ops (the last is brtop),
// so the state's index sets hold exactly n+1 bits: a mix of pipelined
// adds, multiplies and loads, a rare divide, stores without results,
// loop-carried operands, duplicated operands and a GPR invariant.
func sizedLoop(rng *rand.Rand, n int) *ir.Loop {
	l := ir.NewLoop(fmt.Sprintf("sized%d", n), machine.Cydra())
	one := l.Const("one", ir.Addr, ir.IntS(1))
	codes := make([]machine.Opcode, n-1)
	var defs []int // the op indices that define a value, ascending
	for i := range codes {
		switch r := rng.Intn(20); {
		case r == 0:
			codes[i] = machine.FDiv
		case r < 3 && i > 0:
			codes[i] = machine.Store
		case r < 6:
			codes[i] = machine.Load
		case r < 9:
			codes[i] = machine.FMul
		default:
			codes[i] = machine.FAdd
		}
		if codes[i] != machine.Store {
			defs = append(defs, i)
		}
	}
	vals := make([]*ir.Value, n-1)
	for _, i := range defs {
		vals[i] = l.NewValue(fmt.Sprintf("v%d", i), ir.RR, ir.Float)
	}
	// operand reads a random defined value for op i: in the same
	// iteration when the definition comes earlier in the body (half the
	// time only, when carried asks for a loop-carried read), else from
	// one to three iterations back.
	operand := func(i int, carried bool) ir.Operand {
		d := defs[rng.Intn(len(defs))]
		if d < i && (!carried || rng.Intn(2) == 0) {
			return ir.Operand{Val: vals[d].ID}
		}
		return ir.Operand{Val: vals[d].ID, Omega: 1 + rng.Intn(3)}
	}
	for i, code := range codes {
		a := operand(i, rng.Intn(4) == 0)
		switch code {
		case machine.Store:
			l.NewOp(code, []ir.Operand{{Val: one.ID}, a}, ir.None)
		case machine.Load:
			l.NewOp(code, []ir.Operand{a}, vals[i].ID)
		case machine.FAdd:
			l.NewOp(code, []ir.Operand{a, operand(i, false)}, vals[i].ID)
		default:
			l.NewOp(code, []ir.Operand{a, a}, vals[i].ID)
		}
	}
	l.NewOp(machine.BrTop, nil, ir.None)
	l.MustFinalize()
	return l
}

// scanOracleLoops returns the differential's loops: the kernel corpus,
// random loopgen loops, and loops whose n+1 straddles one and two
// 64-bit words.
func scanOracleLoops(t *testing.T) []*ir.Loop {
	t.Helper()
	var out []*ir.Loop
	for _, wl := range boundsLoops(t) {
		out = append(out, wl.CL.Loop)
	}
	size := 80
	if testing.Short() {
		size = 40
	}
	suite, err := loopgen.Build(loopgen.Options{Size: size, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range suite.Loops[len(out):] { // Build puts the kernels first
		out = append(out, wl.CL.Loop)
	}
	rng := rand.New(rand.NewSource(64))
	for _, w := range []int{63, 64, 65, 128, 129} {
		out = append(out, sizedLoop(rng, w-1))
	}
	return out
}

// checkScanStates asserts the production state equals the oracle's:
// placements, bounds, witnesses and the Stop anchor, plus index sets
// that mirror the placements.
func checkScanStates(t *testing.T, where string, fast, ref *State) {
	t.Helper()
	if fast.lstartStop != ref.lstartStop {
		t.Fatalf("%s: lstartStop %d, oracle %d", where, fast.lstartStop, ref.lstartStop)
	}
	for _, c := range []struct {
		name      string
		got, want []int
	}{
		{"time", fast.time, ref.time},
		{"estart", fast.estart, ref.estart},
		{"lstart", fast.lstart, ref.lstart},
		{"esFrom", fast.esFrom, ref.esFrom},
		{"lsFrom", fast.lsFrom, ref.lsFrom},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Fatalf("%s: %s\n  got    %v\n  oracle %v", where, c.name, c.got, c.want)
		}
	}
	var placed, unplaced []int
	for x := range fast.placed.all {
		placed = append(placed, x)
	}
	for x := range fast.unplaced.all {
		unplaced = append(unplaced, x)
	}
	if len(placed)+len(unplaced) != fast.n+1 || len(unplaced) != fast.unplacedCount {
		t.Fatalf("%s: index sets hold %d placed + %d unplaced, want %d with %d unplaced",
			where, len(placed), len(unplaced), fast.n+1, fast.unplacedCount)
	}
	for _, x := range placed {
		if !fast.Placed(x) {
			t.Fatalf("%s: index %d in the placed set but unplaced", where, x)
		}
	}
	for _, x := range unplaced {
		if fast.Placed(x) {
			t.Fatalf("%s: index %d in the unplaced set but placed", where, x)
		}
	}
}

// checkScanPicks asserts both policies' ChooseOp and the slack
// policy's lifetime counts and ScanEarly agree with the oracle.
func checkScanPicks(t *testing.T, where string, fast, ref *State, cyd *CydromePolicy, staticPrio []int) {
	t.Helper()
	slack := &SlackPolicy{}
	if got, want := slack.ChooseOp(fast), oracleSlackChooseOp(ref); got != want {
		t.Fatalf("%s: slack ChooseOp %d, oracle %d", where, got, want)
	}
	if got, want := cyd.ChooseOp(fast), oracleCydromeChooseOp(ref, staticPrio); got != want {
		t.Fatalf("%s: cydrome ChooseOp %d, oracle %d", where, got, want)
	}
	for x := 0; x < fast.n; x++ {
		if fast.Placed(x) {
			continue
		}
		in, out := slack.stretchable(fast, x)
		rin, rout := oracleStretchable(ref, x)
		if in != rin || out != rout {
			t.Fatalf("%s: stretchable(%d) = %d, %d; oracle %d, %d", where, x, in, out, rin, rout)
		}
		if got, want := slack.ScanEarly(fast, x), oracleScanEarly(ref, x); got != want {
			t.Fatalf("%s: ScanEarly(%d) = %v, oracle %v", where, x, got, want)
		}
	}
}

// TestScanOracleDifferential drives random place, force and eject
// sequences through a production attempt state and an oracle state
// side by side, and after every step requires identical bounds,
// witnesses, Stop anchor, dependence victims (in order) and policy
// picks. It also holds the attempt's MinLT values, computed in one pass
// by mindist.MinLTs, to the per-value mindist.MinLT.
func TestScanOracleDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1993))
	for li, l := range scanOracleLoops(t) {
		b, err := mii.Compute(context.Background(), l)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		for _, dii := range []int{0, 2} {
			ii := b.MII + dii
			md, err := mindist.Compute(l, ii)
			if err != nil {
				t.Fatalf("%s II=%d: %v", l.Name, ii, err)
			}
			fast := new(Arena).newState(l, ii, md)
			ref := new(Arena).newState(l, ii, md)
			ref.noIncremental = true
			oracleRecomputeBounds(ref)
			cyd := &CydromePolicy{}
			cyd.BeginAttempt(fast)
			staticPrio := make([]int, ref.n+1)
			for x := range staticPrio {
				staticPrio[x] = ref.Slack(x)
			}
			name := fmt.Sprintf("loop %d (%s, n=%d) II=%d", li, l.Name, len(l.Ops), ii)
			checkScanStates(t, name+" init", fast, ref)
			for _, v := range l.Values {
				if v.File != ir.RR || !v.IsVariant() {
					continue
				}
				if got, want := fast.MinLT(v.ID), mindist.MinLT(l, md, v.ID); got != want {
					t.Fatalf("%s: MinLT(%s) = %d, mindist.MinLT %d", name, v.Name, got, want)
				}
			}
			for step := 0; step < 6*(fast.n+1) && !fast.allPlaced(); step++ {
				where := fmt.Sprintf("%s step %d", name, step)
				checkScanPicks(t, where, fast, ref, cyd, staticPrio)
				driveScanStep(t, rng, where, fast, ref)
				checkScanStates(t, where, fast, ref)
			}
		}
	}
}

// driveScanStep applies one random action to both states: eject a
// placed index, place an unplaced one in a free cycle of its window
// (as step 2 would), or force one at a cycle that may break its bounds
// (as step 3 would), comparing the dependence victims first and now and
// then leaving them placed.
func driveScanStep(t *testing.T, rng *rand.Rand, where string, fast, ref *State) {
	t.Helper()
	if fast.unplacedCount <= fast.n && rng.Intn(6) == 0 {
		for {
			if y := rng.Intn(fast.n + 1); fast.Placed(y) {
				fast.eject(y)
				oracleEject(ref, y)
				return
			}
		}
	}
	x := (&SlackPolicy{}).ChooseOp(fast)
	if rng.Intn(2) == 0 {
		for x = rng.Intn(fast.n + 1); fast.Placed(x); x = rng.Intn(fast.n + 1) {
		}
	}
	cycle := ir.Unplaced
	if lo, hi := fast.estart[x], fast.lstart[x]; lo <= hi && rng.Intn(4) != 0 {
		if hi > lo+fast.II-1 {
			hi = lo + fast.II - 1
		}
		for c := lo; c <= hi; c++ {
			if fast.free(x, c) {
				cycle = c
				break
			}
		}
	}
	if cycle == ir.Unplaced {
		c := fast.estart[x] + rng.Intn(fast.II+2)
		victims := append([]int(nil), fast.depVictims(x, c)...)
		if want := oracleDepVictims(ref, x, c); !slices.Equal(victims, want) {
			t.Fatalf("%s: depVictims(%d, %d) = %v, oracle %v", where, x, c, victims, want)
		}
		if rng.Intn(8) == 0 {
			// Keep the dependence victims: the placement then breaks
			// MinDist constraints, such as one that pushes Estart(Stop)
			// past a placed Stop, which the Stop rule must catch.
			victims = victims[:0]
		}
		for _, id := range fast.resourceVictims(x, c) {
			if int(id) == x {
				return // x cannot fit at any cycle
			}
			victims = append(victims, int(id))
		}
		for _, y := range victims {
			if fast.Placed(y) {
				fast.eject(y)
				oracleEject(ref, y)
			}
		}
		cycle = c
	}
	fast.place(x, cycle)
	ref.place(x, cycle)
	fast.refreshBounds(x)
	oracleRefreshBounds(ref, x)
}

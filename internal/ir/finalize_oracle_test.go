package ir_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ir"
	"repro/internal/loopgen"
	"repro/internal/machine"
)

// The oracle below is Finalize's derivation before it was rewritten to
// preallocate its arcs and find recurrences over a compressed
// adjacency: flow arcs collected through Op.Reads, a per-op adjacency
// of [][]int, and an iterative Tarjan with a per-root frame slice and a
// component-size map. TestFinalizeOracleDifferential holds Finalize to
// it on loopgen loops and random dependence graphs.

// oracleDeps is the old Deps: flow arcs in op order, each op's reads
// (arguments, then guard) in order, each read's defs in order, then the
// registered non-flow arcs in registration order.
func oracleDeps(l *ir.Loop) []ir.Dep {
	var deps []ir.Dep
	for _, op := range l.Ops {
		for _, rd := range op.Reads() {
			v := l.Values[rd.Val]
			for _, def := range v.Defs {
				deps = append(deps, ir.Dep{
					From: def, To: op.ID,
					Latency: l.Mach.Latency(l.Ops[def].Opcode), Omega: rd.Omega,
					Kind: ir.DepFlow, Val: v.ID,
				})
			}
		}
	}
	for _, d := range l.Deps {
		if d.Kind != ir.DepFlow {
			deps = append(deps, d)
		}
	}
	return deps
}

// oracleFUs is the old round-robin functional-unit assignment.
func oracleFUs(l *ir.Loop) []int {
	next := make([]int, l.Mach.NumKinds())
	fus := make([]int, len(l.Ops))
	for i, op := range l.Ops {
		info := l.Mach.Info(op.Opcode)
		fus[i] = next[info.Kind] % l.Mach.Count(info.Kind)
		next[info.Kind]++
	}
	return fus
}

// oracleOnRecurrence is the old markRecurrences.
func oracleOnRecurrence(l *ir.Loop) []bool {
	n := len(l.Ops)
	adj := make([][]int, n)
	for _, d := range l.Deps {
		if d.From != d.To {
			adj[d.From] = append(adj[d.From], int(d.To))
		}
	}
	comp := oracleSCCs(n, adj)
	size := map[int]int{}
	for _, c := range comp {
		size[c]++
	}
	on := make([]bool, n)
	for i := range on {
		on[i] = size[comp[i]] >= 2
	}
	return on
}

// oracleSCCs is the old Tarjan: it returns each node's component.
func oracleSCCs(n int, adj [][]int) []int {
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	comp := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack []int
	next := 0
	ncomp := 0

	type frame struct{ v, ai int }
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames := []frame{{root, 0}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ai < len(adj[f.v]) {
				w := adj[f.v][f.ai]
				f.ai++
				if index[w] == unvisited {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}
	return comp
}

// oracleGPRCount is the old GPRCount: def-less GPR values some op reads.
func oracleGPRCount(l *ir.Loop) int {
	used := make([]bool, len(l.Values))
	for _, op := range l.Ops {
		for _, rd := range op.Reads() {
			used[rd.Val] = true
		}
	}
	n := 0
	for i, v := range l.Values {
		if v.File == ir.GPR && used[i] {
			n++
		}
	}
	return n
}

// checkFinalizeOracle compares a finalized loop with the oracle.
func checkFinalizeOracle(t *testing.T, l *ir.Loop) {
	t.Helper()
	if want := oracleDeps(l); !slices.Equal(l.Deps, want) {
		t.Fatalf("%s: Deps differ from the oracle:\n got %v\nwant %v", l.Name, l.Deps, want)
	}
	fus, onRec := oracleFUs(l), oracleOnRecurrence(l)
	for i, op := range l.Ops {
		if op.FU != fus[i] {
			t.Fatalf("%s: op %d FU %d, oracle %d", l.Name, i, op.FU, fus[i])
		}
		if op.OnRecurrence != onRec[i] {
			t.Fatalf("%s: op %d OnRecurrence %v, oracle %v", l.Name, i, op.OnRecurrence, onRec[i])
		}
	}
	if got, want := l.GPRCount(), oracleGPRCount(l); got != want {
		t.Fatalf("%s: GPRCount %d, oracle %d", l.Name, got, want)
	}
}

// randomLoop builds a valid loop over a random dependence graph: float
// invariants, float variants defined by fadds (some merged from two
// predicated defs), compare-defined predicates, guarded stores, memory
// arcs between random ops, and sometimes a brtop.
func randomLoop(rng *rand.Rand, m *machine.Desc) *ir.Loop {
	l := ir.NewLoop("random", m)
	var gprs, rrs, preds []ir.ValueID
	for i := rng.Intn(4); i >= 0; i-- {
		gprs = append(gprs, l.Const("g", ir.Float, ir.FloatS(float64(i))).ID)
	}
	for i := 1 + rng.Intn(24); i > 0; i-- {
		rrs = append(rrs, l.NewValue("v", ir.RR, ir.Float).ID)
	}
	for i := rng.Intn(4); i > 0; i-- {
		preds = append(preds, l.NewValue("p", ir.ICR, ir.Pred).ID)
	}
	operand := func() ir.Operand {
		if rng.Intn(4) == 0 {
			return ir.Operand{Val: gprs[rng.Intn(len(gprs))]}
		}
		return ir.Operand{Val: rrs[rng.Intn(len(rrs))], Omega: rng.Intn(3)}
	}
	guard := func(op *ir.Op) {
		p := ir.Operand{Val: preds[rng.Intn(len(preds))], Omega: rng.Intn(2)}
		op.Pred, op.PredNeg = &p, rng.Intn(2) == 0
	}
	// Define values in a random order.
	defs := append(append([]ir.ValueID(nil), rrs...), preds...)
	rng.Shuffle(len(defs), func(i, j int) { defs[i], defs[j] = defs[j], defs[i] })
	for _, v := range defs {
		if l.Values[v].File == ir.ICR {
			l.NewOp(machine.FCmpLT, []ir.Operand{operand(), operand()}, v)
			continue
		}
		op := l.NewOp(machine.FAdd, []ir.Operand{operand(), operand()}, v)
		if len(preds) > 0 && rng.Intn(5) == 0 {
			// A merge: two defs under guards.
			guard(op)
			guard(l.NewOp(machine.FAdd, []ir.Operand{operand(), operand()}, v))
		}
	}
	for i := rng.Intn(4); i > 0; i-- {
		op := l.NewOp(machine.Store, []ir.Operand{operand(), operand()}, ir.None)
		if len(preds) > 0 && rng.Intn(2) == 0 {
			guard(op)
		}
	}
	if rng.Intn(2) == 0 {
		l.NewOp(machine.BrTop, nil, ir.None)
	}
	for i := rng.Intn(2 * len(l.Ops)); i > 0; i-- {
		l.AddDep(ir.Dep{
			From: ir.OpID(rng.Intn(len(l.Ops))), To: ir.OpID(rng.Intn(len(l.Ops))),
			Latency: rng.Intn(4), Omega: rng.Intn(3), Kind: ir.DepMem,
		})
	}
	return l
}

func TestFinalizeOracleDifferential(t *testing.T) {
	m := machine.Cydra()
	size := 1525
	if testing.Short() {
		size = 200
	}
	suite, err := loopgen.Build(loopgen.Options{Size: size, Seed: 1993, Mach: m})
	if err != nil {
		t.Fatal(err)
	}
	for _, sl := range suite.Loops {
		checkFinalizeOracle(t, sl.CL.Loop)
	}
	rng := rand.New(rand.NewSource(1))
	recurrent := 0
	for i := 0; i < 2000; i++ {
		l := randomLoop(rng, m)
		if err := l.Finalize(); err != nil {
			t.Fatalf("random loop %d: %v", i, err)
		}
		checkFinalizeOracle(t, l)
		// Finalize is idempotent.
		if err := l.Finalize(); err != nil {
			t.Fatal(err)
		}
		checkFinalizeOracle(t, l)
		if l.HasRecurrence() {
			recurrent++
		}
	}
	if recurrent == 0 || recurrent == 2000 {
		t.Errorf("%d of 2000 random loops have recurrences; the generator should mix both", recurrent)
	}
}

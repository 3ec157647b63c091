package sched

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/mindist"
)

// instrumentedPolicy wraps the slack policy and checks engine invariants
// at every central-loop decision:
//
//   - placed ops sit inside their (frozen) Estart/Lstart bounds;
//   - for every unplaced op, Estart dominates all placed predecessors'
//     times plus MinDist, and Lstart respects all placed successors;
//   - the chosen op is indeed an unplaced one.
type instrumentedPolicy struct {
	SlackPolicy
	t     *testing.T
	fails int
}

func (p *instrumentedPolicy) ChooseOp(st *State) int {
	x := p.SlackPolicy.ChooseOp(st)
	if st.Placed(x) {
		p.t.Errorf("policy chose placed index %d", x)
	}
	for y := 0; y <= st.NumOps(); y++ {
		if st.Placed(y) {
			continue
		}
		es, ls := st.Estart(y), st.Lstart(y)
		for z := 0; z <= st.NumOps(); z++ {
			if !st.Placed(z) || z == y {
				continue
			}
			tz := st.Time(z)
			if d := st.distPublic(z, y); d != mindist.NoPath && tz+d > es {
				p.fails++
				p.t.Errorf("Estart(%d)=%d below placed %d@%d + dist %d", y, es, z, tz, d)
			}
			if d := st.distPublic(y, z); d != mindist.NoPath && tz-d < ls {
				p.fails++
				p.t.Errorf("Lstart(%d)=%d above placed %d@%d − dist %d", y, ls, z, tz, d)
			}
		}
	}
	return x
}

// distPublic exposes the internal MinDist lookup for the invariant test.
func (st *State) distPublic(x, y int) int { return st.dist(x, y) }

// TestEngineInvariants runs the instrumented policy over random loops:
// the bound-maintenance code must keep Estart/Lstart exact after every
// placement and ejection.
func TestEngineInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	codes := []machine.Opcode{machine.FAdd, machine.FMul, machine.Load, machine.FDiv}
	for trial := 0; trial < 25; trial++ {
		m := machine.Cydra()
		l := ir.NewLoop(fmt.Sprintf("inv%d", trial), m)
		n := 3 + rng.Intn(8)
		vals := make([]*ir.Value, n)
		for i := range vals {
			vals[i] = l.NewValue(fmt.Sprintf("v%d", i), ir.RR, ir.Float)
		}
		for i := 0; i < n; i++ {
			var args []ir.Operand
			if i > 0 {
				args = append(args, ir.Operand{Val: vals[rng.Intn(i)].ID})
			} else {
				args = append(args, ir.Operand{Val: vals[n-1].ID, Omega: 1})
			}
			if rng.Intn(2) == 0 {
				j := rng.Intn(n)
				w := 0
				if j >= i {
					w = 1 + rng.Intn(2)
				}
				args = append(args, ir.Operand{Val: vals[j].ID, Omega: w})
			} else {
				args = append(args, args[0])
			}
			code := codes[rng.Intn(len(codes))]
			if code == machine.Load {
				args = args[:1]
			}
			l.NewOp(code, args, vals[i].ID)
		}
		l.MustFinalize()

		pol := &instrumentedPolicy{t: t}
		res, err := New(pol, Config{}).Schedule(context.Background(), l)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK() {
			t.Fatalf("trial %d: gave up", trial)
		}
		if pol.fails > 0 {
			t.Fatalf("trial %d: %d invariant violations", trial, pol.fails)
		}
	}
}

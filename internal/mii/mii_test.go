package mii

import (
	"context"
	"testing"

	"repro/internal/fixture"
	"repro/internal/ir"
	"repro/internal/machine"
)

func TestSampleLoopBounds(t *testing.T) {
	// Figure 1's loop after load/store elimination: two float adds on
	// the single Adder force ResMII = 2; every recurrence circuit has
	// ratio ≤ 1. The paper schedules it at II = 2.
	l := fixture.Sample(machine.Cydra())
	b, err := Compute(context.Background(), l)
	if err != nil {
		t.Fatal(err)
	}
	if b.ResMII != 2 {
		t.Errorf("ResMII = %d, want 2 (two FAdds on one Adder)", b.ResMII)
	}
	if b.RecMII != 1 {
		t.Errorf("RecMII = %d, want 1", b.RecMII)
	}
	if b.MII != 2 {
		t.Errorf("MII = %d, want 2", b.MII)
	}
}

func TestDividerResMII(t *testing.T) {
	// One FDiv (17 busy cycles) and one FSqrt (21) on the single
	// non-pipelined divider: ResMII = 38.
	l := fixture.Divide(machine.Cydra())
	if got := ResMII(l); got != 38 {
		t.Errorf("ResMII = %d, want 38", got)
	}
	// With a pipelined divider the same loop is memory/adder bound.
	pipediv, _ := machine.Lookup("pipediv")
	lp := fixture.Divide(pipediv)
	if got := ResMII(lp); got >= 38 {
		t.Errorf("pipelined-divider ResMII = %d, want small", got)
	}
}

func TestRecurrenceBound(t *testing.T) {
	// An accumulator chain with latency 2 around an ω=1 circuit:
	// s = fmul(s[-1], v) forces RecMII ≥ 2.
	m := machine.Cydra()
	l := ir.NewLoop("acc", m)
	v := l.NewValue("v", ir.GPR, ir.Float)
	s := l.NewValue("s", ir.RR, ir.Float)
	l.NewOp(machine.FMul, []ir.Operand{{Val: s.ID, Omega: 1}, {Val: v.ID}}, s.ID)
	l.MustFinalize()
	b, err := Compute(context.Background(), l)
	if err != nil {
		t.Fatal(err)
	}
	if b.RecMII != 2 {
		t.Errorf("RecMII = %d, want 2 (latency-2 self recurrence)", b.RecMII)
	}
	if b.MII != 2 {
		t.Errorf("MII = %d, want 2", b.MII)
	}
}

func TestContention(t *testing.T) {
	if !HasResourceContention(fixture.Sample(machine.Cydra())) {
		t.Error("sample loop has two adds on one adder: contention expected")
	}
	m := machine.Cydra()
	l := ir.NewLoop("single", m)
	s := l.NewValue("s", ir.RR, ir.Float)
	l.NewOp(machine.FAdd, []ir.Operand{{Val: s.ID, Omega: 1}, {Val: s.ID, Omega: 1}}, s.ID)
	l.MustFinalize()
	if HasResourceContention(l) {
		t.Error("one op per unit class: no contention expected")
	}
}

func TestCriticalOps(t *testing.T) {
	l := fixture.Sample(machine.Cydra())
	b, _ := Compute(context.Background(), l)
	crit := CriticalOps(l, b.MII)
	// At II = 2 the Adder instance runs 2 busy cycles: 2 ≥ 0.9·2, so
	// both FAdds are critical; the stores (1 busy on each MemPort at
	// II 2) are not (1 < 1.8).
	if !crit[0] || !crit[1] {
		t.Error("the two FAdds should be critical at II=2")
	}
	if crit[4] || crit[5] {
		t.Error("stores on separate ports should not be critical at II=2")
	}
}

func TestUsesDivider(t *testing.T) {
	l := fixture.Divide(machine.Cydra())
	found := 0
	for _, op := range l.Ops {
		if UsesDivider(l, op) {
			found++
		}
	}
	if found != 2 {
		t.Errorf("want 2 divider ops (div, sqrt), found %d", found)
	}
}

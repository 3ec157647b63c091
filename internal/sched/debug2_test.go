package sched

import (
	"context"
	"errors"
	"testing"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/schedcheck"
)

// divCircuitLoop saturates the divider 100% (three 17-cycle divides at
// ResMII 51) with a recurrence circuit through two of them, so the three
// reservations must tile the divider exactly. A static-priority,
// always-early scheduler creeps its forced placements in lockstep — the
// relative configuration never changes — and gives up at every II, which
// is the failure mode behind the 14 loops Cydrome's scheduler could not
// pipeline (Table 4, footnote 8). The dynamic slack priority detects the
// fixed recurrence and succeeds at MII.
func divCircuitLoop() *ir.Loop {
	m := machine.Cydra()
	l := ir.NewLoop("divcircuit", m)
	v0 := l.NewValue("v0", ir.RR, ir.Float)
	v1 := l.NewValue("v1", ir.RR, ir.Float)
	v2 := l.NewValue("v2", ir.RR, ir.Float)
	v3 := l.NewValue("v3", ir.RR, ir.Float)
	l.NewOp(machine.IAdd, []ir.Operand{{Val: v3.ID, Omega: 1}, {Val: v3.ID, Omega: 1}}, v0.ID)
	l.NewOp(machine.FDiv, []ir.Operand{{Val: v0.ID}, {Val: v3.ID, Omega: 1}}, v1.ID)
	l.NewOp(machine.FDiv, []ir.Operand{{Val: v0.ID}, {Val: v0.ID}}, v2.ID)
	l.NewOp(machine.FDiv, []ir.Operand{{Val: v2.ID}, {Val: v3.ID, Omega: 1}}, v3.ID)
	l.MustFinalize()
	return l
}

func TestSlackSucceedsWhereCydromeFails(t *testing.T) {
	l := divCircuitLoop()

	rs, err := Slack(Config{}).Schedule(context.Background(), l)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.OK() {
		t.Fatalf("slack gave up on the divider circuit (stats %+v)", rs.Stats)
	}
	if vs := schedcheck.Check(l, rs.Schedule); vs != nil {
		t.Fatalf("illegal schedule: %v", vs)
	}
	if rs.Schedule.II != rs.Bounds.MII {
		t.Errorf("slack II = %d, want MII %d", rs.Schedule.II, rs.Bounds.MII)
	}

	rc, err := Cydrome(Config{}).Schedule(context.Background(), l)
	if err != nil && !errors.Is(err, ErrInfeasible) {
		t.Fatal(err)
	}
	if rc.OK() {
		// Not a failure of this repository — but it would no longer
		// reproduce the paper's qualitative contrast, so flag it.
		t.Logf("note: cydrome now schedules the divider circuit at II %d", rc.Schedule.II)
		if vs := schedcheck.Check(l, rc.Schedule); vs != nil {
			t.Fatalf("illegal schedule: %v", vs)
		}
	} else {
		if rc.FailedII == 0 || rc.Stats.Restarts == 0 {
			t.Errorf("cydrome failure should report the last II attempted: %+v", rc.Stats)
		}
	}

	// The engine must terminate promptly either way.
	if rc.Stats.CentralIters > 1_000_000 {
		t.Errorf("cydrome spun too long: %+v", rc.Stats)
	}
}

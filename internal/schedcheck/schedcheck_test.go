package schedcheck

import (
	"strings"
	"testing"

	"repro/internal/fixture"
	"repro/internal/ir"
	"repro/internal/machine"
)

func legalSample(t *testing.T) (*ir.Loop, *ir.Schedule) {
	t.Helper()
	l := fixture.SampleCore(machine.Cydra())
	s := ir.NewSchedule(2, len(l.Ops))
	s.Time[0], s.Time[1] = 0, 1
	return l, s
}

func TestLegalScheduleAccepted(t *testing.T) {
	l, s := legalSample(t)
	if vs := Check(l, s); vs != nil {
		t.Errorf("legal schedule rejected: %v", vs)
	}
}

func TestUnplacedRejected(t *testing.T) {
	l, s := legalSample(t)
	s.Time[1] = ir.Unplaced
	vs := Check(l, s)
	if vs == nil || !strings.Contains(vs[0].Msg, "unplaced") {
		t.Errorf("want unplaced violation, got %v", vs)
	}
}

func TestDependenceViolationDetected(t *testing.T) {
	l := fixture.SampleCore(machine.Cydra())
	// At II=1 the ω=2 cross arcs need t_use + 2 ≥ t_def + 1; placing both
	// at cycle 0 is fine, but the resource conflict on the single adder
	// (both at cycle 0 mod 1) must trip. Instead violate a dependence:
	// II=2, y-add at 0 and x-add at 4: x reads y[-2]: 0-ok; y reads
	// x[-1]? No — craft directly: x-add at 4, y-add at 0:
	// arc x→y (ω=2, lat=1): 0 + 4 ≥ 4 + 1 fails.
	s := ir.NewSchedule(2, len(l.Ops))
	s.Time[0], s.Time[1] = 4, 0
	vs := Check(l, s)
	found := false
	for _, v := range vs {
		if strings.Contains(v.Msg, "dependence") {
			found = true
		}
	}
	if !found {
		t.Errorf("want dependence violation, got %v", vs)
	}
}

func TestResourceConflictDetected(t *testing.T) {
	l, s := legalSample(t)
	s.Time[1] = 2 // same adder, 2 ≡ 0 mod 2
	vs := Check(l, s)
	found := false
	for _, v := range vs {
		if strings.Contains(v.Msg, "resource conflict") {
			found = true
		}
	}
	if !found {
		t.Errorf("want resource conflict, got %v", vs)
	}
}

func TestDividerPatternConflict(t *testing.T) {
	l := fixture.Divide(machine.Cydra())
	s := ir.NewSchedule(38, len(l.Ops))
	// Put everything at distinct legal-looking cycles, but overlap the
	// div (17 busy) and sqrt (21 busy) reservations.
	for i := range s.Time {
		s.Time[i] = 100 + i // far enough to satisfy latencies loosely
	}
	var div, sqrt ir.OpID
	for _, op := range l.Ops {
		switch op.Opcode {
		case machine.FDiv:
			div = op.ID
		case machine.FSqrt:
			sqrt = op.ID
		}
	}
	s.Time[div] = 0
	s.Time[sqrt] = 10 // overlaps cycles 10..16 of the div reservation
	vs := Check(l, s)
	found := false
	for _, v := range vs {
		if strings.Contains(v.Msg, "resource conflict") && strings.Contains(v.Msg, "Divider") {
			found = true
		}
	}
	if !found {
		t.Errorf("want divider reservation conflict, got %v", vs)
	}
}

func TestBusyExceedsII(t *testing.T) {
	l := fixture.Divide(machine.Cydra())
	s := ir.NewSchedule(10, len(l.Ops))
	for i := range s.Time {
		s.Time[i] = i * 20
	}
	vs := Check(l, s)
	found := false
	for _, v := range vs {
		if strings.Contains(v.Msg, "busy pattern") {
			found = true
		}
	}
	if !found {
		t.Errorf("want busy-exceeds-II violation, got %v", vs)
	}
}

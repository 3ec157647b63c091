package circuits

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/fixture"
	"repro/internal/ir"
	"repro/internal/machine"
)

func TestSampleCoreCircuits(t *testing.T) {
	l := fixture.SampleCore(machine.Cydra())
	cs, err := Enumerate(l, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Two self circuits (ω=1 each) and one 2-op circuit (ω=4 total: the
	// two ω=2 cross arcs).
	var selfs, pairs int
	for _, c := range cs {
		switch len(c.Ops) {
		case 1:
			selfs++
			if c.Omega != 1 || c.Latency != 1 {
				t.Errorf("self circuit %v: want L=1 Ω=1", c)
			}
		case 2:
			pairs++
			if c.Omega != 4 || c.Latency != 2 {
				t.Errorf("pair circuit %v: want L=2 Ω=4", c)
			}
		default:
			t.Errorf("unexpected circuit %v", c)
		}
	}
	if selfs != 2 || pairs != 1 {
		t.Errorf("got %d self + %d pair circuits, want 2 + 1", selfs, pairs)
	}
	rec, err := RecMII(l)
	if err != nil {
		t.Fatal(err)
	}
	if rec != 1 {
		t.Errorf("RecMII = %d, want 1", rec)
	}
}

func TestZeroOmegaCircuitRejected(t *testing.T) {
	m := machine.Cydra()
	l := ir.NewLoop("combinational", m)
	a := l.NewValue("a", ir.RR, ir.Float)
	b := l.NewValue("b", ir.RR, ir.Float)
	l.NewOp(machine.FAdd, []ir.Operand{{Val: b.ID}, {Val: b.ID}}, a.ID)
	l.NewOp(machine.FSub, []ir.Operand{{Val: a.ID}, {Val: a.ID}}, b.ID)
	l.MustFinalize()
	if _, err := Enumerate(l, 0); err == nil {
		t.Error("zero-omega circuit must be rejected by Enumerate")
	}
	if _, err := RecMIIByRatio(l); err == nil {
		t.Error("zero-omega circuit must be rejected by RecMIIByRatio")
	}
}

// Property: the enumeration method and the min-cost-to-time-ratio method
// must agree on RecMII for random cyclic graphs.
func TestRecMIIMethodsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		l := randomCyclicLoop(rng)
		byEnum, err1 := RecMII(l)
		byRatio, err2 := RecMIIByRatio(l)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: error disagreement: %v vs %v", trial, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if byEnum != byRatio {
			t.Fatalf("trial %d: enumeration says %d, ratio says %d\n%s", trial, byEnum, byRatio, l)
		}
	}
}

// Property: the count-only traversal behind RecMII must agree with a
// full Enumerate — same maximum ratio, same census count, same errors —
// on random cyclic graphs and on tiny caps that force overflow.
func TestRecMIICountingMatchesEnumerate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 120; trial++ {
		l := randomCyclicLoop(rng)
		for _, cap_ := range []int{0, 1, 2, 5} {
			cs, err1 := Enumerate(l, cap_)
			rec2, err2 := foldRecMII(l, cap_)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("trial %d cap %d: error disagreement: %v vs %v", trial, cap_, err1, err2)
			}
			if err1 != nil {
				if errors.Is(err1, ErrTooMany) != errors.Is(err2, ErrTooMany) ||
					errors.Is(err1, ErrZeroOmega) != errors.Is(err2, ErrZeroOmega) {
					t.Fatalf("trial %d cap %d: error kind disagreement: %v vs %v", trial, cap_, err1, err2)
				}
				continue
			}
			rec1 := 1
			for i := range cs {
				if r := cs[i].RecMII(); r > rec1 {
					rec1 = r
				}
			}
			if rec1 != rec2 {
				t.Fatalf("trial %d cap %d: Enumerate says %d, counting says %d\n%s", trial, cap_, rec1, rec2, l)
			}
		}
	}
}

func TestCircuitRecMIIRounding(t *testing.T) {
	c := Circuit{Latency: 7, Omega: 2}
	if c.RecMII() != 4 {
		t.Errorf("⌈7/2⌉ = %d, want 4", c.RecMII())
	}
	c = Circuit{Latency: 6, Omega: 2}
	if c.RecMII() != 3 {
		t.Errorf("⌈6/2⌉ = %d, want 3", c.RecMII())
	}
}

// randomCyclicLoop builds small graphs rich in circuits: a backbone chain
// with random back arcs carrying ω ≥ 1.
func randomCyclicLoop(rng *rand.Rand) *ir.Loop {
	m := machine.Cydra()
	l := ir.NewLoop("cyc", m)
	n := 2 + rng.Intn(6)
	vals := make([]*ir.Value, n)
	for i := range vals {
		vals[i] = l.NewValue("v", ir.RR, ir.Float)
	}
	codes := []machine.Opcode{machine.FAdd, machine.FMul, machine.FSub, machine.Load}
	for i := 0; i < n; i++ {
		var args []ir.Operand
		if i > 0 {
			args = append(args, ir.Operand{Val: vals[i-1].ID})
		} else {
			args = append(args, ir.Operand{Val: vals[n-1].ID, Omega: 1 + rng.Intn(3)})
		}
		// Random extra back arc.
		if rng.Intn(2) == 0 {
			j := rng.Intn(n)
			w := 0
			if j >= i {
				w = 1 + rng.Intn(3)
			}
			args = append(args, ir.Operand{Val: vals[j].ID, Omega: w})
		}
		code := codes[rng.Intn(len(codes))]
		if code == machine.Load {
			args = args[:1]
		}
		for len(args) < 2 && code != machine.Load {
			args = append(args, args[0])
		}
		l.NewOp(code, args, vals[i].ID)
	}
	l.MustFinalize()
	return l
}

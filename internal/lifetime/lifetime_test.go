package lifetime

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fixture"
	"repro/internal/ir"
	"repro/internal/machine"
)

// Reproduce the paper's hand-worked example exactly (Figures 3 and 4):
// with the x-add at cycle 0 and the y-add at cycle 1 at II = 2, x(i) is
// live over [0,5), y(i) over [1,4), and the LiveVector is ⟨4,4⟩.
func TestPaperFigure34(t *testing.T) {
	l := fixture.SampleCore(machine.Cydra())
	s := ir.NewSchedule(2, len(l.Ops))
	s.Time[0] = 0 // x-add
	s.Time[1] = 1 // y-add

	ranges := Ranges(l, s, ir.RR)
	if len(ranges) != 2 {
		t.Fatalf("want 2 RR lifetimes, got %d", len(ranges))
	}
	byVal := map[ir.ValueID]Range{}
	for _, r := range ranges {
		byVal[r.Val] = r
	}
	x, y := byVal[0], byVal[1]
	if x.Start != 0 || x.End != 5 {
		t.Errorf("x lifetime = [%d,%d), want [0,5)", x.Start, x.End)
	}
	if y.Start != 1 || y.End != 4 {
		t.Errorf("y lifetime = [%d,%d), want [1,4)", y.Start, y.End)
	}

	vec := LiveVector(ranges, 2)
	if vec[0] != 4 || vec[1] != 4 {
		t.Errorf("LiveVector = %v, want [4 4]", vec)
	}
	p := Measure(l, s, ir.RR)
	if p.MaxLive != 4 {
		t.Errorf("MaxLive = %d, want 4", p.MaxLive)
	}
	if p.AvgLive != 4 {
		t.Errorf("AvgLive = %v, want 4", p.AvgLive)
	}
}

// The paper notes an optimal allocation uses four rotating registers for
// the sample loop; swapping the two adds' cycles must keep MaxLive ≥ the
// average, and the average equals total lifetime / II regardless of
// placement shifts within the same lifetimes.
func TestMaxLiveAtLeastCeilAvg(t *testing.T) {
	l := fixture.SampleCore(machine.Cydra())
	for t0 := 0; t0 < 4; t0++ {
		for t1 := 0; t1 < 4; t1++ {
			s := ir.NewSchedule(2, len(l.Ops))
			s.Time[0], s.Time[1] = t0, t1
			p := Measure(l, s, ir.RR)
			if float64(p.MaxLive) < p.AvgLive {
				t.Errorf("t0=%d t1=%d: MaxLive %d < AvgLive %v", t0, t1, p.MaxLive, p.AvgLive)
			}
		}
	}
}

func TestNoReaderValueLiveForLatency(t *testing.T) {
	m := machine.Cydra()
	l := ir.NewLoop("noreader", m)
	p := l.NewValue("p", ir.RR, ir.Addr)
	v := l.NewValue("v", ir.RR, ir.Float)
	l.NewOp(machine.Load, []ir.Operand{{Val: p.ID, Omega: 1}}, v.ID)
	one := l.Const("one", ir.Addr, ir.IntS(1))
	l.NewOp(machine.AAdd, []ir.Operand{{Val: p.ID, Omega: 1}, {Val: one.ID}}, p.ID)
	l.MustFinalize()
	s := ir.NewSchedule(1, len(l.Ops))
	s.Time[0], s.Time[1] = 0, 0
	for _, r := range Ranges(l, s, ir.RR) {
		if r.Val == v.ID && r.Len() != 13 {
			t.Errorf("unread load result live %d cycles, want its 13-cycle latency", r.Len())
		}
	}
}

// Property: for any interval set and II, sum(LiveVector) equals the total
// lifetime length, and MaxLive ≥ ⌈total/II⌉ — wrapping never loses or
// invents live cycles.
func TestLiveVectorConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ii := 1 + rng.Intn(16)
		nr := rng.Intn(12)
		total := 0
		ranges := make([]Range, nr)
		for i := range ranges {
			start := rng.Intn(40)
			length := rng.Intn(60)
			ranges[i] = Range{Val: ir.ValueID(i), Start: start, End: start + length}
			total += length
		}
		vec := LiveVector(ranges, ii)
		sum, max := 0, 0
		for _, c := range vec {
			sum += c
			if c > max {
				max = c
			}
		}
		if sum != total {
			return false
		}
		return max >= (total+ii-1)/ii || total == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestICRUsageCountsStages(t *testing.T) {
	l := fixture.Conditional(machine.Cydra())
	s := ir.NewSchedule(2, len(l.Ops))
	// Lay out ops sequentially two per cycle-ish; exact times irrelevant,
	// only that stages = ceil(len/II) enter the ICR usage.
	for i := range s.Time {
		s.Time[i] = i
	}
	u := ICRUsageIn(l, s, &Scratch{})
	if u < s.Stages() {
		t.Errorf("ICR usage %d must include %d stage predicates", u, s.Stages())
	}
}

func TestUnplacedValueSkipped(t *testing.T) {
	l := fixture.SampleCore(machine.Cydra())
	s := ir.NewSchedule(2, len(l.Ops))
	s.Time[0] = 0 // y-add unplaced
	if got := len(Ranges(l, s, ir.RR)); got != 1 {
		t.Errorf("partial schedule should yield 1 complete lifetime, got %d", got)
	}
}

// Predicate-aware sharing (the analysis the paper's compiler lacked):
// the conditional fixture's two multiply results execute under
// complementary senses of one compare and define the same merge value —
// but a variant with two *distinct* merge targets shows the saving.
func TestMeasurePredAware(t *testing.T) {
	m := machine.Cydra()
	l := ir.NewLoop("predshare", m)
	p := l.NewValue("p", ir.ICR, ir.Pred)
	a := l.NewValue("a", ir.RR, ir.Float)
	t1 := l.NewValue("t1", ir.RR, ir.Float)
	t2 := l.NewValue("t2", ir.RR, ir.Float)
	out := l.NewValue("out", ir.RR, ir.Float)
	l.NewOp(machine.FAdd, []ir.Operand{{Val: a.ID, Omega: 1}, {Val: a.ID, Omega: 1}}, a.ID)
	l.NewOp(machine.FCmpGT, []ir.Operand{{Val: a.ID}, {Val: a.ID}}, p.ID)
	d1 := l.NewOp(machine.FMul, []ir.Operand{{Val: a.ID}, {Val: a.ID}}, t1.ID)
	d1.Pred = &ir.Operand{Val: p.ID}
	d2 := l.NewOp(machine.FMul, []ir.Operand{{Val: a.ID}, {Val: a.ID}}, t2.ID)
	d2.Pred = &ir.Operand{Val: p.ID}
	d2.PredNeg = true
	// A single consumer reads both sides (pressure analysis only; this
	// schedule is never executed).
	l.NewOp(machine.FAdd, []ir.Operand{{Val: t1.ID}, {Val: t2.ID}}, out.ID)
	l.MustFinalize()

	// Peak column holds exactly {a, t1, t2}: the complementary pair
	// shares, so aware pressure drops from 3 to 2.
	s := ir.NewSchedule(7, len(l.Ops))
	copy(s.Time, []int{0, 1, 2, 3, 5})
	plain := Measure(l, s, ir.RR)
	aware := MeasurePredAware(l, s, ir.RR)
	if aware.MaxLive >= plain.MaxLive {
		t.Errorf("predicate-aware MaxLive %d should undercut plain %d (t1/t2 are complementary)",
			aware.MaxLive, plain.MaxLive)
	}
	if aware.MaxLive < 1 {
		t.Errorf("degenerate aware pressure %d", aware.MaxLive)
	}
}

// Without complementary defs the two measures agree.
func TestPredAwareNoOpOnUnpredicated(t *testing.T) {
	l := fixture.SampleCore(machine.Cydra())
	s := ir.NewSchedule(2, len(l.Ops))
	s.Time[0], s.Time[1] = 0, 1
	if a, b := Measure(l, s, ir.RR), MeasurePredAware(l, s, ir.RR); a.MaxLive != b.MaxLive {
		t.Errorf("unpredicated loop: %d vs %d", a.MaxLive, b.MaxLive)
	}
}

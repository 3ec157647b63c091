package sched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fixture"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/machine"
	"repro/internal/schedcheck"
)

func schedulers() map[string]func(*ir.Loop) (*Result, error) {
	return map[string]func(*ir.Loop) (*Result, error){
		"slack": func(l *ir.Loop) (*Result, error) { return Slack(Config{}).Schedule(context.Background(), l) },
		"slack-1d": func(l *ir.Loop) (*Result, error) {
			return SlackUnidirectional(Config{}).Schedule(context.Background(), l)
		},
		"cydrome": func(l *ir.Loop) (*Result, error) { return Cydrome(Config{}).Schedule(context.Background(), l) },
		"list":    func(l *ir.Loop) (*Result, error) { return List(Config{}).Schedule(context.Background(), l) },
	}
}

// Every scheduler must produce legal schedules on every fixture loop.
func TestFixturesLegal(t *testing.T) {
	m := machine.Cydra()
	for name, run := range schedulers() {
		for _, l := range fixture.All(m) {
			res, err := run(l)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, l.Name, err)
			}
			if !res.OK() {
				t.Fatalf("%s/%s: gave up (last II %d)", name, l.Name, res.FailedII)
			}
			if vs := schedcheck.Check(l, res.Schedule); vs != nil {
				t.Errorf("%s/%s: illegal schedule: %v\n%s", name, l.Name, vs[0], res.Schedule)
			}
			if res.Schedule.II < res.Bounds.MII {
				t.Errorf("%s/%s: II %d below MII %d", name, l.Name, res.Schedule.II, res.Bounds.MII)
			}
		}
	}
}

// The slack scheduler achieves MII on all the fixture loops (the paper:
// 96% of 1,525 loops; these simple bodies must all make it).
func TestSlackAchievesMII(t *testing.T) {
	m := machine.Cydra()
	for _, l := range fixture.All(m) {
		res, err := Slack(Config{}).Schedule(context.Background(), l)
		if err != nil {
			t.Fatal(err)
		}
		if res.Schedule == nil || res.Schedule.II != res.Bounds.MII {
			t.Errorf("%s: II = %v, want MII = %d", l.Name, res.II(), res.Bounds.MII)
		}
	}
}

// The paper's headline: bidirectional placement yields register pressure
// no worse — and in aggregate strictly better — than the always-early
// baselines, without giving up II.
func TestBidirectionalReducesPressure(t *testing.T) {
	m := machine.Cydra()
	slackSum, cydSum, uniSum := 0, 0, 0
	for _, l := range fixture.All(m) {
		rs, err := Slack(Config{}).Schedule(context.Background(), l)
		if err != nil || !rs.OK() {
			t.Fatalf("slack/%s failed", l.Name)
		}
		rc, err := Cydrome(Config{}).Schedule(context.Background(), l)
		if err != nil || !rc.OK() {
			t.Fatalf("cydrome/%s failed", l.Name)
		}
		ru, err := SlackUnidirectional(Config{}).Schedule(context.Background(), l)
		if err != nil || !ru.OK() {
			t.Fatalf("slack-1d/%s failed", l.Name)
		}
		slackSum += lifetime.MaxLive(l, rs.Schedule)
		cydSum += lifetime.MaxLive(l, rc.Schedule)
		uniSum += lifetime.MaxLive(l, ru.Schedule)
	}
	if slackSum > cydSum {
		t.Errorf("slack total pressure %d > cydrome %d", slackSum, cydSum)
	}
	if slackSum > uniSum {
		t.Errorf("slack total pressure %d > unidirectional %d", slackSum, uniSum)
	}
	if slackSum >= cydSum {
		t.Logf("note: no strict aggregate win on fixtures (slack=%d cydrome=%d)", slackSum, cydSum)
	}
}

// Determinism: the same loop schedules identically across runs.
func TestDeterministic(t *testing.T) {
	l := fixture.Sample(machine.Cydra())
	r1, err := Slack(Config{}).Schedule(context.Background(), l)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Slack(Config{}).Schedule(context.Background(), l)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Schedule, r2.Schedule) {
		t.Error("slack scheduling is not deterministic")
	}
}

// The sample loop of Figure 1 schedules at II = 2 with MaxLive close to
// the paper's hand allocation (the naive allocation uses 6 rotating
// registers, the optimal 4; MinAvg-anchored scheduling should stay ≤ 6
// for x, y plus the two address pointers).
func TestSamplePressureReasonable(t *testing.T) {
	l := fixture.Sample(machine.Cydra())
	res, err := Slack(Config{}).Schedule(context.Background(), l)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.II != 2 {
		t.Fatalf("II = %d, want 2", res.Schedule.II)
	}
	ml := lifetime.MaxLive(l, res.Schedule)
	if ml > 8 {
		t.Errorf("MaxLive = %d, suspiciously high for the sample loop", ml)
	}
}

// Recurrence-limited loop: a long-latency circuit that a cycle-by-cycle
// approach struggles with. The slack scheduler must hit RecMII exactly.
func TestTightRecurrence(t *testing.T) {
	m := machine.Cydra()
	l := ir.NewLoop("tight", m)
	a := l.NewValue("a", ir.RR, ir.Float)
	b := l.NewValue("b", ir.RR, ir.Float)
	c := l.NewValue("c", ir.RR, ir.Float)
	// a = b[-1] * c[-1]; b = a + a; c = load-ish chain kept on adders.
	l.NewOp(machine.FMul, []ir.Operand{{Val: b.ID, Omega: 1}, {Val: c.ID, Omega: 1}}, a.ID)
	l.NewOp(machine.FAdd, []ir.Operand{{Val: a.ID}, {Val: a.ID}}, b.ID)
	l.NewOp(machine.FSub, []ir.Operand{{Val: b.ID}, {Val: a.ID}}, c.ID)
	l.MustFinalize()
	res, err := Slack(Config{}).Schedule(context.Background(), l)
	if err != nil {
		t.Fatal(err)
	}
	// Circuit a→b→a: L=3 Ω=1 → RecMII ≥ 3; a→b→c→a: L=4, Ω=1 → 4.
	if res.Bounds.RecMII != 4 {
		t.Fatalf("RecMII = %d, want 4", res.Bounds.RecMII)
	}
	if !res.OK() || res.Schedule.II != 4 {
		t.Errorf("II = %v, want RecMII 4", res.II())
	}
	schedcheck.MustCheck(l, res.Schedule)
}

// Stress: random cyclic loops must always yield legal schedules, and the
// engine must never panic or loop forever.
func TestRandomLoopsLegal(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	codes := []machine.Opcode{
		machine.FAdd, machine.FMul, machine.FSub, machine.Load,
		machine.IAdd, machine.AAdd, machine.FDiv,
	}
	for trial := 0; trial < 120; trial++ {
		m := machine.Cydra()
		l := ir.NewLoop("rand", m)
		n := 2 + rng.Intn(12)
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
		for name, run := range schedulers() {
			res, err := run(l)
			if err != nil && !errors.Is(err, ErrInfeasible) {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if !res.OK() {
				// The no-backtracking list scheduler gives up routinely;
				// the static-priority Cydrome baseline fails on rare
				// divider-saturated circuits, as its real counterpart
				// failed on 14 of the paper's 1,525 loops (Table 4).
				// The slack schedulers must never fail.
				if name == "slack" || name == "slack-1d" {
					t.Fatalf("trial %d %s: gave up\n%s", trial, name, l)
				}
				continue
			}
			if vs := schedcheck.Check(l, res.Schedule); vs != nil {
				t.Fatalf("trial %d %s: illegal: %v\n%s%s", trial, name, vs[0], l, res.Schedule)
			}
		}
	}
}

// The divider's reservation pattern: two divider ops must end up exactly
// 17+ cycles apart modulo II, and the slack scheduler still reaches MII.
func TestDividerScheduling(t *testing.T) {
	l := fixture.Divide(machine.Cydra())
	res, err := Slack(Config{}).Schedule(context.Background(), l)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || res.Schedule.II != 38 {
		t.Fatalf("II = %v, want ResMII 38", res.II())
	}
	schedcheck.MustCheck(l, res.Schedule)
}

// Stats plumbing: a loop that schedules greedily reports no backtracking;
// counters are internally consistent.
func TestStatsConsistent(t *testing.T) {
	l := fixture.Reduction(machine.Cydra())
	res, err := Slack(Config{}).Schedule(context.Background(), l)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.IIAttempts < 1 || st.Placements < int64(len(l.Ops)) {
		t.Errorf("implausible stats: %+v", st)
	}
	if st.CentralIters < st.Placements {
		t.Errorf("central iterations %d < placements %d", st.CentralIters, st.Placements)
	}
	if st.Forces == 0 && st.Ejections != 0 {
		t.Errorf("ejections without forces: %+v", st)
	}
}

// The IncrementByOne ablation must yield II no larger than the default
// policy's on any single loop (it searches a superset of II values).
func TestIIStepAblation(t *testing.T) {
	l := fixture.Divide(machine.Cydra())
	d, err := Slack(Config{}).Schedule(context.Background(), l)
	if err != nil {
		t.Fatal(err)
	}
	o, err := Slack(Config{IncrementByOne: true}).Schedule(context.Background(), l)
	if err != nil {
		t.Fatal(err)
	}
	if o.OK() && d.OK() && o.Schedule.II > d.Schedule.II {
		t.Errorf("increment-by-one found II %d > default %d", o.Schedule.II, d.Schedule.II)
	}
}

package sched_test

import (
	"context"
	"testing"

	"repro/internal/exact"
	"repro/internal/fixture"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/mii"
	"repro/internal/sched"
)

// The exact backend's differential tests live in sched's external test
// package: it imports exact, and sees the exhaustive searchers
// (exhaustive_test.go) that the sched package keeps out of its build.

// oracleNodes bounds the exhaustive oracle's enumeration: generous
// enough that every small-loop oracle run in this file completes.
const oracleNodes = 20_000_000

// oracleVerdict runs the exhaustive differential oracle: the first
// feasible II from MII upward (FindAtII), then the minimum MaxLive at
// that II (BestAtII). complete is false when the oracle itself hit its
// node cap, in which case the verdict is unusable.
func oracleVerdict(t *testing.T, l *ir.Loop, mII int) (ii, maxLive int, complete bool) {
	t.Helper()
	for ii = mII; ; ii++ {
		s, err := sched.FindAtII(l, ii, -1, oracleNodes)
		if err != nil {
			t.Fatalf("%s: FindAtII(%d): %v", l.Name, ii, err)
		}
		if s != nil {
			break
		}
		if ii > mII+64 {
			t.Fatalf("%s: oracle found no feasible II in [%d, %d]", l.Name, mII, ii)
		}
	}
	best, ml, complete, err := sched.BestAtII(l, ii, -1, oracleNodes)
	if err != nil {
		t.Fatalf("%s: BestAtII(%d): %v", l.Name, ii, err)
	}
	if best == nil {
		t.Fatalf("%s: FindAtII found a schedule at II=%d but BestAtII did not", l.Name, ii)
	}
	return ii, ml, complete
}

// TestExactMatchesOracleOnFixtures pins the acceptance criterion: on
// every small fixture loop the exact backend's (II, MaxLive) is
// bit-identical to the exhaustive oracle's, and the backend reports the
// result proven.
func TestExactMatchesOracleOnFixtures(t *testing.T) {
	m := machine.Cydra()
	cfg := sched.Config{Budget: sched.Budget{MaxCentralIters: 50_000_000}}
	for _, l := range fixture.All(m) {
		if len(l.Ops) > 12 {
			continue
		}
		if b, err := mii.Compute(context.Background(), l); err != nil || b.MII > 16 {
			// The divider fixture's II (and with it the horizon) is so large
			// that the deliberately naive oracle cannot enumerate the space;
			// the corpus differential and never-worse invariants cover it.
			t.Logf("%s: MII beyond the oracle's reach, skipping", l.Name)
			continue
		}
		out, err := exact.New(cfg).Search(context.Background(), l)
		if err != nil {
			t.Fatalf("%s: exact: %v", l.Name, err)
		}
		if !out.Proven {
			t.Errorf("%s: exact did not prove optimality within the budget", l.Name)
		}
		oII, oML, complete := oracleVerdict(t, l, out.Result.Bounds.MII)
		if !complete {
			t.Fatalf("%s: oracle incomplete at II=%d — raise oracleNodes", l.Name, oII)
		}
		if got := out.Result.Schedule.II; got != oII || out.MaxLive != oML {
			t.Errorf("%s: exact (II=%d, MaxLive=%d) != oracle (II=%d, MaxLive=%d)",
				l.Name, got, out.MaxLive, oII, oML)
		}
	}
}

// TestExactMatchesOracleOnCorpus extends the differential to the small
// loops of a generated corpus slice.
func TestExactMatchesOracleOnCorpus(t *testing.T) {
	suite, err := loopgen.Build(loopgen.Options{Size: 48, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sched.Config{Budget: sched.Budget{MaxCentralIters: 50_000_000}}
	checked := 0
	for _, wl := range suite.Loops {
		l := wl.CL.Loop
		if len(l.Ops) > 10 || checked >= 12 {
			continue
		}
		out, err := exact.New(cfg).Search(context.Background(), l)
		if err != nil {
			t.Fatalf("%s: exact: %v", wl.Name, err)
		}
		if !out.Proven {
			t.Logf("%s: unproven within budget, skipping oracle comparison", wl.Name)
			continue
		}
		oII, oML, complete := oracleVerdict(t, l, out.Result.Bounds.MII)
		if !complete {
			t.Logf("%s: oracle incomplete, skipping", wl.Name)
			continue
		}
		if got := out.Result.Schedule.II; got != oII || out.MaxLive != oML {
			t.Errorf("%s: exact (II=%d, MaxLive=%d) != oracle (II=%d, MaxLive=%d)",
				wl.Name, got, out.MaxLive, oII, oML)
		}
		checked++
	}
	if checked < 4 {
		t.Fatalf("only %d corpus loops were small enough to check — widen the filter", checked)
	}
}

// TestExactNeverWorseThanSlack pins the warm-start invariant over a
// corpus slice: wherever slack succeeds, exact succeeds with a
// lexicographically no-worse (II, MaxLive).
func TestExactNeverWorseThanSlack(t *testing.T) {
	suite, err := loopgen.Build(loopgen.Options{Size: 60, Seed: 1993})
	if err != nil {
		t.Fatal(err)
	}
	improved := 0
	for _, wl := range suite.Loops {
		l := wl.CL.Loop
		sres, serr := sched.Slack(sched.Config{}).Schedule(context.Background(), l)
		if serr != nil || !sres.OK() {
			continue
		}
		sML := lifetime.Measure(l, sres.Schedule, ir.RR).MaxLive
		out, err := exact.New(sched.Config{}).Search(context.Background(), l)
		if err != nil {
			t.Fatalf("%s: slack succeeded but exact failed: %v", wl.Name, err)
		}
		eII, eML := out.Result.Schedule.II, out.MaxLive
		if eII > sres.Schedule.II || (eII == sres.Schedule.II && eML > sML) {
			t.Errorf("%s: exact (II=%d, ML=%d) worse than slack (II=%d, ML=%d)",
				wl.Name, eII, eML, sres.Schedule.II, sML)
		}
		if out.Improved {
			improved++
			t.Logf("improved %s: slack (II=%d, ML=%d) -> exact (II=%d, ML=%d), proven=%v",
				wl.Name, sres.Schedule.II, sML, eII, eML, out.Proven)
		}
	}
	t.Logf("%d loops strictly improved by exact", improved)
}

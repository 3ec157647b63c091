package lifetime_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/loopgen"
	"repro/internal/sched"
)

// rangesOracle is the original Ranges: for each value, rangeOf rescans
// every op for its reads, O(values·ops). It lives here, in an external
// test package, because the differential below schedules the corpus and
// the scheduler imports lifetime.
func rangesOracle(l *ir.Loop, s *ir.Schedule, file ir.RegFile) []lifetime.Range {
	var out []lifetime.Range
	for _, v := range l.Values {
		if v.File != file || !v.IsVariant() {
			continue
		}
		if r, ok := rangeOf(l, s, v); ok {
			out = append(out, r)
		}
	}
	return out
}

func rangeOf(l *ir.Loop, s *ir.Schedule, v *ir.Value) (lifetime.Range, bool) {
	start := -1
	lat := 0
	for _, d := range v.Defs {
		t := s.Time[d]
		if t == ir.Unplaced {
			return lifetime.Range{}, false
		}
		if start == -1 || t < start {
			start = t
		}
		if dl := l.Mach.Latency(l.Op(d).Opcode); dl > lat {
			lat = dl
		}
	}
	end := start + lat
	for _, op := range l.Ops {
		t := s.Time[op.ID]
		if t == ir.Unplaced {
			continue
		}
		for _, rd := range op.Reads() {
			if rd.Val != v.ID {
				continue
			}
			if u := t + rd.Omega*s.II; u > end {
				end = u
			}
		}
	}
	return lifetime.Range{Val: v.ID, Start: start, End: end}, true
}

// The one-pass Ranges must equal the per-value scan on both rotating
// files of every corpus loop's slack schedule, and on partial schedules
// cut from it with a random share of the ops unplaced. RangesIn runs
// through one Scratch for the whole corpus, so every loop meets an index
// and range list sized by another.
func TestRangesMatchOracle(t *testing.T) {
	suite, err := loopgen.Build(loopgen.Options{Size: 1525, Seed: 1993})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	var scr lifetime.Scratch
	check := func(name string, l *ir.Loop, s *ir.Schedule) {
		t.Helper()
		for _, file := range []ir.RegFile{ir.RR, ir.ICR} {
			want := rangesOracle(l, s, file)
			if got := lifetime.Ranges(l, s, file); !slices.Equal(got, want) {
				t.Fatalf("%s %v: Ranges %v, oracle %v", name, file, got, want)
			}
			if got := lifetime.RangesIn(l, s, file, &scr); !slices.Equal(got, want) {
				t.Fatalf("%s %v: RangesIn %v, oracle %v", name, file, got, want)
			}
		}
	}
	partial := 0
	for _, lp := range suite.Loops {
		l := lp.CL.Loop
		res, err := sched.Slack(sched.Config{}).Schedule(context.Background(), l)
		if err != nil || !res.OK() {
			continue
		}
		check(lp.Name, l, res.Schedule)
		cut := ir.NewSchedule(res.Schedule.II, len(l.Ops))
		share := rng.Float64()
		for i, tm := range res.Schedule.Time {
			if cut.Time[i] = tm; rng.Float64() < share {
				cut.Time[i] = ir.Unplaced
				partial++
			}
		}
		check(lp.Name+" (partial)", l, cut)
	}
	if partial == 0 {
		t.Fatal("no op was ever unplaced")
	}
}

package sched

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/mii"
	"repro/internal/mindist"
)

// boundsLoops returns the kernel corpus the incremental-bounds
// differential runs over.
func boundsLoops(t *testing.T) []*loopgen.Loop {
	t.Helper()
	ks, err := loopgen.Kernels(machine.Cydra())
	if err != nil {
		t.Fatal(err)
	}
	return ks
}

// checkFixpoint asserts the incremental bounds are a fixpoint of the
// full O(p·u) recomputation: running recomputeBounds must change
// nothing. Since recomputeBounds rebuilds every bound from scratch,
// equality here is equality with the direct path.
func checkFixpoint(t *testing.T, name string, step int, st *State) {
	t.Helper()
	es := append([]int(nil), st.estart...)
	ls := append([]int(nil), st.lstart...)
	times := append([]int(nil), st.time...)
	anchor := st.lstartStop
	st.recomputeBounds()
	if st.lstartStop != anchor {
		t.Fatalf("%s step %d: incremental left a stale Stop anchor: %d vs %d", name, step, anchor, st.lstartStop)
	}
	for x := 0; x <= st.n; x++ {
		if st.time[x] != times[x] {
			t.Fatalf("%s step %d: recompute moved placement of %d: %d vs %d", name, step, x, times[x], st.time[x])
		}
		if st.estart[x] != es[x] {
			t.Fatalf("%s step %d: Estart(%d) incremental %d, from scratch %d", name, step, x, es[x], st.estart[x])
		}
		if st.lstart[x] != ls[x] {
			t.Fatalf("%s step %d: Lstart(%d) incremental %d, from scratch %d", name, step, x, ls[x], st.lstart[x])
		}
	}
}

// TestIncrementalBoundsMatchRecompute drives a randomized
// placement/ejection sequence through the attempt state and checks,
// after every refreshBounds, that the incremental result equals the
// from-scratch recomputation.
func TestIncrementalBoundsMatchRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(1993))
	for _, wl := range boundsLoops(t) {
		l := wl.CL.Loop
		b, err := mii.Compute(context.Background(), l)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		for _, dii := range []int{0, 1, 3} {
			ii := b.MII + dii
			md, err := mindist.Compute(l, ii)
			if err != nil {
				t.Fatalf("%s II=%d: %v", wl.Name, ii, err)
			}
			st := newState(l, ii, md)
			for step := 0; step < 4*(st.n+1); step++ {
				if st.allPlaced() {
					break
				}
				// Occasionally eject a random placed op, dirtying the
				// incremental state; the next refresh must fall back to
				// the full pass and still match.
				if st.unplacedCount < st.n && rng.Intn(6) == 0 {
					victim := -1
					for probe := 0; probe < 50; probe++ {
						x := rng.Intn(st.n + 1)
						if st.Placed(x) {
							victim = x
							break
						}
					}
					if victim >= 0 {
						st.eject(victim)
					}
				}
				// Place a random unplaced op at a random free cycle in
				// its engine window, exactly as step 2 would.
				x := -1
				for probe := 0; probe < 80; probe++ {
					c := rng.Intn(st.n + 1)
					if !st.Placed(c) {
						x = c
						break
					}
				}
				if x < 0 {
					continue
				}
				lo, hi := st.estart[x], st.lstart[x]
				if hi > lo+st.II-1 {
					hi = lo + st.II - 1
				}
				cycle := ir.Unplaced
				for c := lo; c <= hi; c++ {
					if st.free(x, c) {
						cycle = c
						break
					}
				}
				if cycle == ir.Unplaced {
					continue
				}
				st.place(x, cycle)
				st.refreshBounds(x)
				checkFixpoint(t, wl.Name, step, st)
			}
		}
	}
}

// TestResultMinDistAtFinalII asserts the satellite contract: every
// scheduler returns res.MinDist at exactly the II of the schedule it
// found, so core.Compile's defensive recompute never triggers.
func TestResultMinDistAtFinalII(t *testing.T) {
	for _, wl := range boundsLoops(t) {
		l := wl.CL.Loop
		for _, mk := range []func() (*Result, error){
			func() (*Result, error) { return Slack(Config{}).Schedule(context.Background(), l) },
			func() (*Result, error) { return SlackUnidirectional(Config{}).Schedule(context.Background(), l) },
			func() (*Result, error) { return Cydrome(Config{}).Schedule(context.Background(), l) },
			func() (*Result, error) { return List(Config{}).Schedule(context.Background(), l) },
		} {
			res, err := mk()
			if err != nil {
				t.Fatalf("%s: %v", wl.Name, err)
			}
			if !res.OK() {
				continue
			}
			if res.MinDist == nil || res.MinDist.II != res.Schedule.II {
				t.Fatalf("%s/%s: MinDist II %v, schedule II %d",
					wl.Name, res.Policy, res.MinDist, res.Schedule.II)
			}
		}
	}
}

// TestIncrementalBoundsMatchFullRecompute schedules the seed-1993
// workload (every kernel plus synthetics: 120 loops, 40 under -short)
// under all four schedulers twice, once with the incremental
// Estart/Lstart maintenance and once recomputing the bounds from
// scratch at every step; OK, II and every issue cycle must match.
func TestIncrementalBoundsMatchFullRecompute(t *testing.T) {
	size := 120
	if testing.Short() {
		size = 40
	}
	w, err := loopgen.Build(loopgen.Options{Size: size, Seed: 1993})
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range w.Loops {
		l := wl.CL.Loop
		for _, mk := range []func(Config) *Scheduler{Slack, SlackUnidirectional, Cydrome, List} {
			// Cydrome gives up on a few loops: an infeasible result
			// still carries its II.
			fast, err := mk(Config{}).Schedule(context.Background(), l)
			if err != nil && !errors.Is(err, ErrInfeasible) {
				t.Fatalf("%s: %v", wl.Name, err)
			}
			slow, err := mk(Config{noIncremental: true}).Schedule(context.Background(), l)
			if err != nil && !errors.Is(err, ErrInfeasible) {
				t.Fatalf("%s: %v", wl.Name, err)
			}
			if fast.OK() != slow.OK() || fast.II() != slow.II() {
				t.Fatalf("%s/%s: incremental OK=%v II=%d, full recompute OK=%v II=%d",
					wl.Name, fast.Policy, fast.OK(), fast.II(), slow.OK(), slow.II())
			}
			if !fast.OK() {
				continue
			}
			for id, cf := range fast.Schedule.Time {
				if cs := slow.Schedule.Time[id]; cs != cf {
					t.Fatalf("%s/%s: op%d incremental cycle %d, full recompute cycle %d",
						wl.Name, fast.Policy, id, cf, cs)
				}
			}
		}
	}
}

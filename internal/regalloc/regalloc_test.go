package regalloc

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/fixture"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/sched"
)

func strategies() []Strategy { return []Strategy{FirstFit, EndFit, BestFit} }
func orders() []Order        { return []Order{StartTime, Adjacency} }

// The paper's naive allocation of the sample loop (Figure 3) uses six
// rotating registers for x and y; the optimal uses four. Our allocator
// works on the full value set, but for the two-value core at the paper's
// placement it must land in [4, 6].
func TestSampleCoreAllocation(t *testing.T) {
	l := fixture.SampleCore(machine.Cydra())
	s := ir.NewSchedule(2, len(l.Ops))
	s.Time[0], s.Time[1] = 0, 1
	ranges := lifetime.Ranges(l, s, ir.RR)
	for _, strat := range strategies() {
		for _, ord := range orders() {
			a := Allocate(ranges, 2, strat, ord)
			if err := Verify(ranges, 2, a); err != nil {
				t.Errorf("%v/%v: %v", strat, ord, err)
			}
			if a.N < 4 || a.N > 6 {
				t.Errorf("%v/%v: N = %d, want 4..6 (paper: naive 6, optimal 4)", strat, ord, a.N)
			}
		}
	}
}

// Every strategy must produce verifiably sound allocations on scheduled
// fixture loops, within a small delta of MaxLive — the Rau et al. result
// the paper relies on (footnote 4: wands-only end-fit with adjacency
// ordering never needed more than MaxLive+1).
func TestFixtureAllocationsNearMaxLive(t *testing.T) {
	m := machine.Cydra()
	for _, l := range fixture.All(m) {
		res, err := sched.Slack(sched.Config{}).Schedule(context.Background(), l)
		if err != nil || !res.OK() {
			t.Fatalf("%s: scheduling failed", l.Name)
		}
		ranges := lifetime.Ranges(l, res.Schedule, ir.RR)
		maxlive := LowerBound(ranges, res.Schedule.II)
		for _, strat := range strategies() {
			for _, ord := range orders() {
				a := Allocate(ranges, res.Schedule.II, strat, ord)
				if err := Verify(ranges, res.Schedule.II, a); err != nil {
					t.Errorf("%s %v/%v: %v", l.Name, strat, ord, err)
				}
				// The primary allocator (first-fit, start-time order,
				// used by the code generator) must stay within the +5
				// delta Rau et al. report for their heuristics; the
				// alternative strategies are only compared, not relied
				// on, and the benchmark harness reports their deltas.
				if strat == FirstFit && ord == StartTime && a.N > maxlive+5 {
					t.Errorf("%s %v/%v: N = %d, MaxLive-bound = %d (delta > 5)",
						l.Name, strat, ord, a.N, maxlive)
				}
			}
		}
	}
}

// Property: on random interval sets the greedy allocation always
// verifies, and N never exceeds the trivial bound (one register per
// value instance in flight).
func TestRandomAllocationsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 80; trial++ {
		ii := 1 + rng.Intn(8)
		nv := 1 + rng.Intn(10)
		ranges := make([]lifetime.Range, nv)
		generous := 0
		for i := range ranges {
			start := rng.Intn(3 * ii)
			length := 1 + rng.Intn(5*ii)
			ranges[i] = lifetime.Range{Val: ir.ValueID(i), Start: start, End: start + length}
			// Each already-placed value can forbid at most span_v +
			// span_w + 2 residues against the next one, so twice the
			// total span plus a couple per value always suffices.
			generous += 2*((length+ii-1)/ii) + 2
		}
		strat := strategies()[rng.Intn(3)]
		ord := orders()[rng.Intn(2)]
		a := Allocate(ranges, ii, strat, ord)
		if err := Verify(ranges, ii, a); err != nil {
			t.Fatalf("trial %d (%v/%v): %v", trial, strat, ord, err)
		}
		if a.N > generous {
			t.Fatalf("trial %d (%v/%v): N = %d exceeds generous bound %d", trial, strat, ord, a.N, generous)
		}
		if a.N < LowerBound(ranges, ii) {
			t.Fatalf("trial %d: N = %d below lower bound", trial, a.N)
		}
	}
}

// Self-overlap: a single value living longer than N·II cannot fit; the
// allocator must grow the file to ⌈len/II⌉.
func TestLongLifetimeSpansRegisters(t *testing.T) {
	ranges := []lifetime.Range{{Val: 0, Start: 0, End: 47}}
	a := Allocate(ranges, 10, FirstFit, StartTime)
	if a.N != 5 {
		t.Errorf("N = %d, want ⌈47/10⌉ = 5", a.N)
	}
	if err := Verify(ranges, 10, a); err != nil {
		t.Error(err)
	}
}

// Verify must reject a deliberately broken allocation.
func TestVerifyCatchesCollision(t *testing.T) {
	ranges := []lifetime.Range{
		{Val: 0, Start: 0, End: 4},
		{Val: 1, Start: 0, End: 4},
	}
	bad := Allocation{N: 1, Offset: map[ir.ValueID]int{0: 0, 1: 0}}
	if err := Verify(ranges, 4, bad); err == nil {
		t.Error("two identical lifetimes in one register must collide")
	}
	// The same through a scratch last used on a larger, sound set.
	big := randomRanges(rand.New(rand.NewSource(5)), 12, 4, 6)
	var a Allocation
	dirty.Allocate(context.Background(), &a, big, 4, FirstFit, StartTime)
	if err := dirty.Verify(big, 4, a); err != nil {
		t.Fatal(err)
	}
	if err := dirty.Verify(ranges, 4, bad); err == nil {
		t.Error("two identical lifetimes in one register must collide through a reused scratch")
	}
}

// dirty is the one Scratch, with its one Allocation, that the oracle
// tests run every trial through, so each trial meets buffers and an
// offset map sized and filled by an earlier one: a stale forbid mask,
// offset or lane shows up as a divergence from the oracles.
var (
	dirty      Scratch
	dirtyAlloc Allocation
)

// allocateDirty is Allocate through dirty into dirtyAlloc. It also
// holds the package-level Allocate, a fresh scratch, to the same result.
func allocateDirty(t *testing.T, ranges []lifetime.Range, ii int, strat Strategy, ord Order) Allocation {
	t.Helper()
	dirty.Allocate(context.Background(), &dirtyAlloc, ranges, ii, strat, ord)
	if fresh := Allocate(ranges, ii, strat, ord); !sameAllocation(fresh, dirtyAlloc) {
		t.Fatalf("%v/%v: reused scratch gives %+v, fresh %+v", strat, ord, dirtyAlloc, fresh)
	}
	return dirtyAlloc
}

// verifyDirty is Verify through dirty, held to the package-level Verify.
func verifyDirty(t *testing.T, ranges []lifetime.Range, ii int, a Allocation) error {
	t.Helper()
	err := dirty.Verify(ranges, ii, a)
	if fresh := Verify(ranges, ii, a); (err == nil) != (fresh == nil) {
		t.Fatalf("reused scratch gives %v, fresh %v", err, fresh)
	}
	return err
}

func TestZeroValues(t *testing.T) {
	a := Allocate(nil, 4, FirstFit, StartTime)
	if a.N != 0 {
		t.Errorf("empty allocation should use 0 registers, got %d", a.N)
	}
	if err := Verify(nil, 4, a); err != nil {
		t.Error(err)
	}
}

// The oracles below are the original, direct implementations of the
// allocator and the verifier: the greedy pass tests every offset against
// every placed value's residue list, and the verifier simulates the
// register file cycle by cycle. They are slow but obviously correct, and
// the differential tests hold Allocate and Verify to them exactly.

// allocateOracle is Allocate by exhaustive per-offset feasibility tests.
func allocateOracle(ranges []lifetime.Range, ii int, strat Strategy, order Order) Allocation {
	if len(ranges) == 0 {
		return Allocation{N: 0, Offset: map[ir.ValueID]int{}}
	}
	ordered := orderValues(nil, ranges, order)
	for n := max(LowerBound(ranges, ii), 1); ; n++ {
		if alloc, ok := tryFitOracle(ordered, ii, n, strat); ok {
			alloc.N = n
			return alloc
		}
	}
}

func tryFitOracle(ordered []lifetime.Range, ii, n int, strat Strategy) (Allocation, bool) {
	alloc := Allocation{Offset: make(map[ir.ValueID]int, len(ordered))}
	placed := make([]lifetime.Range, 0, len(ordered))
	prevEnd := 0
	for _, v := range ordered {
		var feasible []int
		for r := 0; r < n; r++ {
			if fitsOracle(v, r, placed, alloc.Offset, ii, n) {
				feasible = append(feasible, r)
			}
		}
		if len(feasible) == 0 {
			return Allocation{}, false
		}
		var pick int
		switch strat {
		case FirstFit:
			pick = feasible[0]
		case EndFit:
			pick = feasible[0]
			bestDist := cyclicUp(prevEnd, feasible[0], n)
			for _, r := range feasible[1:] {
				if d := cyclicUp(prevEnd, r, n); d < bestDist {
					pick, bestDist = r, d
				}
			}
		case BestFit:
			const bestFitCap = 24
			if len(feasible) > bestFitCap {
				feasible = feasible[:bestFitCap]
			}
			pick = feasible[0]
			bestCost := 1 << 30
			probe := v
			probe.Val = ir.ValueID(-1) // synthetic copy, distinct from v
			for _, r := range feasible {
				trial := append(placed[:len(placed):len(placed)], v)
				trialOff := alloc.Offset
				trialOff[v.Val] = r
				remaining := 0
				for q := 0; q < n; q++ {
					if fitsOracle(probe, q, trial, trialOff, ii, n) {
						remaining++
					}
				}
				delete(trialOff, v.Val)
				cost := remaining*n + cyclicUp(prevEnd, r, n)
				if cost < bestCost {
					pick, bestCost = r, cost
				}
			}
		}
		alloc.Offset[v.Val] = pick
		placed = append(placed, v)
		prevEnd = pick + (v.Len()+ii-1)/ii
	}
	return alloc, true
}

func fitsOracle(v lifetime.Range, r int, placed []lifetime.Range, off map[ir.ValueID]int, ii, n int) bool {
	if n*ii < v.Len() {
		return false
	}
	for _, w := range placed {
		if w.Val == v.Val {
			continue
		}
		rw := off[w.Val]
		diff := (rw - r) % n
		if diff < 0 {
			diff += n
		}
		for _, m := range badResiduesOracle(v, w, ii, n) {
			if diff == m {
				return false
			}
		}
	}
	return true
}

func badResiduesOracle(v, w lifetime.Range, ii, n int) []int {
	lo := floorDiv(v.Start-w.End, ii) + 1
	hi := ceilDiv(v.End-w.Start, ii) - 1
	var out []int
	seen := map[int]bool{}
	for m := lo; m <= hi; m++ {
		if m*ii <= v.Start-w.End || m*ii >= v.End-w.Start {
			continue
		}
		res := m % n
		if res < 0 {
			res += n
		}
		if !seen[res] {
			seen[res] = true
			out = append(out, res)
		}
	}
	return out
}

// verifyOracle simulates every cycle of the horizon, building each
// cycle's register occupancy from scratch.
func verifyOracle(ranges []lifetime.Range, ii int, alloc Allocation) error {
	if len(ranges) == 0 {
		return nil
	}
	n := alloc.N
	if n == 0 {
		return fmt.Errorf("regalloc: empty allocation for %d values", len(ranges))
	}
	maxEnd := 0
	for _, r := range ranges {
		if r.End > maxEnd {
			maxEnd = r.End
		}
	}
	spanIters := maxEnd/ii + 2
	iters := 2*n + 2*spanIters
	type hold struct {
		val  ir.ValueID
		iter int
	}
	horizon := (iters + spanIters) * ii
	for t := 0; t < horizon; t++ {
		perReg := make(map[int]hold)
		for _, r := range ranges {
			off, ok := alloc.Offset[r.Val]
			if !ok {
				return fmt.Errorf("regalloc: value %d not allocated", r.Val)
			}
			for i := 0; i <= iters; i++ {
				if t < r.Start+i*ii || t >= r.End+i*ii {
					continue
				}
				phys := (off - i) % n
				if phys < 0 {
					phys += n
				}
				if prev, busy := perReg[phys]; busy && !(prev.val == r.Val && prev.iter == i) {
					return fmt.Errorf("regalloc: collision at t=%d reg=%d: value %d iter %d vs value %d iter %d",
						t, phys, prev.val, prev.iter, r.Val, i)
				}
				perReg[phys] = hold{r.Val, i}
			}
		}
	}
	return nil
}

// randomRanges draws nv lifetimes with distinct values at II ii, starts
// spread over spread IIs and lengths from 0 up to four IIs.
func randomRanges(rng *rand.Rand, nv, ii, spread int) []lifetime.Range {
	ranges := make([]lifetime.Range, nv)
	for i := range ranges {
		start := rng.Intn(spread * ii)
		ranges[i] = lifetime.Range{Val: ir.ValueID(3*i + rng.Intn(3)), Start: start, End: start + rng.Intn(4*ii+1)}
	}
	return ranges
}

func sameAllocation(a, b Allocation) bool {
	return a.N == b.N && maps.Equal(a.Offset, b.Offset)
}

// corpusFile is the allocation input of one register file of one loop.
type corpusFile struct {
	name   string
	ii     int
	ranges []lifetime.Range
}

// corpusFiles builds, once, the RR and ICR range sets of every loop of a
// fixed 120-loop loopgen corpus under the slack scheduler, with live-out
// values extended to the iteration makespan as the code generator
// allocates them.
var corpusFiles = sync.OnceValues(func() ([]corpusFile, error) {
	suite, err := loopgen.Build(loopgen.Options{Size: 120, Seed: 1993})
	if err != nil {
		return nil, err
	}
	var out []corpusFile
	for _, lp := range suite.Loops {
		l := lp.CL.Loop
		res, err := sched.Slack(sched.Config{}).Schedule(context.Background(), l)
		if err != nil || !res.OK() {
			continue
		}
		s := res.Schedule
		makespan := s.Makespan(l)
		for _, file := range []ir.RegFile{ir.RR, ir.ICR} {
			ranges := lifetime.Ranges(l, s, file)
			for i := range ranges {
				if l.Value(ranges[i].Val).LiveOut && ranges[i].End < makespan {
					ranges[i].End = makespan
				}
			}
			out = append(out, corpusFile{fmt.Sprintf("%s/%v", lp.Name, file), s.II, ranges})
		}
	}
	return out, nil
})

func loadCorpus(tb testing.TB) []corpusFile {
	tb.Helper()
	files, err := corpusFiles()
	if err != nil {
		tb.Fatal(err)
	}
	return files
}

// Allocate must reproduce the oracle's file size and every offset for
// every strategy and order, on random range sets.
func TestAllocateMatchesOracleRandom(t *testing.T) {
	trials := 400
	if testing.Short() {
		trials = 100
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < trials; trial++ {
		ii := 1 + rng.Intn(8)
		nv := 1 + rng.Intn(12)
		ranges := randomRanges(rng, nv, ii, 1+rng.Intn(nv))
		for _, strat := range strategies() {
			for _, ord := range orders() {
				got, want := allocateDirty(t, ranges, ii, strat, ord), allocateOracle(ranges, ii, strat, ord)
				if !sameAllocation(got, want) {
					t.Fatalf("trial %d %v/%v (II %d, %v):\ngot  %+v\nwant %+v", trial, strat, ord, ii, ranges, got, want)
				}
			}
		}
	}
}

// The same on every RR and ICR range set of the corpus. The probing
// oracles cost up to O(V·N²) residue lists per value placed, so -short
// compares end-fit and best-fit only on files of at most 30 values.
func TestAllocateMatchesOracleCorpus(t *testing.T) {
	for _, f := range loadCorpus(t) {
		for _, strat := range strategies() {
			if strat != FirstFit && testing.Short() && len(f.ranges) > 30 {
				continue
			}
			for _, ord := range orders() {
				got, want := allocateDirty(t, f.ranges, f.ii, strat, ord), allocateOracle(f.ranges, f.ii, strat, ord)
				if !sameAllocation(got, want) {
					t.Fatalf("%s %v/%v: got N=%d %v, want N=%d %v", f.name, strat, ord, got.N, got.Offset, want.N, want.Offset)
				}
			}
		}
	}
}

// Best-fit probes only the first 24 feasible offsets. On this set the
// 25th would win and change the result (the oracle gives N = 133 with a
// cap of 25); the expected allocation is the oracle's, pinned because
// the oracle needs about a second for it.
func TestBestFitProbesFirst24Offsets(t *testing.T) {
	ranges := []lifetime.Range{{Val: 0, Start: 0, End: 18}, {Val: 1, Start: 5, End: 63}, {Val: 2, Start: 3, End: 58}, {Val: 3, Start: 2, End: 45}}
	want := Allocation{N: 132, Offset: map[ir.ValueID]int{0: 0, 3: 29, 2: 73, 1: 100}}
	if got := Allocate(ranges, 2, BestFit, StartTime); !sameAllocation(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

// Verify must return the oracle's verdict on random allocations: random
// file sizes and offsets (mostly broken), plus sound allocations and
// single-offset perturbations of them (near the boundary).
func TestVerifyMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const trials = 12000
	broken := 0
	for trial := 0; trial < trials; trial++ {
		ii := 1 + rng.Intn(6)
		ranges := randomRanges(rng, 1+rng.Intn(8), ii, 3)
		var a Allocation
		switch trial % 3 {
		case 0, 1:
			a = Allocation{N: 1 + rng.Intn(10), Offset: map[ir.ValueID]int{}}
			shift := rng.Intn(2 * ii) // early starts are clipped at cycle 0
			for k, r := range ranges {
				a.Offset[r.Val] = rng.Intn(3*a.N) - a.N // out-of-range offsets wrap
				ranges[k].Start -= shift
				ranges[k].End -= shift
			}
		case 2:
			a = allocateDirty(t, ranges, ii, strategies()[rng.Intn(3)], orders()[rng.Intn(2)])
			if rng.Intn(2) == 0 {
				a.Offset[ranges[rng.Intn(len(ranges))].Val] += 1 + rng.Intn(a.N)
			}
		}
		got, want := verifyDirty(t, ranges, ii, a), verifyOracle(ranges, ii, a)
		if (got == nil) != (want == nil) {
			t.Fatalf("trial %d (II %d, N %d, %v, %v): Verify = %v, oracle = %v", trial, ii, a.N, ranges, a.Offset, got, want)
		}
		if want != nil {
			broken++
		}
	}
	t.Logf("%d of %d allocations broken", broken, trials)
	if broken < trials/2 || broken > trials-trials/10 {
		t.Errorf("%d of %d allocations broken; the draw should exercise both verdicts", broken, trials)
	}
}

// The same on every corpus allocation of every strategy and order, and
// on each with one offset shifted.
func TestVerifyMatchesOracleCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, f := range loadCorpus(t) {
		if len(f.ranges) == 0 {
			continue
		}
		for _, strat := range strategies() {
			for _, ord := range orders() {
				a := allocateDirty(t, f.ranges, f.ii, strat, ord)
				if err := verifyDirty(t, f.ranges, f.ii, a); err != nil {
					t.Errorf("%s %v/%v: %v", f.name, strat, ord, err)
				}
				if err := verifyOracle(f.ranges, f.ii, a); err != nil {
					t.Errorf("%s %v/%v: oracle: %v", f.name, strat, ord, err)
				}
				a.Offset[f.ranges[rng.Intn(len(f.ranges))].Val] += 1 + rng.Intn(a.N)
				got, want := verifyDirty(t, f.ranges, f.ii, a), verifyOracle(f.ranges, f.ii, a)
				if (got == nil) != (want == nil) {
					t.Errorf("%s %v/%v shifted: Verify = %v, oracle = %v", f.name, strat, ord, got, want)
				}
			}
		}
	}
}

// Verify keeps its input errors.
func TestVerifyInputErrors(t *testing.T) {
	ranges := []lifetime.Range{{Val: 0, Start: 0, End: 4}, {Val: 1, Start: 1, End: 3}}
	if err := Verify(ranges, 4, Allocation{Offset: map[ir.ValueID]int{0: 0, 1: 1}}); err == nil {
		t.Error("an empty allocation for live values must be rejected")
	}
	if err := Verify(ranges, 4, Allocation{N: 2, Offset: map[ir.ValueID]int{0: 0}}); err == nil {
		t.Error("an unallocated value must be rejected")
	}
}

// BenchmarkRegallocAllocate allocates every RR and ICR file of the
// corpus once per op, as the code generator does (first-fit, start-time).
func BenchmarkRegallocAllocate(b *testing.B) {
	files := loadCorpus(b)
	b.ReportAllocs()
	for b.Loop() {
		for _, f := range files {
			Allocate(f.ranges, f.ii, FirstFit, StartTime)
		}
	}
}

// BenchmarkRegallocVerify verifies the first-fit allocation of every RR
// and ICR file of the corpus once per op.
func BenchmarkRegallocVerify(b *testing.B) {
	files := loadCorpus(b)
	allocs := make([]Allocation, len(files))
	for i, f := range files {
		allocs[i] = Allocate(f.ranges, f.ii, FirstFit, StartTime)
	}
	b.ReportAllocs()
	for b.Loop() {
		for i, f := range files {
			if err := Verify(f.ranges, f.ii, allocs[i]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

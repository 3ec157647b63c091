package mindist_test

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/fixture"
	"repro/internal/frontend"
	"repro/internal/ir"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/mii"
	"repro/internal/mindist"
)

// sameTable asserts every entry of the two tables matches.
func sameTable(t *testing.T, name string, ii int, want, got *mindist.Table) {
	t.Helper()
	if want.N() != got.N() {
		t.Fatalf("%s II=%d: size %d vs %d", name, ii, want.N(), got.N())
	}
	for x := 0; x <= want.N()+1; x++ {
		for y := 0; y <= want.N()+1; y++ {
			if want.Dist(x, y) != got.Dist(x, y) {
				t.Fatalf("%s II=%d: MinDist(%d,%d) = %d, want %d",
					name, ii, x, y, got.Dist(x, y), want.Dist(x, y))
			}
		}
	}
}

// corpus returns every kernel loop plus a batch of seeded synthetics.
func corpus(t *testing.T) []*loopgen.Loop {
	t.Helper()
	m := machine.Cydra()
	ks, err := loopgen.Kernels(m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(271828))
	for i := 0; i < 40; i++ {
		src := loopgen.Generate(rng, "parsyn")
		_, loops, err := frontend.Compile(src, m)
		if err != nil {
			t.Fatalf("generated loop does not compile: %v", err)
		}
		for _, cl := range loops {
			if cl.Ineligible == nil {
				ks = append(ks, &loopgen.Loop{Name: "parsyn", Source: src, CL: cl})
			}
		}
	}
	return ks
}

// bySize returns the corpus loops largest first, so one table reused
// across them is always left dirty by a wider loop.
func bySize(t *testing.T) []*loopgen.Loop {
	t.Helper()
	loops := corpus(t)
	sort.SliceStable(loops, func(i, j int) bool { return len(loops[i].CL.Loop.Ops) > len(loops[j].CL.Loop.Ops) })
	return loops
}

// checkInto computes l at ii into tab and holds the answer, table or
// *ErrInfeasible, to a fresh Compute.
func checkInto(t *testing.T, name string, l *ir.Loop, ii int, tab *mindist.Table) {
	t.Helper()
	want, werr := mindist.Compute(l, ii)
	gerr := mindist.ComputeInto(l, ii, tab, nil)
	var winf, ginf *mindist.ErrInfeasible
	switch {
	case werr == nil && gerr == nil:
		sameTable(t, name, ii, want, tab)
	case errors.As(werr, &winf) && errors.As(gerr, &ginf) && *winf == *ginf:
	default:
		t.Fatalf("%s II=%d: Compute err %v, ComputeInto err %v", name, ii, werr, gerr)
	}
}

// TestCacheMatchesDirect holds the scheduler's cached MinDist, one
// table reused in place across loops and II attempts (sched.Arena's,
// filled by ComputeInto), to the direct path: one dirty table goes
// through every corpus loop, largest first, at every II from RecMII−1
// to MII+6, and each answer, table or *ErrInfeasible, must equal a
// fresh Compute.
func TestCacheMatchesDirect(t *testing.T) {
	var tab mindist.Table
	for _, wl := range bySize(t) {
		l := wl.CL.Loop
		b, err := mii.Compute(context.Background(), l)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		for ii := max(b.RecMII-1, 1); ii <= b.MII+6; ii++ {
			checkInto(t, wl.Name, l, ii, &tab)
		}
	}
}

// TestCacheMinLTStable checks that the derived metrics (MinLT, MinAvg),
// the scheduler's actual consumers of the table, agree between a table
// reused across loops and a fresh Compute.
func TestCacheMinLTStable(t *testing.T) {
	var tab mindist.Table
	for _, wl := range bySize(t) {
		l := wl.CL.Loop
		b, err := mii.Compute(context.Background(), l)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		for ii := b.MII; ii <= b.MII+4; ii++ {
			direct, err := mindist.Compute(l, ii)
			if err != nil {
				t.Fatal(err)
			}
			if err := mindist.ComputeInto(l, ii, &tab, nil); err != nil {
				t.Fatal(err)
			}
			if a, bb := mindist.MinAvg(l, direct, ir.RR), mindist.MinAvg(l, &tab, ir.RR); a != bb {
				t.Fatalf("%s II=%d: MinAvg direct %d, reused table %d", wl.Name, ii, a, bb)
			}
			for _, v := range l.Values {
				if a, bb := mindist.MinLT(l, direct, v.ID), mindist.MinLT(l, &tab, v.ID); a != bb {
					t.Fatalf("%s II=%d: MinLT(%s) direct %d, reused table %d", wl.Name, ii, v.Name, a, bb)
				}
			}
		}
	}
}

// TestCacheDirectMode holds the direct Floyd–Warshall, now the only
// MinDist mode, to its stop poll, so a budget bounds it: a poll that
// fires at once (the first poll precedes the first pivot) or midway
// abandons ComputeInto with ErrStopped, and the same table is correct
// on the next call.
func TestCacheDirectMode(t *testing.T) {
	var tab mindist.Table
	for _, wl := range bySize(t) {
		l := wl.CL.Loop
		b, err := mii.Compute(context.Background(), l)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		// Fire at once, then midway (a loop wide enough to poll twice
		// leaves a half-relaxed table behind).
		for _, after := range []int{0, 1} {
			polls := 0
			stop := func() bool { polls++; return polls > after }
			err := mindist.ComputeInto(l, b.MII, &tab, stop)
			if fired := polls > after; fired != errors.Is(err, mindist.ErrStopped) {
				t.Fatalf("%s: stop fired=%v, ComputeInto err = %v", wl.Name, fired, err)
			}
			if after == 0 && polls != 1 {
				t.Fatalf("%s: %d polls before stopping, want 1 before the first pivot", wl.Name, polls)
			}
			checkInto(t, wl.Name, l, b.MII, &tab)
		}
	}
}

// BenchmarkComputeDirect is the per-II cost of the direct path on the
// largest fixture.
func BenchmarkComputeDirect(b *testing.B) {
	m := machine.Cydra()
	l := fixture.Divide(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mindist.Compute(l, 38+i%8); err != nil {
			b.Fatal(err)
		}
	}
}

// referenceMinLT is MinLT written out per value, one scan of every
// dependence per value, as the scheduler once computed it. It is the
// reference for MinLT and MinLTs.
func referenceMinLT(l *ir.Loop, t *mindist.Table, v ir.ValueID) int {
	val := l.Value(v)
	if len(val.Defs) == 0 {
		return 0
	}
	best := 0
	maxDefLat := 0
	for _, d := range val.Defs {
		if lat := l.Mach.Latency(l.Op(d).Opcode); lat > maxDefLat {
			maxDefLat = lat
		}
	}
	hasUse := false
	for _, dep := range l.Deps {
		if dep.Kind != ir.DepFlow || dep.Val != v {
			continue
		}
		hasUse = true
		lt := mindist.NoPath
		for _, d := range val.Defs {
			md := t.Dist(int(d), int(dep.To))
			if md == mindist.NoPath {
				continue
			}
			if c := dep.Omega*t.II + md; lt == mindist.NoPath || c < lt {
				lt = c
			}
		}
		if lt != mindist.NoPath && lt > best {
			best = lt
		}
	}
	if !hasUse {
		return maxDefLat
	}
	return max(best, maxDefLat)
}

// TestMinLTsMatchReference holds MinLT and the one-pass MinLTs to the
// per-value reference for every value of every corpus loop at several
// IIs, reusing one MinLTs buffer across loops of different sizes.
func TestMinLTsMatchReference(t *testing.T) {
	var lts []int
	for _, k := range corpus(t) {
		l := k.CL.Loop
		b, err := mii.Compute(context.Background(), l)
		if err != nil {
			t.Fatal(err)
		}
		for ii := b.MII; ii <= b.MII+3; ii++ {
			md, err := mindist.Compute(l, ii)
			if err != nil {
				t.Fatal(err)
			}
			lts = mindist.MinLTs(l, md, lts)
			if len(lts) != len(l.Values) {
				t.Fatalf("%s II=%d: MinLTs has %d entries, want %d", k.Name, ii, len(lts), len(l.Values))
			}
			for _, v := range l.Values {
				want := referenceMinLT(l, md, v.ID)
				if got := mindist.MinLT(l, md, v.ID); got != want {
					t.Fatalf("%s II=%d: MinLT(%s) = %d, reference %d", k.Name, ii, v.Name, got, want)
				}
				if lts[v.ID] != want {
					t.Fatalf("%s II=%d: MinLTs[%s] = %d, reference %d", k.Name, ii, v.Name, lts[v.ID], want)
				}
			}
		}
	}
}

// TestOpsAndStopLayout pins the row layout callers index by: entry y of
// OpsAndStop(x) is Dist(x, y) for every op y, and entry N() is Stop.
func TestOpsAndStopLayout(t *testing.T) {
	l := fixture.Sample(machine.Cydra())
	b, err := mii.Compute(context.Background(), l)
	if err != nil {
		t.Fatal(err)
	}
	md, err := mindist.Compute(l, b.MII)
	if err != nil {
		t.Fatal(err)
	}
	n := md.N()
	if md.Stop() != n {
		t.Fatalf("Stop() = %d, want N() = %d", md.Stop(), n)
	}
	for _, x := range append([]int{md.Start(), md.Stop()}, 0, n-1) {
		row := md.OpsAndStop(x)
		if len(row) != n+1 {
			t.Fatalf("len(OpsAndStop(%d)) = %d, want %d", x, len(row), n+1)
		}
		for y := 0; y < n; y++ {
			if row[y] != md.Dist(x, y) {
				t.Fatalf("OpsAndStop(%d)[%d] = %d, Dist %d", x, y, row[y], md.Dist(x, y))
			}
		}
		if row[n] != md.Dist(x, md.Stop()) {
			t.Fatalf("OpsAndStop(%d)[N] = %d, Dist(x, Stop) %d", x, row[n], md.Dist(x, md.Stop()))
		}
	}
}

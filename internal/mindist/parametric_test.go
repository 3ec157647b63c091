package mindist_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/fixture"
	"repro/internal/frontend"
	"repro/internal/ir"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/mii"
	"repro/internal/mindist"
	"repro/internal/obs"
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
				t.Fatalf("%s II=%d: MinDist(%d,%d) direct %d, parametric %d",
					name, ii, x, y, want.Dist(x, y), got.Dist(x, y))
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

// TestParametricMatchesDirect is the differential proof for the
// parametric MinDist: for every kernel and a batch of synthetics, the
// instantiated table equals the direct Floyd–Warshall at every II in
// [MII, MII+8], and both agree on infeasibility below RecMII.
func TestParametricMatchesDirect(t *testing.T) {
	fallbacks := 0
	loops := corpus(t)
	for _, wl := range loops {
		l := wl.CL.Loop
		b, err := mii.Compute(l)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		p, err := mindist.NewParametric(l, mindist.DefaultFrontierCap)
		if err != nil {
			if !errors.Is(err, mindist.ErrTooComplex) {
				t.Fatalf("%s: %v", wl.Name, err)
			}
			fallbacks++
			continue
		}
		var reuse *mindist.Table
		for ii := b.MII; ii <= b.MII+8; ii++ {
			direct, derr := mindist.Compute(l, ii)
			if derr != nil {
				t.Fatalf("%s II=%d ≥ MII must be feasible: %v", wl.Name, ii, derr)
			}
			reuse, err = p.Instantiate(ii, reuse)
			if err != nil {
				t.Fatalf("%s II=%d: parametric infeasible, direct feasible", wl.Name, ii)
			}
			sameTable(t, wl.Name, ii, direct, reuse)
		}
		// Below RecMII both paths must report the positive circuit.
		for ii := 1; ii < b.RecMII; ii++ {
			_, derr := mindist.Compute(l, ii)
			_, perr := p.Instantiate(ii, nil)
			if (derr == nil) != (perr == nil) {
				t.Fatalf("%s II=%d: direct err %v, parametric err %v", wl.Name, ii, derr, perr)
			}
		}
	}
	if fallbacks > len(loops)/4 {
		t.Errorf("parametric fell back on %d of %d loops; cap too tight to matter", fallbacks, len(loops))
	}
}

// TestCacheMatchesDirect drives the scheduler-facing cache through an
// II-retry sequence and checks every answer against the direct path,
// including the first (direct) call and the infeasible prefix.
func TestCacheMatchesDirect(t *testing.T) {
	for _, wl := range corpus(t) {
		l := wl.CL.Loop
		b, err := mii.Compute(l)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		c := mindist.NewCache(l)
		lo := b.RecMII - 1
		if lo < 1 {
			lo = 1
		}
		for ii := lo; ii <= b.MII+6; ii++ {
			direct, derr := mindist.Compute(l, ii)
			got, gerr := c.At(ii)
			if (derr == nil) != (gerr == nil) {
				t.Fatalf("%s II=%d: direct err %v, cache err %v", wl.Name, ii, derr, gerr)
			}
			if derr == nil {
				sameTable(t, wl.Name, ii, direct, got)
			}
		}
	}
}

// TestCacheMinLTStable checks that derived metrics (MinLT, MinAvg) agree
// between cached and direct tables — they read the table through the
// same API but are the scheduler's actual consumers.
func TestCacheMinLTStable(t *testing.T) {
	m := machine.Cydra()
	l := fixture.Sample(m)
	b, err := mii.Compute(l)
	if err != nil {
		t.Fatal(err)
	}
	c := mindist.NewCache(l)
	for ii := b.MII; ii <= b.MII+4; ii++ {
		direct, err := mindist.Compute(l, ii)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.At(ii)
		if err != nil {
			t.Fatal(err)
		}
		if a, bb := mindist.MinAvg(l, direct, ir.RR), mindist.MinAvg(l, got, ir.RR); a != bb {
			t.Fatalf("II=%d: MinAvg direct %d, cache %d", ii, a, bb)
		}
		for _, v := range l.Values {
			if a, bb := mindist.MinLT(l, direct, v.ID), mindist.MinLT(l, got, v.ID); a != bb {
				t.Fatalf("II=%d: MinLT(%s) direct %d, cache %d", ii, v.Name, a, bb)
			}
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

// BenchmarkParametricBuild is the one-time cost of the all-IIs pass.
func BenchmarkParametricBuild(b *testing.B) {
	m := machine.Cydra()
	l := fixture.Divide(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mindist.NewParametric(l, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParametricInstantiate is the per-II cost after the build —
// the price of each II retry under the cache.
func BenchmarkParametricInstantiate(b *testing.B) {
	m := machine.Cydra()
	l := fixture.Divide(m)
	p, err := mindist.NewParametric(l, 0)
	if err != nil {
		b.Fatal(err)
	}
	var t *mindist.Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err = p.Instantiate(38+i%8, t)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestCacheDirectMode is the NoFastPaths contract: a direct-mode cache
// answers every retry with Floyd–Warshall (a "mindist" span with
// mode=direct, never a parametric build) and still polls its stop, so a
// budget bounds the direct path too.
func TestCacheDirectMode(t *testing.T) {
	l := fixture.Sample(machine.Cydra())
	b, err := mii.Compute(l)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("direct", l.Name)
	c := mindist.NewCache(l)
	c.SetDirect(true)
	c.SetTrace(tr)
	for ii := b.MII; ii <= b.MII+3; ii++ {
		direct, err := mindist.Compute(l, ii)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.At(ii)
		if err != nil {
			t.Fatal(err)
		}
		sameTable(t, l.Name, ii, direct, got)
	}
	for _, sp := range tr.Spans {
		if sp.Name != "mindist" || sp.Attrs[1].Str != "direct" {
			t.Fatalf("direct-mode cache recorded %s %+v", sp.Name, sp.Attrs)
		}
	}
	c.SetStop(func() bool { return true })
	if _, err := c.At(b.MII + 4); !errors.Is(err, mindist.ErrStopped) {
		t.Fatalf("stopped direct-mode At: err = %v, want ErrStopped", err)
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
		b, err := mii.Compute(l)
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
	b, err := mii.Compute(l)
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

package mii_test

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fixture"
	"repro/internal/ir"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/mii"
)

// census is the oracle RecMII is held to: Johnson's elementary-circuit
// algorithm over the dependence graph, calling visit once per circuit as
// it closes, with its ops in traversal order (smallest id first; the
// slice is only valid during the call) and its total latency and omega.
// Self-arcs come first, as one-op circuits. Parallel arcs are kept
// apart, so each yields its own circuit.
func census(l *ir.Loop, visit func(ops []int, latency, omega int)) {
	type arc struct{ to, latency, omega int }
	n := len(l.Ops)
	adj := make([][]arc, n)
	for _, d := range l.Deps {
		adj[d.From] = append(adj[d.From], arc{int(d.To), d.Latency, d.Omega})
	}
	for v := range n {
		for _, a := range adj[v] {
			if a.to == v {
				visit([]int{v}, a.latency, a.omega)
			}
		}
	}
	blocked := make([]bool, n)
	bsets := make([][]int, n)
	var stack []int
	var unblock func(v int)
	unblock = func(v int) {
		blocked[v] = false
		for _, x := range bsets[v] {
			if blocked[x] {
				unblock(x)
			}
		}
		bsets[v] = bsets[v][:0]
	}
	// circuit is Johnson's CIRCUIT(v) for circuits rooted at s, over ops
	// ≥ s only, so each circuit is found once, at its smallest op.
	var circuit func(v, s, latency, omega int) bool
	circuit = func(v, s, latency, omega int) bool {
		found := false
		stack = append(stack, v)
		blocked[v] = true
		for _, a := range adj[v] {
			switch {
			case a.to < s || a.to == v:
			case a.to == s:
				visit(stack, latency+a.latency, omega+a.omega)
				found = true
			case !blocked[a.to]:
				if circuit(a.to, s, latency+a.latency, omega+a.omega) {
					found = true
				}
			}
		}
		if found {
			unblock(v)
		} else {
			for _, a := range adj[v] {
				if a.to >= s && a.to != v && !slices.Contains(bsets[a.to], v) {
					bsets[a.to] = append(bsets[a.to], v)
				}
			}
		}
		stack = stack[:len(stack)-1]
		return found
	}
	for s := range n {
		for v := s; v < n; v++ {
			blocked[v] = false
			bsets[v] = bsets[v][:0]
		}
		circuit(s, s, 0, 0)
	}
}

// censusRecMII is RecMII by the census: the largest ⌈L/Ω⌉ over the
// circuits, at least 1, or ErrZeroOmega when some circuit has Ω = 0.
func censusRecMII(l *ir.Loop) (int, error) {
	rec, zero := 1, false
	census(l, func(_ []int, latency, omega int) {
		if omega == 0 {
			zero = true
		} else if r := (latency + omega - 1) / omega; r > rec {
			rec = r
		}
	})
	if zero {
		return 0, mii.ErrZeroOmega
	}
	return rec, nil
}

// checkAgainstCensus fails t unless RecMII and the census agree on l,
// errors included, and returns RecMII's error.
func checkAgainstCensus(t testing.TB, l *ir.Loop) error {
	t.Helper()
	want, werr := censusRecMII(l)
	got, err := mii.RecMII(l)
	if got != want || !errors.Is(err, werr) {
		t.Fatalf("%s: RecMII = %d, %v; census says %d, %v\n%s", l.Name, got, err, want, werr, l)
	}
	return err
}

func TestSampleCoreCircuits(t *testing.T) {
	l := fixture.SampleCore(machine.Cydra())
	// Two self circuits (ω=1 each) and one 2-op circuit (ω=4 total: the
	// two ω=2 cross arcs).
	var selfs, pairs int
	census(l, func(ops []int, latency, omega int) {
		switch len(ops) {
		case 1:
			selfs++
			if omega != 1 || latency != 1 {
				t.Errorf("self circuit %v: L=%d Ω=%d, want L=1 Ω=1", ops, latency, omega)
			}
		case 2:
			pairs++
			if omega != 4 || latency != 2 {
				t.Errorf("pair circuit %v: L=%d Ω=%d, want L=2 Ω=4", ops, latency, omega)
			}
		default:
			t.Errorf("unexpected circuit %v", ops)
		}
	})
	if selfs != 2 || pairs != 1 {
		t.Errorf("got %d self + %d pair circuits, want 2 + 1", selfs, pairs)
	}
	rec, err := mii.RecMII(l)
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
	if _, err := mii.RecMII(l); !errors.Is(err, mii.ErrZeroOmega) {
		t.Errorf("RecMII error = %v, want ErrZeroOmega", err)
	}
	if _, err := mii.Compute(context.Background(), l); !errors.Is(err, mii.ErrZeroOmega) {
		t.Errorf("Compute error = %v, want ErrZeroOmega", err)
	}
	// The text reaches response bodies.
	if got, want := mii.ErrZeroOmega.Error(), "circuits: dependence circuit with zero total omega"; got != want {
		t.Errorf("ErrZeroOmega = %q, want %q", got, want)
	}
}

// corpus returns the seed-1993 workload on m, every 16th loop under
// -short.
func corpus(t testing.TB, m *machine.Desc) []*ir.Loop {
	t.Helper()
	suite, err := loopgen.Build(loopgen.Options{Seed: 1993, Mach: m})
	if err != nil {
		t.Fatal(err)
	}
	var out []*ir.Loop
	for i, sl := range suite.Loops {
		if !testing.Short() || i%16 == 0 {
			out = append(out, sl.CL.Loop)
		}
	}
	return out
}

func TestRecMIIMatchesCensusOnCorpus(t *testing.T) {
	for _, m := range machine.Machines() {
		t.Run(m.Name, func(t *testing.T) {
			for _, l := range corpus(t, m) {
				checkAgainstCensus(t, l)
			}
		})
	}
}

// graphFromBytes builds a dependence graph of 1–10 ops from b: b[0]
// picks the op count, then every 4 bytes add one arc (from, to,
// latency in [-3, 9], ω in [0, 3]), at most 24 arcs. Arcs of latency
// ≤ 0 are order arcs. Only the op count and the arcs are set: they are
// all RecMII reads.
func graphFromBytes(b []byte) *ir.Loop {
	l := &ir.Loop{Name: "fuzz"}
	if len(b) == 0 {
		return l
	}
	l.Ops = make([]*ir.Op, 1+int(b[0])%10)
	n := len(l.Ops)
	for b = b[1:]; len(b) >= 4 && len(l.Deps) < 24; b = b[4:] {
		d := ir.Dep{From: ir.OpID(int(b[0]) % n), To: ir.OpID(int(b[1]) % n),
			Latency: int(b[2]%13) - 3, Omega: int(b[3] % 4), Kind: ir.DepFlow}
		if d.Latency <= 0 {
			d.Kind = ir.DepOrder
		}
		l.Deps = append(l.Deps, d)
	}
	return l
}

func TestRecMIIMatchesCensusOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var zero int
	for range 2000 {
		b := make([]byte, 1+4*(1+rng.Intn(24)))
		rng.Read(b)
		if checkAgainstCensus(t, graphFromBytes(b)) != nil {
			zero++
		}
	}
	// Both outcomes must be exercised.
	if zero < 200 || zero > 1800 {
		t.Errorf("%d of 2000 graphs have a zero-ω circuit; the generator needs a better mix", zero)
	}
}

// TestRecMIIDenseGraphs checks graphs whose census is out of reach
// against their analytic RecMII.
func TestRecMIIDenseGraphs(t *testing.T) {
	// All pairs over 24 ops, latency 2: arcs i→j with i < j carry ω = 0,
	// the others ω = 1. Every circuit takes a backward arc, and an
	// elementary one has at most 24 arcs, so the best climbs all 24 ops
	// and falls back once: L = 48, Ω = 1.
	const n = 24
	dense := &ir.Loop{Name: "dense", Ops: make([]*ir.Op, n)}
	for i := range n {
		for j := range n {
			omega := 0
			if j <= i {
				omega = 1
			}
			dense.Deps = append(dense.Deps, ir.Dep{From: ir.OpID(i), To: ir.OpID(j), Latency: 2, Omega: omega, Kind: ir.DepOrder})
		}
	}
	// A 300-op ring of unit latencies closed by one ω = 1 arc (past the
	// 256-op stack buffer).
	ring := &ir.Loop{Name: "ring", Ops: make([]*ir.Op, 300)}
	for i := range 300 {
		ring.Deps = append(ring.Deps, ir.Dep{From: ir.OpID(i), To: ir.OpID((i + 1) % 300), Latency: 1, Omega: 0, Kind: ir.DepOrder})
	}
	ring.Deps[299].Omega = 1
	for _, tc := range []struct {
		l    *ir.Loop
		want int
	}{{dense, 2 * n}, {ring, 300}} {
		if got, err := mii.RecMII(tc.l); got != tc.want || err != nil {
			t.Errorf("%s: RecMII = %d, %v; want %d", tc.l.Name, got, err, tc.want)
		}
	}
	ring.Deps[299].Omega = 0
	if _, err := mii.RecMII(ring); !errors.Is(err, mii.ErrZeroOmega) {
		t.Errorf("ring with Σω = 0: error %v, want ErrZeroOmega", err)
	}
}

func TestComputeAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	for _, l := range corpus(t, machine.Cydra()) {
		if a := testing.AllocsPerRun(5, func() { _, _ = mii.Compute(ctx, l) }); a != 0 {
			t.Fatalf("%s (%d ops): mii.Compute made %v allocations, want 0", l.Name, len(l.Ops), a)
		}
	}
}

func BenchmarkRecMII(b *testing.B) {
	suite, err := loopgen.Build(loopgen.Options{Seed: 1993})
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		for _, sl := range suite.Loops {
			if _, err := mii.RecMII(sl.CL.Loop); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(suite.Loops)), "ns/loop")
}

// FuzzRecMII holds RecMII to the census on small graphs with zero and
// negative latencies: same bound, ErrZeroOmega exactly when a circuit
// has Σω = 0, no panic and no allocation. Its seeds are in
// testdata/fuzz/FuzzRecMII.
func FuzzRecMII(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		l := graphFromBytes(b)
		checkAgainstCensus(t, l)
		if a := testing.AllocsPerRun(1, func() { _, _ = mii.RecMII(l) }); a != 0 {
			t.Fatalf("RecMII made %v allocations, want 0", a)
		}
	})
}

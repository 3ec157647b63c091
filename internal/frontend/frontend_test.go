package frontend

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/mii"
	"repro/internal/rt"
	"repro/internal/semantics"
)

const sampleSrc = `
      subroutine sample(n, x, y)
      real x(1001), y(1001)
      integer n, i
      do i = 3, n
        x(i) = x(i-1) + y(i-2)
        y(i) = y(i-1) + x(i-2)
      end do
      end
`

func compileOne(t *testing.T, src string) *CompiledLoop {
	t.Helper()
	_, loops, err := Compile(src, machine.Cydra())
	if err != nil {
		t.Fatal(err)
	}
	if len(loops) != 1 {
		t.Fatalf("want 1 loop, got %d", len(loops))
	}
	if loops[0].Ineligible != nil {
		t.Fatalf("loop rejected: %v", loops[0].Ineligible)
	}
	return loops[0]
}

// The paper's Figure 1 loop: load/store elimination must remove every
// load (all four array reads are covered by the two stores), leaving a
// body whose MII is 2 — exactly the paper's worked example.
func TestSampleLoopLSE(t *testing.T) {
	cl := compileOne(t, sampleSrc)
	loads := cl.Loop.CountOps(func(op *ir.Op) bool { return op.Opcode == machine.Load })
	if loads != 0 {
		t.Errorf("LSE should eliminate all 4 loads, %d remain\n%s", loads, cl.Loop)
	}
	stores := cl.Loop.CountOps(func(op *ir.Op) bool { return op.Opcode == machine.Store })
	if stores != 2 {
		t.Errorf("want 2 stores, got %d", stores)
	}
	b, err := mii.Compute(context.Background(), cl.Loop)
	if err != nil {
		t.Fatal(err)
	}
	if b.MII != 2 {
		t.Errorf("MII = %d, want 2 (the paper schedules this loop at II=2)\n%s", b.MII, cl.Loop)
	}
	if !cl.Loop.HasRecurrence() {
		t.Error("cross-coupled recurrences should be detected")
	}
	if cl.Loop.HasConditional {
		t.Error("no conditional in this loop")
	}
}

// End-to-end semantics through the interpreter: x/y follow the
// recurrence from the seeded boundary values.
func TestSampleLoopExecution(t *testing.T) {
	cl := compileOne(t, sampleSrc)
	env, layout, trips, err := cl.BuildEnv(Binding{
		Ints: map[string]int64{"n": 10},
		Fill: func(array string, idx int) ir.Scalar {
			if idx <= 2 {
				base := 1.0
				if array == "y" {
					base = 2.0
				}
				return ir.FloatS(base * float64(idx))
			}
			return ir.FloatS(0)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if trips != 8 {
		t.Fatalf("trips = %d, want 8", trips)
	}
	res, err := interp.Run(cl.Loop, env, trips)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: straightforward Go re-implementation.
	x := map[int]float64{1: 1, 2: 2}
	y := map[int]float64{1: 2, 2: 4}
	for i := 3; i <= 10; i++ {
		x[i] = x[i-1] + y[i-2]
		y[i] = y[i-1] + x[i-2]
	}
	for i := 3; i <= 10; i++ {
		if got := res.Mem[layout.Base["x"]+int64(i)-1].F; got != x[i] {
			t.Errorf("x(%d) = %v, want %v", i, got, x[i])
		}
		if got := res.Mem[layout.Base["y"]+int64(i)-1].F; got != y[i] {
			t.Errorf("y(%d) = %v, want %v", i, got, y[i])
		}
	}
}

func TestDaxpyParamBound(t *testing.T) {
	src := `
      subroutine daxpy(n, a, x, y)
      integer n, i
      real a, x(500), y(500)
      do i = 1, n
        y(i) = y(i) + a*x(i)
      end do
      end
`
	cl := compileOne(t, src)
	if cl.Trips != 0 {
		t.Errorf("trip count should be unknown (param bound), got %d", cl.Trips)
	}
	env, layout, trips, err := cl.BuildEnv(Binding{
		Ints:  map[string]int64{"n": 40},
		Reals: map[string]float64{"a": 2.5},
		Fill: func(array string, idx int) ir.Scalar {
			if array == "x" {
				return ir.FloatS(float64(idx))
			}
			return ir.FloatS(100 + float64(idx))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if trips != 40 {
		t.Fatalf("trips = %d", trips)
	}
	res, err := interp.Run(cl.Loop, env, trips)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		want := 100 + float64(i) + 2.5*float64(i)
		if got := res.Mem[layout.Base["y"]+int64(i)-1].F; got != want {
			t.Fatalf("y(%d) = %v, want %v", i, got, want)
		}
	}
}

// A reduction with a carried scalar and a conditional: exercises
// if-conversion, the predicated merge, and the scalar recipe.
func TestConditionalReduction(t *testing.T) {
	src := `
      subroutine condsum(n, x, s)
      integer n, i
      real x(300), s
      do i = 1, n
        if (x(i) .gt. 0.0) then
          s = s + x(i)
        else
          s = s - 1.0
        end if
      end do
      end
`
	cl := compileOne(t, src)
	if !cl.Loop.HasConditional {
		t.Error("HasConditional should be set")
	}
	if cl.Loop.NumBB < 3 {
		t.Errorf("NumBB = %d, want ≥ 3 for an if/else", cl.Loop.NumBB)
	}
	env, _, trips, err := cl.BuildEnv(Binding{
		Ints:  map[string]int64{"n": 30},
		Reals: map[string]float64{"s": 5.0},
		Fill: func(array string, idx int) ir.Scalar {
			if idx%3 == 0 {
				return ir.FloatS(-float64(idx))
			}
			return ir.FloatS(float64(idx))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.Run(cl.Loop, env, trips)
	if err != nil {
		t.Fatal(err)
	}
	want := 5.0
	for i := 1; i <= 30; i++ {
		if i%3 == 0 {
			want -= 1.0
		} else {
			want += float64(i)
		}
	}
	got := res.LiveOut[cl.FinalScalar["s"]]
	if math.Abs(got.F-want) > 1e-9 {
		t.Errorf("s = %v, want %v", got.F, want)
	}
}

// Load-load forwarding: a 3-point stencil over a read-only array should
// load each element once and forward the other two reads in registers.
func TestStencilLoadForwarding(t *testing.T) {
	src := `
      subroutine stencil(n, a, b)
      integer n, i
      real a(400), b(400)
      do i = 2, n
        b(i) = a(i-1) + a(i) + a(i+1)
      end do
      end
`
	cl := compileOne(t, src)
	loads := cl.Loop.CountOps(func(op *ir.Op) bool { return op.Opcode == machine.Load })
	if loads != 1 {
		t.Errorf("want 1 leader load (a(i+1)), got %d\n%s", loads, cl.Loop)
	}
	env, layout, trips, err := cl.BuildEnv(Binding{
		Ints: map[string]int64{"n": 50},
		Fill: func(array string, idx int) ir.Scalar {
			if array == "a" {
				return ir.FloatS(float64(idx * idx))
			}
			return ir.FloatS(0)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.Run(cl.Loop, env, trips)
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 50; i++ {
		want := float64((i-1)*(i-1) + i*i + (i+1)*(i+1))
		if got := res.Mem[layout.Base["b"]+int64(i)-1].F; got != want {
			t.Fatalf("b(%d) = %v, want %v", i, got, want)
		}
	}
}

// Indirect addressing a(ind(i)) forces conservative dependences but must
// still compile and execute correctly.
func TestIndirectSubscript(t *testing.T) {
	src := `
      subroutine gather(n, ind, a, b)
      integer n, i, ind(200)
      real a(200), b(200)
      do i = 1, n
        b(i) = a(ind(i))
      end do
      end
`
	cl := compileOne(t, src)
	env, layout, trips, err := cl.BuildEnv(Binding{
		Ints: map[string]int64{"n": 20},
		Fill: func(array string, idx int) ir.Scalar {
			switch array {
			case "ind":
				return ir.IntS(int64(201 - idx - 180)) // 21-idx: reversal
			case "a":
				return ir.FloatS(float64(idx) * 3)
			}
			return ir.FloatS(0)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.Run(cl.Loop, env, trips)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		want := float64(21-i) * 3
		if got := res.Mem[layout.Base["b"]+int64(i)-1].F; got != want {
			t.Fatalf("b(%d) = %v, want %v", i, got, want)
		}
	}
}

// The DO variable used as a value (not just a subscript) must become an
// integer recurrence with an IToF conversion.
func TestIndexAsValue(t *testing.T) {
	src := `
      subroutine ramp(n, x)
      integer n, i
      real x(300)
      do i = 1, n
        x(i) = real(i) * 0.5
      end do
      end
`
	cl := compileOne(t, src)
	env, layout, trips, err := cl.BuildEnv(Binding{Ints: map[string]int64{"n": 25}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.Run(cl.Loop, env, trips)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 25; i++ {
		if got := res.Mem[layout.Base["x"]+int64(i)-1].F; got != float64(i)*0.5 {
			t.Fatalf("x(%d) = %v", i, got)
		}
	}
}

func TestEligibilityRejections(t *testing.T) {
	short := `
      subroutine short(x)
      real x(10)
      integer i
      do i = 1, 3
        x(i) = x(i) + 1.0
      end do
      end
`
	_, loops, err := Compile(short, machine.Cydra())
	if err != nil {
		t.Fatal(err)
	}
	if loops[0].Ineligible == nil || !strings.Contains(loops[0].Ineligible.Error(), "trip count") {
		t.Errorf("trip count 3 must be rejected, got %v", loops[0].Ineligible)
	}

	var b strings.Builder
	b.WriteString("      subroutine big(n, x)\n      real x(100)\n      integer n, i\n      do i = 1, n\n")
	for k := 0; k < 16; k++ {
		b.WriteString("        if (x(i) .gt. 0.0) then\n          x(i) = x(i) - 1.0\n        end if\n")
	}
	b.WriteString("      end do\n      end\n")
	_, loops, err = Compile(b.String(), machine.Cydra())
	if err != nil {
		t.Fatal(err)
	}
	if loops[0].Ineligible == nil || !strings.Contains(loops[0].Ineligible.Error(), "basic blocks") {
		t.Errorf("33 basic blocks must be rejected, got %v", loops[0].Ineligible)
	}
}

// storeBlowup is a loop of n stores to one array, x(i+7k) = y(i): every
// store pair needs a memory-ordering arc, so the arcs grow with n².
func storeBlowup(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "      subroutine blowup(n, x, y)\n      real x(%d), y(n)\n      integer n, i\n      do i = 1, n\n", 7*n+100)
	for k := 0; k < n; k++ {
		fmt.Fprintf(&b, "        x(i+%d) = y(i)\n", 7*k)
	}
	b.WriteString("      end do\n      end\n")
	return b.String()
}

// TestMemArcCeiling: a loop whose memory arcs would exceed MaxMemArcs is
// ineligible before the dependence pass builds them, so lowering
// allocates per store, not per store pair.
func TestMemArcCeiling(t *testing.T) {
	compile := func(n int) (*CompiledLoop, uint64) {
		src := storeBlowup(n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, loops, err := Compile(src, machine.Cydra())
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return loops[0], after.TotalAlloc - before.TotalAlloc
	}
	// 90 stores need 8,010 arcs at most: under the ceiling.
	if cl, _ := compile(90); cl.Ineligible != nil {
		t.Fatalf("90 stores: %v", cl.Ineligible)
	}
	cl, small := compile(1000)
	if cl.Ineligible == nil || !strings.Contains(cl.Ineligible.Error(), fmt.Sprintf("> %d", MaxMemArcs)) {
		t.Fatalf("1,000 stores: Ineligible = %v, want the memory-arc limit", cl.Ineligible)
	}
	_, large := compile(10000)
	if perSmall, perLarge := small/1000, large/10000; perLarge > 2*perSmall {
		t.Errorf("allocation per store grew from %d B (1,000 stores) to %d B (10,000 stores)", perSmall, perLarge)
	}
}

func TestNestedLoopPicksInnermost(t *testing.T) {
	src := `
      subroutine mm(n, a, b)
      integer n, i, j
      real a(100), b(100)
      do i = 1, n
        do j = 1, n
          a(j) = a(j) + b(j)
        end do
      end do
      end
`
	_, loops, err := Compile(src, machine.Cydra())
	if err != nil {
		t.Fatal(err)
	}
	if len(loops) != 1 {
		t.Fatalf("want 1 innermost loop, got %d", len(loops))
	}
	if loops[0].Ineligible != nil {
		t.Fatalf("inner loop rejected: %v", loops[0].Ineligible)
	}
	if loops[0].Do.Var != "j" {
		t.Errorf("innermost variable = %s, want j", loops[0].Do.Var)
	}
	// Outer index i is invariant inside; it is simply unused here.
}

func TestLexerBasics(t *testing.T) {
	toks, err := lexInto(nil, "x = a .lt. 1.5e2 ! comment\nC full comment line\n  y = .5")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
	}
	want := []TokKind{TokIdent, TokAssign, TokIdent, TokRelop, TokReal, TokNewline,
		TokIdent, TokAssign, TokReal, TokNewline, TokEOF}
	if len(kinds) != len(want) {
		t.Fatalf("token kinds %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d: %v, want %v (all: %v)", i, kinds[i], want[i], toks)
		}
	}
}

// TestLexerRejectsNonASCII: a non-ASCII byte is an error, not an
// identifier start — read as a Latin-1 letter it once made the
// identifier scan emit empty tokens forever.
func TestLexerRejectsNonASCII(t *testing.T) {
	for _, src := range []string{"x = caf\u00e9\n", "      subroutine s\ufffdn, a)\n", "y = \xaa\n"} {
		if _, err := lexInto(nil, src); err == nil {
			t.Errorf("lexInto(%q) accepted a non-ASCII byte", src)
		}
	}
}

// TestLexLinearInRealLiterals: deciding whether "1." starts a real or
// a dotted operator once lower-cased the whole remaining source, nine
// times per literal, so lexing was quadratic: 16k literals took
// seconds, and a default-sized request body hours, before the server
// admitted the request. A linear lexer takes milliseconds for 1 MiB.
func TestLexLinearInRealLiterals(t *testing.T) {
	src := "      x = " + strings.Repeat("1.5+", 1<<18) + "1.5\n"
	start := time.Now()
	toks, err := lexInto(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("lexing %d bytes took %v, want < 1s", len(src), el)
	}
	if want := 2 + 2*(1<<18) + 1 + 2; len(toks) != want {
		t.Errorf("%d tokens, want %d", len(toks), want)
	}
	if toks[2].Kind != TokReal || toks[2].Text != "1.5" || toks[3].Kind != TokPlus {
		t.Errorf("tokens start %v %v, want real 1.5 then +", toks[2], toks[3])
	}
}

// The differential harness in core_test covers fixtures; here we close
// the loop for frontend-generated IR: interp and the VLIW simulator must
// agree on a frontend-compiled loop (via the core facade's helpers is a
// cycle, so compare raw results).
func TestFrontendEndToEnd(t *testing.T) {
	cl := compileOne(t, sampleSrc)
	env, _, trips, err := cl.BuildEnv(Binding{
		Ints: map[string]int64{"n": 20},
		Fill: func(array string, idx int) ir.Scalar {
			return ir.FloatS(float64(idx) + 0.25)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := interp.Run(cl.Loop, env, trips)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := interp.Run(cl.Loop, cloneEnv(env), trips)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res1.Mem {
		if !semantics.Equal(res1.Mem[i], res2.Mem[i]) {
			t.Fatal("interpreter is not deterministic?!")
		}
	}
}

func cloneEnv(e *rt.Env) *rt.Env {
	c := &rt.Env{
		Mem:  append([]ir.Scalar(nil), e.Mem...),
		GPR:  map[ir.ValueID]ir.Scalar{},
		Init: map[rt.InstKey]ir.Scalar{},
	}
	for k, v := range e.GPR {
		c.GPR[k] = v
	}
	for k, v := range e.Init {
		c.Init[k] = v
	}
	return c
}

// ELSE IF chains lower to nested predicated regions with PAnd-combined
// guards.
func TestElseIfChain(t *testing.T) {
	src := `
      subroutine tri(n, lo2, hi2, x, y)
      integer n, i
      real x(300), y(300), lo2, hi2
      do i = 1, n
        if (x(i) .lt. lo2) then
          y(i) = lo2
        else if (x(i) .gt. hi2) then
          y(i) = hi2
        else
          y(i) = x(i)
        end if
      end do
      end
`
	cl := compileOne(t, src)
	env, layout, trips, err := cl.BuildEnv(Binding{
		Ints:  map[string]int64{"n": 30},
		Reals: map[string]float64{"lo2": 5.0, "hi2": 20.0},
		Fill: func(array string, idx int) ir.Scalar {
			return ir.FloatS(float64(idx))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.Run(cl.Loop, env, trips)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 30; i++ {
		want := float64(i)
		if want < 5 {
			want = 5
		}
		if want > 20 {
			want = 20
		}
		if got := res.Mem[layout.Base["y"]+int64(i)-1].F; got != want {
			t.Fatalf("y(%d) = %v, want %v", i, got, want)
		}
	}
}

// TestValueNamesMatchSprintf holds the strconv-built value and loop
// names to the fmt.Sprintf formats they replaced: canonical requests,
// and so content hashes, carry these names.
func TestValueNamesMatchSprintf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ints := []int64{0, 1, -1, 9, 10, 99, 100, -100, math.MaxInt64, math.MinInt64}
	for i := 0; i < 1000; i++ {
		ints = append(ints, rng.Int63()>>rng.Intn(63)*int64(1-2*rng.Intn(2)))
	}
	for _, v := range ints {
		for _, c := range []struct{ got, want string }{
			{intName("c", v), fmt.Sprintf("c%d", v)},
			{intName("saxpy:", v), fmt.Sprintf("%s:%d", "saxpy", v)},
			{pointerName("x", v), fmt.Sprintf("p.%s%+d", "x", v)},
			{elemAddrName("abc", v), fmt.Sprintf("addr.%s(%d)", "abc", v)},
		} {
			if c.got != c.want {
				t.Errorf("got name %q, want %q", c.got, c.want)
			}
		}
	}
	floats := []float64{0, math.Copysign(0, -1), 0.5, 1, 2.5, 1e20, 1e21, 1e-4, 1e-5, 1e-7,
		123456789, 1.5e300, 5e-324, math.MaxFloat64, 1.0 / 3}
	for i := 0; i < 1000; i++ {
		floats = append(floats, math.Float64frombits(rng.Uint64()), rng.Float64()*math.Pow(10, float64(rng.Intn(40)-20)))
	}
	for _, f := range floats {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue // a real literal is finite: ParseFloat rejects the rest
		}
		if got, want := realName(f), fmt.Sprintf("c%g", f); got != want {
			t.Errorf("realName(%v) = %q, want %q", f, got, want)
		}
	}
}

// TestStepReadingLoopValues: a DO step that reads the loop index, or an
// array through the index, used to recurse without end while the index
// or pointer recurrence was still being built — a fatal stack overflow
// that took the whole server down on one source-form request.
func TestStepReadingLoopValues(t *testing.T) {
	for _, step := range []string{"i", "m(i)", "m(i) + i"} {
		src := "      subroutine s(n, a, m)\n      real a(100)\n      integer n, i, m(100)\n" +
			"      do i = 1, n, " + step + "\n        a(i) = 1.0\n      end do\n      end\n"
		if _, _, err := Compile(src, machine.Cydra()); err != nil {
			t.Errorf("step %s: %v", step, err)
		}
	}
}

// TestPatchOrderDeterministic: carried scalars and store-forwarded
// arrays are patched in the order their placeholders were made. The
// patch passes used to range over maps, so a loop needing two anchoring
// copies lowered to a different op order from run to run (and so to a
// different content hash), and a value forwarded through two stores
// was left reading an unpatched placeholder in most runs.
func TestPatchOrderDeterministic(t *testing.T) {
	twoCopies := `
      subroutine s(n, a, q, r)
      real a(100), q, r, x, y
      integer n, i
      do i = 1, 100
        a(i) = x + y
        x = q
        y = r
      end do
      end
`
	chained := `
      subroutine s(n, a, b, c)
      real a(100), b(100), c(100)
      integer n, i
      do i = 2, 100
        a(i) = c(i) + 1.0
        b(i) = a(i-1)
        c(i) = b(i-1) + a(i-1)
      end do
      end
`
	for _, src := range []string{twoCopies, chained} {
		first := compileOne(t, src).Loop.String()
		for k := 0; k < 20; k++ {
			if got := compileOne(t, src).Loop.String(); got != first {
				t.Fatalf("lowering differs between runs:\n%s\n%s", first, got)
			}
		}
	}
	// The copies anchor x then y, in the order their carried reads
	// appear.
	body := compileOne(t, twoCopies).Loop.String()
	if fx, fy := strings.Index(body, "fin.x ="), strings.Index(body, "fin.y ="); fx < 0 || fy < fx {
		t.Errorf("want fin.x then fin.y:\n%s", body)
	}
}

// TestConstantAndAffineSubscriptsNotMerged: a(3) and a(i+3) are
// different elements. Unguarded loads were common-subexpression
// eliminated on (array, offset) alone, so the second read returned the
// first one's value.
func TestConstantAndAffineSubscriptsNotMerged(t *testing.T) {
	cl := compileOne(t, `
      subroutine s(n, a, y)
      real a(100), y(100)
      integer n, i
      do i = 1, 90
        y(i) = a(3) + a(i+3)
      end do
      end
`)
	env, layout, trips, err := cl.BuildEnv(Binding{
		Fill: func(array string, idx int) ir.Scalar { return ir.FloatS(float64(idx)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.Run(cl.Loop, env, trips)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 90; i++ {
		want := 3 + float64(i+3) // the fill makes a(k) = k
		if got := res.Mem[layout.Base["y"]+int64(i)-1].F; got != want {
			t.Fatalf("y(%d) = %v, want %v", i, got, want)
		}
	}
}

package loopgen

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/frontend"
	"repro/internal/machine"
	"repro/internal/mii"
)

func TestKernelsCompile(t *testing.T) {
	ks, err := Kernels(machine.Cydra())
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) < 20 {
		t.Fatalf("kernel corpus too small: %d", len(ks))
	}
	seen := map[string]bool{}
	for _, k := range ks {
		if k.CL.Loop == nil {
			t.Errorf("%s: no IR", k.Name)
			continue
		}
		seen[k.Name] = true
		if _, err := mii.Compute(context.Background(), k.CL.Loop); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
	}
	for _, want := range []string{"lll01_hydro", "lll05_tridiag", "lll24_argmin", "daxpy"} {
		if !seen[want] {
			t.Errorf("missing kernel %s", want)
		}
	}
}

// Every generated source must parse and lower (ineligibility is
// acceptable — Build regenerates — but a frontend error is a generator
// bug).
func TestGeneratedLoopsCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := machine.Cydra()
	ineligible := 0
	for i := 0; i < 250; i++ {
		src := Generate(rng, "g")
		_, loops, err := frontendCompile(src, m)
		if err != nil {
			t.Fatalf("generated source %d fails to compile: %v\n%s", i, err, src)
		}
		if len(loops) != 1 {
			t.Fatalf("generated source %d has %d loops\n%s", i, len(loops), src)
		}
		if loops[0].Ineligible != nil {
			ineligible++
		}
	}
	if ineligible > 25 {
		t.Errorf("%d/250 generated loops ineligible; generator wasteful", ineligible)
	}
}

func TestBuildSuite(t *testing.T) {
	s, err := Build(Options{Size: 300, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Loops) != 300 {
		t.Fatalf("suite size %d, want 300", len(s.Loops))
	}
	// Class mix sanity: most loops have neither conditionals nor
	// constraining recurrences, mirroring the paper's population (~69%
	// "Has Neither"); both other classes must be represented. A
	// recurrence "counts" when it constrains II (RecMII > 1), matching
	// the benchmark harness's classification.
	neither, cond, rec := 0, 0, 0
	for _, l := range s.Loops {
		b, err := mii.Compute(context.Background(), l.CL.Loop)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		hasC := l.CL.Loop.HasConditional
		hasR := b.RecMII > 1
		switch {
		case !hasC && !hasR:
			neither++
		case hasC && !hasR:
			cond++
		case hasR && !hasC:
			rec++
		}
	}
	if neither < 120 {
		t.Errorf("only %d/300 'neither' loops; class mix off", neither)
	}
	if cond == 0 || rec == 0 {
		t.Errorf("class mix missing conditionals (%d) or recurrences (%d)", cond, rec)
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(Options{Size: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(Options{Size: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Loops {
		if a.Loops[i].Source != b.Loops[i].Source {
			t.Fatalf("loop %d differs across identically seeded builds", i)
		}
	}
}

// frontendCompile keeps the test import surface tidy.
func frontendCompile(src string, m *machine.Desc) (any, []*clAlias, error) {
	u, loops, err := frontend.Compile(src, m)
	out := make([]*clAlias, len(loops))
	for i, l := range loops {
		out[i] = (*clAlias)(nil)
		_ = l
		out[i] = &clAlias{Ineligible: l.Ineligible}
	}
	return u, out, err
}

type clAlias struct{ Ineligible error }

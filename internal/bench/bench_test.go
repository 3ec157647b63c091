package bench

import (
	"strings"
	"testing"

	"repro/internal/loopgen"
	"repro/internal/machine"
)

func suite(t *testing.T, size int) *Suite {
	t.Helper()
	s, err := NewSuite(loopgen.Options{Size: size, Seed: 1993})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRegallocExperiment(t *testing.T) {
	s := suite(t, 60)
	rs, err := Regalloc(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 || len(rs[0].Deltas) == 0 {
		t.Fatal("no allocation data")
	}
	for _, r := range rs {
		for _, d := range r.Deltas {
			if d < 0 {
				t.Fatalf("%s: allocation below its own lower bound (Δ=%d)", r.Strategy, d)
			}
		}
	}
	if !strings.Contains(rs.String(), "first-fit") {
		t.Error("render missing strategies")
	}
}

func TestTable1Echo(t *testing.T) {
	out := Table1(machine.Cydra())
	for _, want := range []string{"MemPort", "Divider", "17", "21", "brtop"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 echo missing %q:\n%s", want, out)
		}
	}
}

// TestExperimentsHonorMachine runs table1 and iistep through the
// registry on a non-default target: both must name it, and iistep's
// sweep must run on its corpus rather than the paper machine's.
func TestExperimentsHonorMachine(t *testing.T) {
	run := func(m *machine.Desc, id string) string {
		t.Helper()
		var b strings.Builder
		e := &Env{Options: Options{Size: 40, Seed: 1993, Mach: m}, Out: &b}
		for _, x := range Experiments {
			if x.ID == id {
				if err := x.Run(e); err != nil {
					t.Fatal(err)
				}
				return b.String()
			}
		}
		t.Fatalf("no experiment %q", id)
		return ""
	}
	m, ok := machine.Lookup("cgra4")
	if !ok {
		t.Fatal("cgra4 not registered")
	}
	for _, id := range []string{"table1", "iistep"} {
		got := run(m, id)
		if !strings.Contains(got, `machine "cgra4"`) {
			t.Errorf("%s output does not name the target:\n%s", id, got)
		}
		if paper := run(nil, id); strings.Contains(paper, "cgra4") || body(got) == body(paper) {
			t.Errorf("%s on cgra4 reads like the paper machine's:\n%s\n%s", id, got, paper)
		}
	}
	if got := run(m, "table1"); !strings.Contains(got, "PE ") || strings.Contains(got, "Divider") {
		t.Errorf("table1 on cgra4 does not list its own unit classes:\n%s", got)
	}
}

// body drops an experiment's title line.
func body(out string) string {
	_, rest, _ := strings.Cut(out, "\n")
	return rest
}

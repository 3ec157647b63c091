package bench

import (
	"flag"
	"testing"

	"repro/internal/sched"
)

// TestCompileBenchAllocsIndependentOfBenchtime holds the trajectory's
// exact alloc gate to a deterministic measure: CompileBench at two
// different -benchtime settings must report identical allocs/op for
// every row, the exact backend's included. An op that compiled a
// host-speed-dependent subset of the corpus would fail this.
func TestCompileBenchAllocsIndependentOfBenchtime(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every policy, the exact backend included, over the corpus ten times")
	}
	bt := flag.Lookup("test.benchtime")
	prev := bt.Value.String()
	defer bt.Value.Set(prev)

	allocs := func(benchtime string) map[string]float64 {
		if err := bt.Value.Set(benchtime); err != nil {
			t.Fatal(err)
		}
		recs, err := CompileBench(36, 1993, sched.Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]float64{}
		for _, r := range recs {
			m[r.Name] = r.AllocsPerOp
		}
		return m
	}
	one, two := allocs("1x"), allocs("2x")
	if len(one) != len(two) {
		t.Fatalf("rows differ: %v vs %v", one, two)
	}
	for name, a := range one {
		if b, ok := two[name]; !ok || a != b {
			t.Errorf("%s: allocs/op %v at -benchtime 1x, %v at 2x", name, a, b)
		}
	}
}

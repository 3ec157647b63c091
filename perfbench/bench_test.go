package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// benchSpec is the part of BENCHMARK.json the test checks against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// deterministic reports whether a metric must repeat exactly between two
// runs with the same seed: schedule quality and the §6 effort counters.
func deterministic(name string) bool {
	switch name {
	case "ii_over_mii", "maxlive_over_bound", "regalloc.regs_over_maxlive",
		"regalloc.registers_per_loop", "regalloc.sizes_tried_per_alloc":
		return true
	}
	return strings.HasPrefix(name, "sched.") && !strings.HasSuffix(name, "_us")
}

// TestWorkloads runs every workload of BENCHMARK.json twice on a small
// corpus, untraced and traced, and checks that each run is correct with
// no failed op, prints every metric named for its mode with its unit,
// and repeats the deterministic metrics exactly.
func TestWorkloads(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			var first *result
			for i := 0; i < 2; i++ {
				cfg := config{
					workload: w.Name, seed: 7, corpusSeed: corpusSeed, size: 60,
					seconds: time.Second, trace: trace, tmp: t.TempDir(),
				}
				var log bytes.Buffer
				res, err := run(cfg, &log)
				if err != nil {
					t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
						w.Name, trace, res.Correct, res.Failed, res.Attempted, log.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.Name, trace, m.Name, got, m.Unit)
					}
					if !strings.Contains(log.String(), "  "+m.Name+" ") {
						t.Errorf("%s trace=%v: %s not printed", w.Name, trace, m.Name)
					}
					if first != nil && deterministic(m.Name) && got.Value != first.Metrics[m.Name].Value {
						t.Errorf("%s trace=%v: %s = %v, first run %v", w.Name, trace, m.Name,
							got.Value, first.Metrics[m.Name].Value)
					}
				}
				first = res
			}
		}
	}
}

// TestSpanSelfTimes checks self times on a nested span list: a span's
// self time excludes the spans nested directly inside it.
func TestSpanSelfTimes(t *testing.T) {
	sp := func(name string, start, dur time.Duration) *obs.Span {
		return &obs.Span{Name: name, Start: start, Dur: dur}
	}
	var s spanTotals
	s.add([]*obs.Span{
		sp("schedule", 0, 100),
		sp("mii", 5, 10),
		sp("mindist", 20, 10),
		sp("attempt", 30, 60),
		sp("pressure", 100, 10),
		sp("codegen", 110, 50),
		sp("regalloc", 120, 20),
		sp("regalloc", 140, 10),
		sp("store-put", 160, 5),
	})
	want := map[string]time.Duration{
		"sched.schedule_self_us": 20, "mii.us": 10, "mindist.us": 10, "sched.attempt_self_us": 60,
		"lifetime.pressure_us": 10, "codegen.self_us": 20, "regalloc.us": 30,
	}
	for k, v := range want {
		if s.self[k] != v {
			t.Errorf("%s = %v, want %v", k, s.self[k], v)
		}
	}
	if s.total() != 160 {
		t.Errorf("total %v, want 160 (store-put is not a pipeline span)", s.total())
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

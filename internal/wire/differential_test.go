package wire

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/loopgen"
)

// TestDifferentialLoopgen runs generator loops through the full wire
// path — encode → canonical JSON → parse → normalize (decode) →
// core.Compile — and asserts the schedule, II, MaxLive, and the
// deterministic effort counters match the direct compilation of the
// original loop, for both the paper's scheduler and the baseline.
func TestDifferentialLoopgen(t *testing.T) {
	size := 120
	if testing.Short() {
		size = 36
	}
	w, err := loopgen.Build(loopgen.Options{Size: size, Seed: 2026})
	if err != nil {
		t.Fatalf("building workload: %v", err)
	}
	for _, sn := range []string{"slack", "cydrome"} {
		for _, wl := range w.Loops {
			l := wl.CL.Loop
			req, err := NewRequest(l, sn, Options{})
			if err != nil {
				t.Fatalf("%s: %v", wl.Name, err)
			}
			canon, err := req.Canonical()
			if err != nil {
				t.Fatalf("%s: canonical: %v", wl.Name, err)
			}
			var parsed Request
			if err := json.Unmarshal(canon, &parsed); err != nil {
				t.Fatalf("%s: reparse: %v", wl.Name, err)
			}
			decoded, err := parsed.Lower()
			if err != nil {
				t.Fatalf("%s: lower: %v", wl.Name, err)
			}

			direct := compileAny(t, sn, wl.Name, l)
			viaWire := compileAny(t, sn, wl.Name, decoded)
			if !reflect.DeepEqual(direct, viaWire) {
				t.Errorf("%s/%s: wire path diverges:\ndirect: %+v\nwire:   %+v", sn, wl.Name, direct, viaWire)
			}
		}
	}
}

// outcome captures everything deterministic about one compilation,
// success or give-up.
type outcome struct {
	OK      bool
	II      int
	Times   []int
	MaxLive int
	MinAvg  int
	Effort  Effort
}

func compileAny(t *testing.T, scheduler, name string, l *ir.Loop) outcome {
	t.Helper()
	c, err := core.Compile(context.Background(), l, core.Options{
		Scheduler:   core.SchedulerName(scheduler),
		SkipCodegen: true,
	})
	if err != nil {
		t.Fatalf("%s/%s: %v", scheduler, name, err)
	}
	out := outcome{OK: c.OK(), II: c.Result.II(), Effort: EffortOf(c.Result.Stats)}
	if c.OK() {
		out.Times = c.Result.Schedule.Time
		out.MaxLive = c.RR.MaxLive
		out.MinAvg = c.MinAvg
	}
	return out
}

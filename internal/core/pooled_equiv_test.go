package core

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/ir"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/wire"
)

// TestPooledEquivalence is the correctness bar of the arena work: over
// the full generator corpus and every registered policy, a compilation
// on pooled (dirty, reused) scratch must be bit-identical to one on
// virgin memory — same schedule, same pressure numbers, same effort
// counters, same serialized wire result. The pooled compiles run
// sequentially, so each one inherits arena state ratcheted and dirtied
// by a different loop; a fresh sched.NewArena per compile then rebuilds
// every result from fresh allocations for comparison.
func TestPooledEquivalence(t *testing.T) {
	size := 120
	if testing.Short() {
		size = 36
	}
	testPooledEquivalence(t, loopgen.Options{Size: size, Seed: 424})
}

// TestPooledEquivalenceCGRA runs the same differential on the cgra4
// target: its FU-kind table is a different size and shape than the
// paper family's, so pooled arenas handed from a cydra compile to a
// cgra4 compile (and vice versa, as the pool is shared) must resize
// their per-kind scratch rather than reuse stale widths.
func TestPooledEquivalenceCGRA(t *testing.T) {
	size := 60
	if testing.Short() {
		size = 24
	}
	m, ok := machine.Lookup("cgra4")
	if !ok {
		t.Fatal("cgra4 is not registered")
	}
	testPooledEquivalence(t, loopgen.Options{Size: size, Seed: 424, Mach: m})
}

func testPooledEquivalence(t *testing.T, opts loopgen.Options) {
	w, err := loopgen.Build(opts)
	if err != nil {
		t.Fatalf("building workload: %v", err)
	}
	for _, name := range Schedulers() {
		for _, wl := range w.Loops {
			pooled := compileResultHash(t, name, wl.Name, wl.CL.Loop, sched.Config{})
			fresh := sched.NewArena()
			virgin := compileResultHash(t, name, wl.Name, wl.CL.Loop, sched.Config{Arena: fresh})
			fresh.Release()
			if pooled != virgin {
				t.Errorf("%s/%s: pooled result diverges from no-pool result: %s vs %s",
					name, wl.Name, pooled, virgin)
			}
		}
	}
}

// compileResultHash compiles the loop and hashes the serialized wire
// form of every deterministic output a server response carries:
// feasibility, II, the full schedule, the pressure and bound numbers,
// and the effort counters.
func compileResultHash(t *testing.T, name SchedulerName, loopName string, l *ir.Loop, cfg sched.Config) string {
	t.Helper()
	c, err := Compile(context.Background(), l, Options{Scheduler: name, Config: cfg, SkipCodegen: true})
	if err != nil {
		t.Fatalf("%s/%s: %v", name, loopName, err)
	}
	b := c.Result.Bounds
	resp := wire.Response{
		Loop:      loopName,
		Scheduler: string(name),
		OK:        c.OK(),
		Bounds:    wire.Bounds{ResMII: b.ResMII, RecMII: b.RecMII, MII: b.MII},
		Effort:    wire.EffortOf(c.Result.Stats),
	}
	if c.OK() {
		s := c.Result.Schedule
		resp.II = s.II
		resp.Length = s.Length()
		resp.Stages = s.Stages()
		resp.Times = s.Time
		resp.MaxLive = c.RR.MaxLive
		resp.MinAvg = c.MinAvg
		resp.ICR = c.ICR
		resp.GPRs = c.GPRs
	}
	body, err := json.Marshal(&resp)
	if err != nil {
		t.Fatalf("%s/%s: %v", name, loopName, err)
	}
	return fmt.Sprintf("sha256:%x", sha256.Sum256(body))
}

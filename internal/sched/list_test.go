package sched

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/loopgen"
	"repro/internal/machine"
)

// List keeps its own II policy — MII first, then +1 — so a caller's
// StartII and 4% step change nothing: not the schedule, not the
// counters, not one event, and the attempted IIs run MII, MII+1, …. The seed-1993 corpus holds a loop
// (lll20_ordinates) that fails the list scheduler at II ≥ 50 on several
// targets, where the two steps part.
func TestListKeepsItsIIPolicy(t *testing.T) {
	for _, m := range machine.Machines() {
		w, err := loopgen.Build(loopgen.Options{Size: 48, Seed: 1993, Mach: m})
		if err != nil {
			t.Fatal(err)
		}
		for _, wl := range w.Loops {
			l, name := wl.CL.Loop, m.Name+"/"+wl.Name
			var plain, tuned recorder
			want, err := List(Config{Observer: &plain}).Schedule(context.Background(), l)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := List(Config{StartII: want.Bounds.MII + 7, Observer: &tuned}).Schedule(context.Background(), l)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want.Stats.Elapsed, got.Stats.Elapsed = 0, 0
			if want.II() != got.II() || want.FailedII != got.FailedII || want.Stats != got.Stats ||
				!reflect.DeepEqual(want.Schedule.Time, got.Schedule.Time) {
				t.Fatalf("%s: StartII/step changed the list result: II %d vs %d, stats %+v vs %+v",
					name, want.II(), got.II(), want.Stats, got.Stats)
			}
			if !reflect.DeepEqual(plain.events, tuned.events) {
				t.Fatalf("%s: StartII/step changed the list event stream", name)
			}
			ii := want.Bounds.MII
			for _, e := range plain.events {
				if e.Kind != EvAttemptStart {
					continue
				}
				if e.II != ii {
					t.Fatalf("%s: list attempted II %d, want %d (MII %d, then +1)", name, e.II, ii, want.Bounds.MII)
				}
				ii++
			}
		}
	}
}

// A list attempt that fails is no step-6 restart: Stats.Restarts (and
// so the wire "restarts" field) stays 0, while the event stream still
// closes the failed II with an EvRestart.
func TestListCountsNoRestarts(t *testing.T) {
	stepped := 0
	for _, wl := range boundsLoops(t) {
		var rec recorder
		res, err := List(Config{Observer: &rec}).Schedule(context.Background(), wl.CL.Loop)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if res.Stats.Restarts != 0 {
			t.Fatalf("%s: list counted %d restarts", wl.Name, res.Stats.Restarts)
		}
		restarts := 0
		for _, e := range rec.events {
			if e.Kind == EvRestart {
				restarts++
			}
		}
		if want := res.Stats.IIAttempts - 1; restarts != want {
			t.Fatalf("%s: %d EvRestart events for %d failed IIs", wl.Name, restarts, want)
		}
		if restarts > 0 {
			stepped++
		}
	}
	if stepped == 0 {
		t.Fatal("no loop made the list scheduler fail an II")
	}
}

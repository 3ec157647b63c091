package sched

import (
	"context"
	"testing"

	"repro/internal/fixture"
	"repro/internal/machine"
)

// TestArenaReleaseRetainsNoRequestData holds the pool-hygiene
// invariant: after Release, a pooled arena keeps only pointer-free
// backing capacity — no loop, no MinDist tables bound to it, no MRT
// binding, no observer — so the sync.Pool never pins one request's data
// into the next request's working set.
func TestArenaReleaseRetainsNoRequestData(t *testing.T) {
	l := fixture.Divide(machine.Cydra())
	a := AcquireArena()
	cfg := Config{Arena: a}
	if _, err := Slack(cfg).Schedule(context.Background(), l); err != nil {
		t.Fatal(err)
	}
	if a.preparedFor != l {
		t.Fatalf("arena never bound to the loop it compiled")
	}
	inUse0, rec0 := ArenaStats()
	a.Release()
	inUse1, rec1 := ArenaStats()
	if inUse1 != inUse0-1 {
		t.Errorf("in-use gauge: %d -> %d, want a decrement", inUse0, inUse1)
	}
	if rec1 != rec0+1 {
		t.Errorf("recycled counter: %d -> %d, want an increment", rec0, rec1)
	}
	if a.held {
		t.Error("arena still held after Release")
	}
	if a.preparedFor != nil {
		t.Error("arena retains the compiled loop")
	}
	st := &a.st
	if st.L != nil || st.MD != nil || st.mrt != nil || st.obs != nil {
		t.Errorf("attempt state retains request refs: L=%v MD=%v mrt=%v obs=%v",
			st.L != nil, st.MD != nil, st.mrt != nil, st.obs != nil)
	}
	if st.evt != (Event{}) {
		t.Errorf("attempt state retains the event template: %+v", st.evt)
	}

	// Double release is a no-op: the gauges must not drift.
	a.Release()
	inUse2, rec2 := ArenaStats()
	if inUse2 != inUse1 || rec2 != rec1 {
		t.Errorf("double release moved the stats: inuse %d->%d recycled %d->%d",
			inUse1, inUse2, rec1, rec2)
	}
}

// TestArenaPoolRoundTrip proves a released arena really is reused and
// that reuse is invisible to the caller: two schedules of different
// loops through the same recycled arena match schedules on fresh
// arenas.
func TestArenaPoolRoundTrip(t *testing.T) {
	m := machine.Cydra()
	loops := fixture.All(m)
	for _, l := range loops {
		a := AcquireArena()
		got, err := Slack(Config{Arena: a}).Schedule(context.Background(), l)
		a.Release()
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		fresh := NewArena()
		want, err := Slack(Config{Arena: fresh}).Schedule(context.Background(), l)
		fresh.Release()
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if got.II() != want.II() {
			t.Errorf("%s: pooled II %d, fresh II %d", l.Name, got.II(), want.II())
		}
		for i, tm := range want.Schedule.Time {
			if got.Schedule.Time[i] != tm {
				t.Errorf("%s: op %d at %d via pool, %d fresh", l.Name, i, got.Schedule.Time[i], tm)
			}
		}
	}
}

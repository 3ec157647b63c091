package sched

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/fixture"
	"repro/internal/machine"
	"repro/internal/obs"
)

// Golden reconstruction: the TextObserver rendering of a run must be
// byte-identical whether it watched the run live or replayed the run's
// flight-recorder tail. This is the property that makes the flight
// recorder a debugging tool rather than a summary — what it replays is
// what happened.
func TestTextTraceReconstructedFromTailByteIdentical(t *testing.T) {
	m := machine.Cydra()
	// tinyEject makes divide backtrack, covering "forced" lines; the
	// other fixtures cover the plain "chose" lines.
	for _, cfg := range []Config{{}, {EjectBudgetPerOp: 1, MinEjectBudget: 1}} {
		for _, l := range fixture.All(m) {
			var live bytes.Buffer
			tail := NewTailRecorder(1 << 16) // lossless for these runs
			c := cfg
			c.Observer = Tee(TextObserver(&live), tail)
			if _, err := Slack(c).Schedule(context.Background(), l); err != nil {
				t.Fatal(err)
			}
			if tail.Dropped() != 0 {
				t.Fatalf("%s: tail lossy (%d dropped); the golden test needs the whole stream", l.Name, tail.Dropped())
			}

			// Round-trip through the flight-recorder representation.
			tr := obs.NewTrace("req", l.Name)
			tail.AttachTail(tr)
			events := EventsFromTail(tr.Tail)
			var replayed bytes.Buffer
			Replay(events, TextObserver(&replayed))

			if live.Len() == 0 {
				t.Fatalf("%s: live trace produced nothing", l.Name)
			}
			if !bytes.Equal(live.Bytes(), replayed.Bytes()) {
				t.Fatalf("%s: replayed trace differs from live trace\nlive:\n%s\nreplayed:\n%s",
					l.Name, live.String(), replayed.String())
			}
		}
	}
}

// The ring keeps exactly the last N events, oldest-first, and accounts
// for what fell off the front.
func TestTailRecorderRing(t *testing.T) {
	full := &recorder{}
	ring := NewTailRecorder(32)
	l := fixture.Divide(machine.Cydra())
	cfg := tinyEject
	cfg.Observer = Tee(full, ring)
	if _, err := Slack(cfg).Schedule(context.Background(), l); err != nil {
		t.Fatal(err)
	}
	if len(full.events) <= 32 {
		t.Fatalf("run emitted only %d events; the ring test needs an overflow", len(full.events))
	}
	tail := ring.Tail()
	if len(tail) != 32 {
		t.Fatalf("tail holds %d events, want 32", len(tail))
	}
	if ring.Total() != len(full.events) {
		t.Fatalf("Total = %d, want %d", ring.Total(), len(full.events))
	}
	if ring.Dropped() != len(full.events)-32 {
		t.Fatalf("Dropped = %d, want %d", ring.Dropped(), len(full.events)-32)
	}
	if !reflect.DeepEqual(tail, full.events[len(full.events)-32:]) {
		t.Fatal("tail is not the last 32 events of the stream")
	}
}

// AttachTail on a nil trace is a no-op; EventsFromTail skips foreign
// values (a dump written by a different build, say).
func TestTailAttachEdgeCases(t *testing.T) {
	ring := NewTailRecorder(4)
	ring.Event(Event{Kind: EvPlace, Op: 1})
	ring.AttachTail(nil) // must not panic

	tr := obs.NewTrace("r", "l")
	ring.AttachTail(tr)
	if len(tr.Tail) != 1 || tr.TailDropped != 0 {
		t.Fatalf("tail = %d events dropped %d, want 1 and 0", len(tr.Tail), tr.TailDropped)
	}
	tr.Tail = append(tr.Tail, "not-an-event", 42)
	events := EventsFromTail(tr.Tail)
	if len(events) != 1 || events[0].Op != 1 {
		t.Fatalf("EventsFromTail = %+v, want the one real event", events)
	}
}

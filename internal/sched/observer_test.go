package sched

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fixture"
	"repro/internal/ir"
	"repro/internal/machine"
)

// recorder captures the typed event stream of one run.
type recorder struct {
	events []Event
}

func (r *recorder) Event(e Event) { r.events = append(r.events, e) }

// observedSchedulers runs every policy through its context entry point
// with the given config.
func observedSchedulers(cfg Config) map[string]func(*ir.Loop) (*Result, error) {
	return map[string]func(*ir.Loop) (*Result, error){
		"slack":    func(l *ir.Loop) (*Result, error) { return Slack(cfg).Schedule(context.Background(), l) },
		"slack-1d": func(l *ir.Loop) (*Result, error) { return SlackUnidirectional(cfg).Schedule(context.Background(), l) },
		"cydrome":  func(l *ir.Loop) (*Result, error) { return Cydrome(cfg).Schedule(context.Background(), l) },
		"list":     func(l *ir.Loop) (*Result, error) { return List(cfg).Schedule(context.Background(), l) },
	}
}

// The event stream of a (loop, policy, Config) triple is part of the
// observer contract: two runs must produce identical streams.
func TestEventStreamDeterministic(t *testing.T) {
	m := machine.Cydra()
	for _, l := range fixture.All(m) {
		var streams [][]Event
		for rep := 0; rep < 2; rep++ {
			rec := &recorder{}
			res, err := Slack(Config{Observer: rec}).Schedule(context.Background(), l)
			if err != nil || !res.OK() {
				t.Fatalf("%s: %v", l.Name, err)
			}
			streams = append(streams, rec.events)
		}
		if !reflect.DeepEqual(streams[0], streams[1]) {
			t.Fatalf("%s: event stream differs between identical runs", l.Name)
		}
		if len(streams[0]) == 0 {
			t.Fatalf("%s: no events observed", l.Name)
		}
	}
}

// Every policy emits a well-formed stream: attempts bracketed by
// AttemptStart/AttemptEnd, the last attempt successful, loop and policy
// stamped on every event.
func TestEventStreamWellFormed(t *testing.T) {
	m := machine.Cydra()
	for _, name := range []string{"slack", "slack-1d", "cydrome", "list"} {
		for _, l := range fixture.All(m) {
			rec := &recorder{}
			res, err := observedSchedulers(Config{Observer: rec})[name](l)
			if err != nil || !res.OK() {
				t.Fatalf("%s/%s: %v", name, l.Name, err)
			}
			depth := 0
			var last Event
			for _, e := range rec.events {
				if e.Loop != l.Name {
					t.Fatalf("%s/%s: event stamped with loop %q", name, l.Name, e.Loop)
				}
				switch e.Kind {
				case EvAttemptStart:
					if depth != 0 {
						t.Fatalf("%s/%s: nested attempt", name, l.Name)
					}
					depth++
				case EvAttemptEnd:
					if depth != 1 {
						t.Fatalf("%s/%s: unbalanced attempt end", name, l.Name)
					}
					depth--
				case EvPlace, EvForce, EvEject, EvRestart:
					if depth != 1 && e.Kind != EvRestart {
						t.Fatalf("%s/%s: %s outside an attempt", name, l.Name, e.Kind)
					}
				}
				last = e
			}
			if depth != 0 {
				t.Fatalf("%s/%s: attempt left open", name, l.Name)
			}
			if last.Kind != EvAttemptEnd || !last.OK {
				t.Fatalf("%s/%s: stream does not end with a successful attempt (last %s)", name, l.Name, last.Kind)
			}
		}
	}
}

// TextObserver renders the -trace text byte-for-byte as the retired
// Config.Trace hook did. testdata/text_trace.golden was produced by that
// hook over every fixture, under the default configuration and under a
// one-ejection budget that makes divide backtrack hard (covering the
// "forced" lines as well as the "chose" lines).
func TestTextObserverGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/text_trace.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"default", Config{}}, {"eject-budget-1", Config{EjectBudgetPerOp: 1, MinEjectBudget: 1}}} {
		for _, l := range fixture.All(machine.Cydra()) {
			fmt.Fprintf(&got, "== %s %s\n", c.name, l.Name)
			cfg := c.cfg
			cfg.Observer = TextObserver(&got)
			if _, err := Slack(cfg).Schedule(context.Background(), l); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("TextObserver output differs from testdata/text_trace.golden\ngot:\n%s", got.String())
	}
}

// Concurrent runs with per-run observers see the same stream a serial
// run does — the bench harness's determinism requirement.
func TestEventStreamIdenticalUnderConcurrency(t *testing.T) {
	m := machine.Cydra()
	loops := fixture.All(m)
	serial := make([][]Event, len(loops))
	for i, l := range loops {
		rec := &recorder{}
		if _, err := Slack(Config{Observer: rec}).Schedule(context.Background(), l); err != nil {
			t.Fatal(err)
		}
		serial[i] = rec.events
	}
	concurrent := make([][]Event, len(loops))
	var wg sync.WaitGroup
	for i, l := range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := &recorder{}
			if _, err := Slack(Config{Observer: rec}).Schedule(context.Background(), l); err != nil {
				t.Error(err)
				return
			}
			concurrent[i] = rec.events
		}()
	}
	wg.Wait()
	for i := range loops {
		if !reflect.DeepEqual(serial[i], concurrent[i]) {
			t.Fatalf("%s: concurrent event stream differs from serial", loops[i].Name)
		}
	}
}

// Metrics observers fed per-loop and merged in loop order must agree
// with one observer watching a serial sweep.
func TestMetricsMergeMatchesSerial(t *testing.T) {
	m := machine.Cydra()
	loops := fixture.All(m)
	whole := &Metrics{}
	for _, l := range loops {
		if _, err := Slack(Config{Observer: whole}).Schedule(context.Background(), l); err != nil {
			t.Fatal(err)
		}
	}
	merged := &Metrics{}
	for _, l := range loops {
		per := &Metrics{}
		if _, err := Slack(Config{Observer: per}).Schedule(context.Background(), l); err != nil {
			t.Fatal(err)
		}
		merged.Merge(per)
	}
	if !reflect.DeepEqual(whole, merged) {
		t.Fatalf("merged metrics differ from serial aggregate:\nserial %+v\nmerged %+v", whole, merged)
	}
	if merged.Events[EvAttemptStart] == 0 || merged.Events[EvPlace] == 0 {
		t.Fatalf("metrics did not count anything: %+v", merged)
	}
}

// The outcome dimension survives Merge and always reconciles with the
// attempt-start events and with one successful attempt per loop — the
// dimension is additive, never an alternative count. (Mid-attempt exhaustion and cancellation
// specifics are covered in outcome_test.go.)
func TestMetricsOutcomeDimension(t *testing.T) {
	loops := fixture.All(machine.Cydra())
	merged := &Metrics{}
	for _, l := range loops {
		per := &Metrics{}
		cfg := tinyEject
		cfg.Observer = per
		if _, err := Slack(cfg).Schedule(context.Background(), l); err != nil {
			t.Fatal(err)
		}
		merged.Merge(per)
	}
	var total int64
	for _, n := range merged.AttemptOutcomes {
		total += n
	}
	if total != merged.Events[EvAttemptStart] {
		t.Fatalf("outcome total %d != attempts %d", total, merged.Events[EvAttemptStart])
	}
	if merged.AttemptOutcomes[AttemptOK] != int64(len(loops)) {
		t.Fatalf("ok outcomes %d, want one per loop (%d)", merged.AttemptOutcomes[AttemptOK], len(loops))
	}
	counts := merged.OutcomeCounts()
	if counts[AttemptCentralIters.String()] != 0 || counts[AttemptCanceled.String()] != 0 {
		t.Fatalf("unbudgeted, uncancelled sweep filed budget/cancel outcomes: %v", counts)
	}
	if counts[AttemptGiveUp.String()] == 0 {
		t.Fatalf("tinyEject sweep recorded no give-ups: %v", counts)
	}
}

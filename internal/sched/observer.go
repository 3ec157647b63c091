package sched

import (
	"fmt"
	"io"

	"repro/internal/obs"
)

// AttemptOutcome classifies how one II attempt ended; it is stamped on
// EvAttemptEnd events so aggregations can tell a heuristic give-up from
// a budget exhaustion, and a budget exhaustion from a cancellation.
type AttemptOutcome uint8

// The attempt outcomes.
const (
	// AttemptOK: the attempt produced a complete schedule.
	AttemptOK AttemptOutcome = iota
	// AttemptGiveUp: the ejection budget or iteration cap tripped and
	// the scheduler moves to a higher II (step 6).
	AttemptGiveUp
	// AttemptDeadline: the Budget's wall-clock deadline expired.
	AttemptDeadline
	// AttemptCentralIters: the Budget's central-iteration cap tripped.
	AttemptCentralIters
	// AttemptIIAttempts: the Budget's II-attempt cap tripped.
	AttemptIIAttempts
	// AttemptCanceled: the caller's context was canceled.
	AttemptCanceled

	numAttemptOutcomes // count; keep last
)

// String returns the outcome's stable wire name.
func (o AttemptOutcome) String() string {
	switch o {
	case AttemptOK:
		return "ok"
	case AttemptGiveUp:
		return "give-up"
	case AttemptDeadline:
		return ReasonDeadline
	case AttemptCentralIters:
		return ReasonCentralIters
	case AttemptIIAttempts:
		return ReasonIIAttempts
	case AttemptCanceled:
		return ReasonCanceled
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// MarshalJSON renders the wire name, keeping flight-recorder dumps and
// metrics JSON readable.
func (o AttemptOutcome) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", o.String())), nil
}

// AttemptOutcomeOf folds an attempt's (ok, stopReason) pair into the
// typed outcome: the engine's, the list pass's and the exact search's
// attempts all end through it.
func AttemptOutcomeOf(ok bool, stopReason string) AttemptOutcome {
	switch stopReason {
	case "":
		if ok {
			return AttemptOK
		}
		return AttemptGiveUp
	case ReasonDeadline:
		return AttemptDeadline
	case ReasonCentralIters:
		return AttemptCentralIters
	case ReasonIIAttempts:
		return AttemptIIAttempts
	case ReasonCanceled:
		return AttemptCanceled
	}
	return AttemptGiveUp
}

// EventKind enumerates the structured events of one scheduling run. The
// stream for a given (loop, policy, Config) is deterministic: the
// scheduler itself is deterministic, so two runs — serial or inside a
// parallel sweep — produce byte-identical streams.
type EventKind uint8

// The event kinds, in the order the central loop can emit them.
const (
	// EvAttemptStart opens one II attempt (Event.II is the II tried).
	EvAttemptStart EventKind = iota
	// EvPlace reports step 1-2 of the central loop: an operation was
	// chosen and its issue window scanned. Event.Cycle is the
	// conflict-free cycle found, or ir.Unplaced when the scan failed
	// (an EvForce follows if ejection succeeds).
	EvPlace
	// EvForce reports step 3: the operation was forced into Event.Cycle
	// after ejecting its conflicts (the EvEject events precede it).
	EvForce
	// EvEject reports one operation leaving the partial schedule;
	// Event.Cycle is the cycle it was ejected from.
	EvEject
	// EvRestart reports step 6: the attempt's ejection budget was
	// exhausted and the scheduler moves to a higher II.
	EvRestart
	// EvAttemptEnd closes one II attempt; Event.OK reports success.
	EvAttemptEnd
	// EvDegraded reports that a budget-exhausted compilation fell back
	// to the no-backtracking list scheduler (core.Options.Degrade).
	EvDegraded

	numEventKinds // count; keep last
)

// String returns the kind's stable wire name.
func (k EventKind) String() string {
	switch k {
	case EvAttemptStart:
		return "attempt-start"
	case EvPlace:
		return "place"
	case EvForce:
		return "force"
	case EvEject:
		return "eject"
	case EvRestart:
		return "restart"
	case EvAttemptEnd:
		return "attempt-end"
	case EvDegraded:
		return "degraded"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// MarshalJSON renders the wire name, so flight-recorder dumps carry
// "place"/"force"/… instead of bare ordinals.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", k.String())), nil
}

// Event is one typed observation from a scheduling run. Loop, Policy and
// II identify the attempt; the remaining fields are meaningful per kind
// (see the EventKind constants).
type Event struct {
	Kind   EventKind
	Loop   string
	Policy string
	II     int

	Iter           int  // central-loop iteration within the attempt (EvPlace, EvForce)
	Op             int  // operation index, or StopIndex; -1 when not applicable
	Cycle          int  // issue cycle (EvPlace, EvForce, EvEject); ir.Unplaced for a failed scan
	Estart, Lstart int  // the op's bounds when chosen (EvPlace)
	Ejections      int  // ejections charged so far in this attempt (EvForce, EvEject, EvRestart, EvAttemptEnd)
	OK             bool // EvAttemptEnd: the attempt produced a complete schedule

	// Outcome classifies EvAttemptEnd beyond the OK bit: a heuristic
	// give-up (restart at higher II), a budget exhaustion (and which
	// bound), or a cancellation. AttemptOK iff OK.
	Outcome AttemptOutcome
}

// Observer receives the typed event stream of a scheduling run. The
// scheduler calls Event synchronously from its own goroutine; an
// observer shared across concurrent Schedule calls must synchronize
// itself (the bench harness instead uses one observer per loop and
// merges deterministically).
type Observer interface {
	Event(Event)
}

// Tee returns an Observer that forwards every event to a, then to b.
// Chain calls for a wider fan-out.
func Tee(a, b Observer) Observer { return tee{a, b} }

type tee struct{ a, b Observer }

func (t tee) Event(e Event) {
	t.a.Event(e)
	t.b.Event(e)
}

// spanObserver derives a trace's "attempt" spans from the event
// stream: EvAttemptStart opens one carrying the II and policy, each
// EvPlace counts one central-loop iteration, and EvAttemptEnd closes it
// with the attempt's ejections and outcome. Every event is then
// forwarded to next, the caller's Config.Observer, when one is set. It
// lives in the Arena, so a traced compile allocates nothing for it.
type spanObserver struct {
	tr    *obs.Trace
	next  Observer
	sp    *obs.Span
	iters int64
}

func (o *spanObserver) Event(e Event) {
	switch e.Kind {
	case EvAttemptStart:
		o.sp = o.tr.Start("attempt").Int("ii", int64(e.II)).Str("policy", e.Policy)
		o.iters = 0
	case EvPlace:
		o.iters++
	case EvAttemptEnd:
		o.sp.Int("iters", o.iters).Int("ejections", int64(e.Ejections)).End(e.Outcome.String())
		o.sp = nil
	}
	if o.next != nil {
		o.next.Event(e)
	}
}

// sink returns the observer one scheduling run emits to: the arena's
// span adapter when the context carries a trace (forwarding to cfg),
// else cfg itself — nil for an unobserved run.
func (a *Arena) sink(tr *obs.Trace, cfg Observer) Observer {
	if tr == nil {
		return cfg
	}
	a.spans = spanObserver{tr: tr, next: cfg}
	return &a.spans
}

// textObserver renders events in the -trace text format.
type textObserver struct {
	w io.Writer
}

// TextObserver returns an Observer that renders the event stream as the
// -trace text: one "iter N: chose opX ..." line per EvPlace, one
// "  forced opX at C ..." line per EvForce, and one line per
// EvDegraded. Other kinds render nothing.
func TextObserver(w io.Writer) Observer { return textObserver{w} }

func (t textObserver) Event(e Event) {
	switch e.Kind {
	case EvPlace:
		fmt.Fprintf(t.w, "iter %d: chose op%d estart=%d lstart=%d free=%d\n",
			e.Iter, e.Op, e.Estart, e.Lstart, e.Cycle)
	case EvForce:
		fmt.Fprintf(t.w, "  forced op%d at %d (ejections now %d)\n",
			e.Op, e.Cycle, e.Ejections)
	case EvDegraded:
		fmt.Fprintf(t.w, "degraded: %s budget exhausted at II=%d, falling back to list scheduling\n",
			e.Policy, e.II)
	}
}

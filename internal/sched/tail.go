package sched

import "repro/internal/obs"

// DefaultTailEvents is TailRecorder's default capacity: enough to hold
// the whole stream of a typical loop and the interesting end of a
// pathological one.
const DefaultTailEvents = 256

// TailRecorder is an Observer that keeps the last N events of a run in
// a ring buffer — the raw material of a flight-recorder entry. Append
// is an index increment and a struct store; no locking (one recorder
// per run, the Observer contract).
//
// The tail is lossless for runs shorter than the capacity, which is
// what makes flight-recorder replay exact: TextObserver over Tail()
// reproduces the trace of the original run byte for byte (a golden
// test holds this).
type TailRecorder struct {
	buf     []Event
	next    int
	total   int
	wrapped bool
}

// NewTailRecorder returns a recorder keeping the last max events
// (DefaultTailEvents when max <= 0).
func NewTailRecorder(max int) *TailRecorder {
	if max <= 0 {
		max = DefaultTailEvents
	}
	return &TailRecorder{buf: make([]Event, max)}
}

// Event implements Observer.
func (t *TailRecorder) Event(e Event) {
	t.buf[t.next] = e
	t.next++
	t.total++
	if t.next == len(t.buf) {
		t.next = 0
		t.wrapped = true
	}
}

// Tail returns the retained events oldest-first (a copy).
func (t *TailRecorder) Tail() []Event {
	if !t.wrapped {
		return append([]Event(nil), t.buf[:t.next]...)
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	return append(out, t.buf[:t.next]...)
}

// Reset clears the recorder for a new run, keeping the ring's storage
// but zeroing the retained events — a pooled recorder must not carry
// one request's loop and policy names into the next request's pool
// slot.
func (t *TailRecorder) Reset() {
	used := t.buf[:t.next]
	if t.wrapped {
		used = t.buf
	}
	for i := range used {
		used[i] = Event{}
	}
	t.next, t.total, t.wrapped = 0, 0, false
}

// Dropped reports how many events fell off the front of the ring.
func (t *TailRecorder) Dropped() int {
	if !t.wrapped {
		return 0
	}
	return t.total - len(t.buf)
}

// Total reports how many events the run emitted.
func (t *TailRecorder) Total() int { return t.total }

// AttachTail copies the retained events onto an obs.Trace — the flight
// recorder's retention rule is that failed and degraded compiles carry
// their event tail; callers invoke this only on those outcomes.
// Nil-safe on the trace.
func (t *TailRecorder) AttachTail(tr *obs.Trace) {
	if tr == nil || t == nil {
		return
	}
	tail := t.Tail()
	tr.Tail = make([]any, len(tail))
	for i := range tail {
		tr.Tail[i] = tail[i]
	}
	tr.TailDropped = t.Dropped()
}

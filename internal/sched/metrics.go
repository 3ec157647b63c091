package sched

// Metrics is an aggregating Observer: it folds the typed event stream
// into counters and small histograms that merge deterministically —
// counts depend only on the (loop, policy, Config) triples observed,
// never on timing or worker interleaving, so a parallel sweep that
// gives each loop its own Metrics and merges them in loop order
// reproduces the serial aggregate exactly.
//
// A Metrics value is not safe for concurrent use; give each concurrent
// Schedule call its own and Merge afterwards.
type Metrics struct {
	// Events counts every event by kind, indexed by EventKind.
	Events [numEventKinds]int64 `json:"-"`

	// AttemptOutcomes counts finished attempts by AttemptOutcome — the
	// dimension the flat OK bit loses: a budget-exhausted attempt
	// (deadline, central-iteration or II-attempt cap) is distinguishable
	// from a cancelled one and from an ordinary heuristic give-up.
	// Indexed by AttemptOutcome; see OutcomeCounts for the named view.
	AttemptOutcomes [numAttemptOutcomes]int64 `json:"-"`

	// ScanFailures counts EvPlace events whose window scan found no
	// conflict-free cycle (each is followed by a force or a give-up).
	ScanFailures int64 `json:"scan_failures"`

	// EjectionsPerAttempt histograms the ejection count of each
	// finished attempt into power-of-two buckets: bucket b counts
	// attempts with ejections in [2^(b-1), 2^b), bucket 0 counts
	// ejection-free attempts.
	EjectionsPerAttempt [16]int64 `json:"ejections_per_attempt"`
}

// Event implements Observer.
func (m *Metrics) Event(e Event) {
	if int(e.Kind) < len(m.Events) {
		m.Events[e.Kind]++
	}
	switch e.Kind {
	case EvPlace:
		if e.Cycle < 0 {
			m.ScanFailures++
		}
	case EvAttemptEnd:
		if int(e.Outcome) < len(m.AttemptOutcomes) {
			m.AttemptOutcomes[e.Outcome]++
		}
		m.EjectionsPerAttempt[histBucket(e.Ejections)]++
	}
}

// histBucket maps a count to its power-of-two bucket, saturating at the
// last bucket.
func histBucket(n int) int {
	b := 0
	for n > 0 {
		b++
		n >>= 1
	}
	if b >= 16 {
		b = 15
	}
	return b
}

// Merge folds other into m. Merging per-loop metrics in loop order is
// deterministic regardless of how the loops were scheduled across
// workers.
func (m *Metrics) Merge(other *Metrics) {
	if other == nil {
		return
	}
	for i := range m.Events {
		m.Events[i] += other.Events[i]
	}
	for i := range m.AttemptOutcomes {
		m.AttemptOutcomes[i] += other.AttemptOutcomes[i]
	}
	m.ScanFailures += other.ScanFailures
	for i := range m.EjectionsPerAttempt {
		m.EjectionsPerAttempt[i] += other.EjectionsPerAttempt[i]
	}
}

// EventCounts returns the per-kind counters keyed by the kind's stable
// wire name (for JSON emission).
func (m *Metrics) EventCounts() map[string]int64 {
	out := make(map[string]int64, numEventKinds)
	for k := EventKind(0); k < numEventKinds; k++ {
		out[k.String()] = m.Events[k]
	}
	return out
}

// OutcomeCounts returns the finished-attempt counters keyed by the
// outcome's stable wire name (for JSON and Prometheus emission).
func (m *Metrics) OutcomeCounts() map[string]int64 {
	out := make(map[string]int64, numAttemptOutcomes)
	for o := AttemptOutcome(0); o < numAttemptOutcomes; o++ {
		out[o.String()] = m.AttemptOutcomes[o]
	}
	return out
}

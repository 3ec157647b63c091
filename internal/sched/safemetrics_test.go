package sched

import (
	"context"
	"sync"
	"testing"

	"repro/internal/fixture"
	"repro/internal/machine"
)

// TestSafeMetricsConcurrentStreams is the -race regression test for
// the server's shared-observer pattern: many concurrent scheduling
// runs feed one SafeMetrics. Totals must equal the sum of independent
// per-run Metrics, and the race detector must stay quiet.
func TestSafeMetricsConcurrentStreams(t *testing.T) {
	m := machine.Cydra()
	loops := fixture.All(m)

	// Reference: one quiet Metrics per (loop, policy) run, merged.
	want := &Metrics{}
	for _, l := range loops {
		mm := &Metrics{}
		if _, err := Slack(Config{Observer: mm}).Schedule(context.Background(), l); err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		want.Merge(mm)
	}

	const replicas = 8
	shared := &SafeMetrics{}
	var wg sync.WaitGroup
	for r := 0; r < replicas; r++ {
		for _, l := range loops {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := Slack(Config{Observer: shared}).Schedule(context.Background(), l); err != nil {
					t.Errorf("%s: %v", l.Name, err)
				}
			}()
		}
	}
	// Concurrent snapshots while events stream in must be safe too.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = shared.Snapshot()
		}
	}()
	wg.Wait()
	<-done

	got := shared.Snapshot()
	for k := EventKind(0); k < numEventKinds; k++ {
		if got.Events[k] != replicas*want.Events[k] {
			t.Errorf("event %v: got %d, want %d", k, got.Events[k], replicas*want.Events[k])
		}
	}
	if got.Attempts != replicas*want.Attempts || got.AttemptsOK != replicas*want.AttemptsOK {
		t.Errorf("attempts: got %d/%d, want %d/%d",
			got.Attempts, got.AttemptsOK, replicas*want.Attempts, replicas*want.AttemptsOK)
	}
	if got.ScanFailures != replicas*want.ScanFailures {
		t.Errorf("scan failures: got %d, want %d", got.ScanFailures, replicas*want.ScanFailures)
	}
	for b := range got.EjectionsPerAttempt {
		if got.EjectionsPerAttempt[b] != replicas*want.EjectionsPerAttempt[b] {
			t.Errorf("ejection bucket %d: got %d, want %d",
				b, got.EjectionsPerAttempt[b], replicas*want.EjectionsPerAttempt[b])
		}
	}

	// Merge must also be safe against concurrent Event streams.
	var wg2 sync.WaitGroup
	extra := &Metrics{Attempts: 1}
	for i := 0; i < 4; i++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			shared.Merge(extra)
		}()
	}
	wg2.Wait()
	if after := shared.Snapshot(); after.Attempts != got.Attempts+4 {
		t.Errorf("merge lost updates: got %d, want %d", after.Attempts, got.Attempts+4)
	}
}

package bench

import (
	"testing"
	"time"
)

// TestGapSweepInvariants runs a small gap sweep on the paper machine
// and checks the structural guarantees: every loop is accounted for
// exactly once, and the exact backend's warm start makes "never worse
// than slack" a hard invariant of the row sums.
func TestGapSweepInvariants(t *testing.T) {
	rows, err := GapSweep(Options{
		Size:        16,
		Seed:        7,
		Targets:     []string{"cydra"},
		GapDeadline: 10 * time.Second,
		GapNodes:    1 << 18,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	r := rows[0]
	if r.Machine != "cydra" || r.Loops < 16 {
		t.Fatalf("row header: %+v", r)
	}
	if got := r.Solved + r.Exhausted + r.Failed; got != r.Loops {
		t.Errorf("loops partition: solved %d + exhausted %d + failed %d != %d",
			r.Solved, r.Exhausted, r.Failed, r.Loops)
	}
	if r.Solved == 0 {
		t.Fatal("no loop solved under a 10s budget")
	}
	if r.SumExactII > r.SumSlackII {
		t.Errorf("exact ΣII %d worse than slack ΣII %d", r.SumExactII, r.SumSlackII)
	}
	if ratio := r.IIRatio(); ratio < 1 {
		t.Errorf("IIRatio = %.3f, want >= 1 (warm start can never lose II)", ratio)
	}
	if r.MLDelta.Min < 0 {
		t.Errorf("negative MaxLive delta %d: exact worse than its own seed", r.MLDelta.Min)
	}
	if r.Proven > r.Solved || r.SlackOptimal > r.Proven {
		t.Errorf("nesting violated: proven %d ⊆ solved %d, slack-optimal %d ⊆ proven %d",
			r.Proven, r.Solved, r.SlackOptimal, r.Proven)
	}
	if r.IIWins+r.MLWins > r.Solved {
		t.Errorf("wins %d+%d exceed solved %d", r.IIWins, r.MLWins, r.Solved)
	}
	// Renderers must cover every row without panicking on empty deltas.
	if s := RenderGap(rows); s == "" {
		t.Error("empty console rendering")
	}
	if s := MarkdownGap(rows); s == "" {
		t.Error("empty markdown rendering")
	}
}

// TestGapSweepUnknownTarget: a bad target name is a loud error, not an
// empty row.
func TestGapSweepUnknownTarget(t *testing.T) {
	if _, err := GapSweep(Options{Size: 1, Targets: []string{"nonesuch"}}); err == nil {
		t.Fatal("no error for unknown machine")
	}
}

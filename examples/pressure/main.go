// Pressure: the paper's core claim, demonstrated on one loop. An
// imbalanced body — one cheap load consumed only after a long multiply
// chain — is scheduled three ways: bidirectionally (the paper's
// lifetime-sensitive heuristic), early-only with the same dynamic
// priorities (the ablation), and with the Cydrome baseline. All three
// reach the same II; only the bidirectional placement keeps the cheap
// value's lifetime short, which is exactly Section 5's point.
//
// Run with:
//
//	go run ./examples/pressure
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/machine"
	"repro/internal/stats"
)

const src = `
      subroutine imbalanced(n, a, b, c, d, e, w)
      real a(200), b(200), c(200), d(200), e(200), w(200)
      integer n, i
      do i = 1, n
        w(i) = a(i) + ((b(i) * c(i)) * d(i)) * e(i)
      end do
      end
`

func main() {
	m := machine.Cydra()
	_, loops, err := frontend.Compile(src, m)
	if err != nil {
		log.Fatal(err)
	}
	l := loops[0].Loop

	t := stats.NewTable("Scheduler", "II", "MaxLive", "MinAvg", "Gap")
	for _, name := range []core.SchedulerName{core.SchedSlack, core.SchedSlackUni, core.SchedCydrome} {
		c, err := core.Compile(context.Background(), l, core.Options{Scheduler: name, SkipCodegen: true})
		if err != nil {
			log.Fatalf("%s failed", name)
		}
		t.Row(string(name), c.Result.Schedule.II, c.RR.MaxLive, c.MinAvg, c.RR.MaxLive-c.MinAvg)
	}
	fmt.Print(t.String())

	// Show where the pressure goes: the lifetime of each value under
	// bidirectional vs early-only placement.
	fmt.Println("\nper-value lifetimes (cycles live):")
	for _, name := range []core.SchedulerName{core.SchedSlack, core.SchedSlackUni} {
		c, _ := core.Compile(context.Background(), l, core.Options{Scheduler: name, SkipCodegen: true})
		fmt.Printf("  %s:\n", name)
		for _, r := range lifetime.Ranges(l, c.Result.Schedule, ir.RR) {
			fmt.Printf("    %-8s [%3d,%3d)  len %d\n", l.Value(r.Val).Name, r.Start, r.End, r.Len())
		}
	}
	fmt.Println("\nthe a(i) load: early-only placement issues it at cycle ~0 and leaves")
	fmt.Println("its value live across the whole multiply chain; the bidirectional")
	fmt.Println("heuristic sinks it next to its single use.")
}

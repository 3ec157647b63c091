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
//	go test -run Example ./examples/pressure
package pressure

import (
	"context"
	"fmt"
	"log"
	"strings"

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

func Example() {
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
	// The table pads its last column; an Output block keeps no trailing
	// space, so print it line by line without.
	for _, line := range strings.Split(strings.TrimSuffix(t.String(), "\n"), "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}

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

	// Output:
	// Scheduler             II  MaxLive  MinAvg  Gap
	// --------------------  --  -------  ------  ---
	// slack                 3   31       35      -4
	// slack-unidirectional  3   39       35      4
	// cydrome               3   39       35      4
	//
	// per-value lifetimes (cycles live):
	//   slack:
	//     p.a+0    [  9, 12)  len 3
	//     ld.a     [ 10, 23)  len 13
	//     p.b+0    [  2,  5)  len 3
	//     ld.b     [  4, 17)  len 13
	//     p.c+0    [  2,  5)  len 3
	//     ld.c     [  3, 17)  len 14
	//     t        [ 17, 19)  len 2
	//     p.d+0    [  4,  7)  len 3
	//     ld.d     [  5, 19)  len 14
	//     t        [ 19, 21)  len 2
	//     p.e+0    [  7, 10)  len 3
	//     ld.e     [  8, 21)  len 13
	//     t        [ 21, 23)  len 2
	//     t        [ 23, 24)  len 1
	//     p.w+0    [ 21, 24)  len 3
	//   slack-unidirectional:
	//     p.a+0    [  2,  5)  len 3
	//     ld.a     [  3, 20)  len 17
	//     p.b+0    [  0,  3)  len 3
	//     ld.b     [  1, 14)  len 13
	//     p.c+0    [  0,  3)  len 3
	//     ld.c     [  1, 14)  len 13
	//     t        [ 14, 16)  len 2
	//     p.d+0    [  1,  4)  len 3
	//     ld.d     [  2, 16)  len 14
	//     t        [ 16, 18)  len 2
	//     p.e+0    [  1,  4)  len 3
	//     ld.e     [  2, 18)  len 16
	//     t        [ 18, 20)  len 2
	//     t        [ 20, 21)  len 1
	//     p.w+0    [  2, 21)  len 19
	//
	// the a(i) load: early-only placement issues it at cycle ~0 and leaves
	// its value live across the whole multiply chain; the bidirectional
	// heuristic sinks it next to its single use.
}

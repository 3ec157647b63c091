// Quickstart: compile the paper's running example (Figure 1), modulo
// schedule it with the lifetime-sensitive bidirectional slack scheduler,
// and print everything the compiler knows about it — bounds, schedule,
// register pressure against the MinAvg bound, and the generated
// rotating-register kernel.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/ir"
	"repro/internal/machine"
)

const src = `
      subroutine sample(n, x, y)
      real x(200), y(200)
      integer n, i
      do i = 3, n
        x(i) = x(i-1) + y(i-2)
        y(i) = y(i-1) + x(i-2)
      end do
      end
`

func main() {
	m := machine.Cydra()
	_, loops, err := frontend.Compile(src, m)
	if err != nil {
		log.Fatal(err)
	}
	cl := loops[0]
	if cl.Ineligible != nil {
		log.Fatalf("loop not eligible: %v", cl.Ineligible)
	}

	fmt.Println("— loop IR after if-conversion, load/store elimination, SSA —")
	fmt.Print(cl.Loop.String())

	c, err := core.Compile(context.Background(), cl.Loop, core.Options{Scheduler: core.SchedSlack})
	if err != nil {
		log.Fatal(err)
	}
	b := c.Result.Bounds
	fmt.Printf("\nlower bounds: ResMII=%d RecMII=%d → MII=%d\n", b.ResMII, b.RecMII, b.MII)
	fmt.Printf("achieved II=%d (the paper schedules this loop at II=2)\n\n", c.Result.Schedule.II)

	fmt.Println("— modulo schedule —")
	fmt.Print(c.Result.Schedule.String())

	fmt.Printf("\nregister pressure: MaxLive=%d, schedule-independent bound MinAvg=%d\n",
		c.RR.MaxLive, c.MinAvg)
	fmt.Printf("loop invariants (GPR file): %d, ICR predicates: %d\n\n", c.GPRs, c.ICR)

	fmt.Println("— kernel-only VLIW code (rotating register specifiers) —")
	fmt.Print(c.Kernel.String())

	// Execute it: build a concrete environment and check the generated
	// kernel against the sequential interpreter.
	env, _, trips, err := cl.BuildEnv(frontend.Binding{
		Ints: map[string]int64{"n": 40},
		Fill: func(array string, idx int) ir.Scalar {
			return ir.FloatS(float64(idx) * 0.5)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := core.VerifyExecution(c, env, trips); err != nil {
		log.Fatalf("differential check failed: %v", err)
	}
	fmt.Printf("\ndifferential check: VLIW simulation of %d iterations matches the interpreter ✓\n", trips)
}

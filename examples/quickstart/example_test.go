// Quickstart: compile the paper's running example (Figure 1), modulo
// schedule it with the lifetime-sensitive bidirectional slack scheduler,
// and print everything the compiler knows about it — bounds, schedule,
// register pressure against the MinAvg bound, and the generated
// rotating-register kernel.
//
// Run with:
//
//	go test -run Example ./examples/quickstart
package quickstart

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

func Example() {
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

	// Output:
	// — loop IR after if-conversion, load/store elimination, SSA —
	// loop sample:5 (7 ops, 7 values, 1 bbs)
	//   t = fadd t[-1], t[-2]   ; op0 Adder.0
	//   p.x+0 = aadd p.x+0[-1], step   ; op1 AddrALU.0
	//   store p.x+0, t   ; op2 MemPort.0
	//   t = fadd t[-1], t[-2]   ; op3 Adder.0
	//   p.y+0 = aadd p.y+0[-1], step   ; op4 AddrALU.1
	//   store p.y+0, t   ; op5 MemPort.1
	//   brtop   ; op6 Branch.0
	//
	// lower bounds: ResMII=2 RecMII=1 → MII=2
	// achieved II=2 (the paper schedules this loop at II=2)
	//
	// — modulo schedule —
	// II=2 len=3 stages=2
	//      0: op1
	//      0: op3
	//      0: op6
	//      1: op0
	//      1: op4
	//      2: op2
	//      2: op5
	//
	// register pressure: MaxLive=6, schedule-independent bound MinAvg=4
	// loop invariants (GPR file): 1, ICR predicates: 2
	//
	// — kernel-only VLIW code (rotating register specifiers) —
	// kernel sample:5: II=2 stages=2 RR=7 ICR=0
	//   cycle 0:
	//     [s0] p.x+0 = aadd p.x+0[-1], step   ; op1 AddrALU.0  dst=RR[icp+0] src0=RR[icp+1] src1=gpr(v4)
	//     [s1] store p.x+0, t   ; op2 MemPort.0 src0=RR[icp+1] src1=RR[icp+4]
	//     [s0] t = fadd t[-1], t[-2]   ; op3 Adder.0  dst=RR[icp+1] src0=RR[icp+2] src1=RR[icp+5]
	//     [s1] store p.y+0, t   ; op5 MemPort.1 src0=RR[icp+6] src1=RR[icp+2]
	//     [s0] brtop   ; op6 Branch.0
	//   cycle 1:
	//     [s0] t = fadd t[-1], t[-2]   ; op0 Adder.0  dst=RR[icp+3] src0=RR[icp+4] src1=RR[icp+3]
	//     [s0] p.y+0 = aadd p.y+0[-1], step   ; op4 AddrALU.1  dst=RR[icp+5] src0=RR[icp+6] src1=gpr(v4)
	//
	// differential check: VLIW simulation of 38 iterations matches the interpreter ✓
}

// Pipeline-sim: execute a generated kernel on the cycle-accurate VLIW
// simulator and watch the software pipeline fill, run at steady state,
// and drain. The example compiles a daxpy loop, prints the kernel, runs
// it for a handful of iterations, verifies the rotating-register
// allocation by brute force, and checks the results against the
// sequential interpreter.
//
// Run with:
//
//	go run ./examples/pipeline-sim
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/machine"
	"repro/internal/regalloc"
	"repro/internal/semantics"
	"repro/internal/vliw"
)

const src = `
      subroutine daxpy(n, a, x, y)
      real x(100), y(100), a
      integer n, i
      do i = 1, n
        y(i) = y(i) + a*x(i)
      end do
      end
`

func main() {
	m := coreMachine()
	_, loops, err := frontend.Compile(src, m)
	if err != nil {
		log.Fatal(err)
	}
	cl := loops[0]
	c, err := core.Compile(context.Background(), cl.Loop, core.Options{})
	if err != nil {
		log.Fatal("compilation failed")
	}
	k := c.Kernel
	fmt.Printf("daxpy kernel: II=%d, %d stages → pipeline ramps over %d passes\n",
		k.II, k.Stages, k.Stages-1)
	fmt.Print(k.String())

	// Verify the rotating allocation independently (brute force over
	// every iteration alignment).
	ranges := lifetime.Ranges(cl.Loop, c.Result.Schedule, ir.RR)
	if err := regalloc.Verify(ranges, k.II, k.RR); err != nil {
		log.Fatalf("allocation unsound: %v", err)
	}
	fmt.Printf("\nrotating allocation verified: %d RR registers for %d values (MaxLive %d)\n",
		k.NRR, len(ranges), c.RR.MaxLive)

	// Run it.
	const trips = 12
	env, _, _, err := cl.BuildEnv(frontend.Binding{
		Ints:  map[string]int64{"n": trips},
		Reals: map[string]float64{"a": 2.0},
		Fill: func(array string, idx int) ir.Scalar {
			if array == "x" {
				return ir.FloatS(float64(idx))
			}
			return ir.FloatS(100 + float64(idx))
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	want, err := interp.Run(cl.Loop, env, trips)
	if err != nil {
		log.Fatal(err)
	}
	got, err := vliw.Run(k, env, trips, vliw.Config{Paranoid: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated %d iterations over %d kernel passes (%d cycles)\n",
		trips, trips+k.Stages-1, (trips+k.Stages-1)*k.II)
	fmt.Printf("operations executed: interpreter %d, VLIW %d\n", want.Executed, got.Executed)

	mismatches := 0
	for i := range want.Mem {
		if !semantics.Equal(want.Mem[i], got.Mem[i]) {
			mismatches++
		}
	}
	fmt.Printf("memory mismatches: %d\n", mismatches)
	fmt.Println("\ny after the pipeline (first 12 elements):")
	base := int64(0)
	for name, b := range mapBases(cl) {
		if name == "y" {
			base = b
		}
	}
	for i := 0; i < trips; i++ {
		fmt.Printf("  y(%2d) = %6.1f\n", i+1, got.Mem[base+int64(i)].F)
	}
}

func mapBases(cl *frontend.CompiledLoop) map[string]int64 {
	_, layout, _, err := cl.BuildEnv(frontend.Binding{
		Ints:  map[string]int64{"n": 1},
		Reals: map[string]float64{"a": 0},
	})
	if err != nil {
		log.Fatal(err)
	}
	return layout.Base
}

func coreMachine() *machine.Desc { return machine.Cydra() }

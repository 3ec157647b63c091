package core

import (
	"context"
	"fmt"

	"repro/internal/fixture"
	"repro/internal/machine"
)

// ExampleCompile compiles one loop end to end with the paper's
// lifetime-sensitive slack scheduler and reports the headline numbers:
// the achieved II against the MII lower bound, the register pressure
// against the schedule-independent MinAvg bound, and the kernel size.
func ExampleCompile() {
	l := fixture.Daxpy(machine.Cydra())
	c, err := Compile(context.Background(), l, Options{Scheduler: SchedSlack})
	if err != nil {
		fmt.Println("compile failed:", err)
		return
	}
	fmt.Printf("scheduled %s at II=%d (MII %d)\n", c.Loop.Name, c.Result.Schedule.II, c.Result.Bounds.MII)
	fmt.Printf("pressure: MaxLive=%d against MinAvg=%d\n", c.RR.MaxLive, c.MinAvg)
	fmt.Printf("kernel: %d cycle(s)\n", len(c.Kernel.Words))
	// Output:
	// scheduled daxpy at II=2 (MII 2)
	// pressure: MaxLive=25 against MinAvg=25
	// kernel: 2 cycle(s)
}

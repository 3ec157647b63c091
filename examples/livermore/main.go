// Livermore: compile and schedule the embedded kernel corpus (the
// Lawrence Livermore loops and classic vector kernels written in the
// mini-FORTRAN dialect), reporting for each loop the paper's key
// quantities — MII decomposition, achieved II, and register pressure
// against the schedule-independent MinAvg bound.
//
// Run with:
//
//	go run ./examples/livermore
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/stats"
)

func main() {
	m := machine.Cydra()
	kernels, err := loopgen.Kernels(m)
	if err != nil {
		log.Fatal(err)
	}

	t := stats.NewTable("Kernel", "Ops", "ResMII", "RecMII", "MII", "II", "MaxLive", "MinAvg", "GPRs")
	optimal := 0
	for _, k := range kernels {
		c, err := core.Compile(context.Background(), k.CL.Loop, core.Options{SkipCodegen: true})
		if err != nil {
			log.Fatalf("%s: %v", k.Name, err)
		}
		b := c.Result.Bounds
		ii := c.Result.Schedule.II
		if ii == b.MII {
			optimal++
		}
		t.Row(k.Name, len(k.CL.Loop.Ops), b.ResMII, b.RecMII, b.MII, ii, c.RR.MaxLive, c.MinAvg, c.GPRs)
	}
	fmt.Print(t.String())
	fmt.Printf("\n%d/%d kernels scheduled at their MII lower bound\n", optimal, len(kernels))
}

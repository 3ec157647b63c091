// Livermore: compile and schedule the embedded kernel corpus (the
// Lawrence Livermore loops and classic vector kernels written in the
// mini-FORTRAN dialect), reporting for each loop the paper's key
// quantities — MII decomposition, achieved II, and register pressure
// against the schedule-independent MinAvg bound.
//
// Run with:
//
//	go test -run Example ./examples/livermore
package livermore

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/stats"
)

func Example() {
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
	// The table pads its last column; an Output block keeps no trailing
	// space, so print it line by line without.
	for _, line := range strings.Split(strings.TrimSuffix(t.String(), "\n"), "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}
	fmt.Printf("\n%d/%d kernels scheduled at their MII lower bound\n", optimal, len(kernels))

	// Output:
	// Kernel           Ops  ResMII  RecMII  MII  II  MaxLive  MinAvg  GPRs
	// ---------------  ---  ------  ------  ---  --  -------  ------  ----
	// cheby            6    2       3       3    3   4        4       2
	// clipcond         9    2       1       2    2   24       24      3
	// cmplxmul         19   4       1       4    4   26       28      1
	// daxpy            8    2       15      15   15  4        6       2
	// expdecay         9    2       3       3    3   10       11      3
	// fir4             12   4       1       4    4   11       13      5
	// gatherscale      9    2       1       2    2   18       19      3
	// horner           5    1       3       3    3   7        8       2
	// interp5          14   5       1       5    5   12       14      6
	// lll01_hydro      12   3       1       3    3   17       18      4
	// lll02_iccg       22   17      18      18   18  13       20      5
	// lll03_inner      7    1       1       1    1   31       31      1
	// lll04_banded     7    1       1       1    1   31       31      1
	// lll05_tridiag    9    2       3       3    3   14       15      1
	// lll06_linrec     8    2       15      15   15  5        6       1
	// lll07_eos        25   8       1       8    8   21       26      4
	// lll09_integrate  40   9       1       9    9   30       48      9
	// lll10_diffpred   23   6       15      15   15  13       17      1
	// lll11_firstsum   6    1       1       1    1   16       16      1
	// lll12_firstdiff  7    2       1       2    2   18       17      1
	// lll19_linrec     10   2       4       4    4   12       14      1
	// lll20_ordinates  40   51      82      82   85  14       33      5
	// lll21_update     8    2       15      15   15  4        6       2
	// lll22_planck     15   55      1       55   55  10       12      2
	// lll24_argmin     10   5       15      15   15  6        6       1
	// normalize        9    38      1       38   38  5        7       1
	// relax            19   6       35      35   35  8        16      4
	// smooth3          10   3       4       4    4   9        11      3
	// srot             13   4       17      17   20  6        10      3
	// sscal            5    1       16      16   16  2        3       2
	// ssum2            5    1       1       1    1   17       17      1
	// sumabs           12   7       2       7    7   12       13      2
	// triad            9    2       1       2    2   19       19      2
	// wavefront        10   2       3       3    3   16       16      1
	//
	// 32/34 kernels scheduled at their MII lower bound
}

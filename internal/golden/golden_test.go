// Package golden holds the scheduler's output on the loopgen corpus to
// committed fingerprints, so "bit-identical schedules and counters" is
// a test rather than a manual diff.
//
// testdata/golden/<target>.fp has one line per (loop, policy):
//
//	loop policy II MaxLive MinAvg attempts iters placements forces ejections hash32
//
// where hash32 is FNV-1a over the issue times, the RR/ICR register
// offsets in value-ID order, and the kernel words. A loop that did not
// schedule prints "-" for MaxLive and MinAvg and its error class in
// place of the hash. The corpus is seed 1993 at the paper's 1,525
// loops, on every built-in target, under slack, slack-unidirectional,
// cydrome and list; the exact backend runs on the first 40 cydra loops
// under a node budget, which (unlike a deadline) is deterministic.
//
// Regenerate with
//
//	go test ./internal/golden -update
//
// A change that alters the files must say why in CHANGES.md.
package golden

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/sched"
)

var update = flag.Bool("update", false, "regenerate testdata/golden/*.fp")

const (
	corpusSeed = 1993
	corpusSize = 1525
	// shortStride is the loop stride checked under -short.
	shortStride = 16
	// exactLoops is how many leading cydra loops the exact backend runs
	// on, and exactNodes its search-node budget.
	exactLoops = 40
	exactNodes = 1 << 14
)

var policies = []core.SchedulerName{core.SchedSlack, core.SchedSlackUni, core.SchedCydrome, core.SchedList}

func TestGoldenFingerprints(t *testing.T) {
	for _, m := range machine.Machines() {
		t.Run(m.Name, func(t *testing.T) {
			path := filepath.Join("..", "..", "testdata", "golden", m.Name+".fp")
			got := fingerprints(t, m, *update || !testing.Short())
			if *update {
				writeLines(t, path, got)
				return
			}
			want := readLines(t, path)
			if len(got) == 0 {
				t.Fatal("no fingerprints computed")
			}
			for _, line := range got {
				key := lineKey(line)
				w, ok := want[key]
				switch {
				case !ok:
					t.Errorf("%s: no golden line for %q", path, key)
				case w != line:
					t.Errorf("%s:\n got %s\nwant %s", path, line, w)
				}
			}
			if !testing.Short() && len(got) != len(want) {
				t.Errorf("%s: computed %d lines, file has %d", path, len(got), len(want))
			}
		})
	}
}

// fingerprints compiles the corpus for one target and returns its
// lines in corpus order; unless all is set, only every shortStride-th
// loop is compiled.
func fingerprints(t *testing.T, m *machine.Desc, all bool) []string {
	t.Helper()
	suite, err := loopgen.Build(loopgen.Options{Size: corpusSize, Seed: corpusSeed, Mach: m})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	var c core.Compiled
	for i, sl := range suite.Loops {
		if !all && i%shortStride != 0 {
			continue
		}
		name := fmt.Sprintf("%04d/%s", i, sl.Name)
		for _, p := range policies {
			out = append(out, compileLine(t, &c, name, sl, core.Options{Scheduler: p}))
		}
		if m.Name == machine.PaperMachine && i < exactLoops {
			opt := core.Options{Scheduler: core.SchedExact,
				Config: sched.Config{Budget: sched.Budget{MaxCentralIters: exactNodes}}}
			out = append(out, compileLine(t, &c, name, sl, opt))
		}
	}
	return out
}

func compileLine(t *testing.T, c *core.Compiled, name string, sl *loopgen.Loop, opt core.Options) string {
	t.Helper()
	err := core.CompileInto(context.Background(), c, sl.CL.Loop, opt)
	if c.Loop == nil {
		t.Fatalf("%s %s: %v", name, opt.Scheduler, err)
	}
	r := c.Result
	st := r.Stats
	head := fmt.Sprintf("%s %s %d", name, opt.Scheduler, r.II())
	tail := fmt.Sprintf("%d %d %d %d %d", st.IIAttempts, st.CentralIters, st.Placements, st.Forces, st.Ejections)
	switch {
	case errors.Is(err, sched.ErrInfeasible):
		return head + " - - " + tail + " infeasible"
	case errors.Is(err, sched.ErrBudgetExhausted):
		return head + " - - " + tail + " budget"
	case err != nil:
		t.Fatalf("%s %s: %v", name, opt.Scheduler, err)
	}
	return fmt.Sprintf("%s %d %d %s %08x", head, c.RR.MaxLive, c.MinAvg, tail, hash(c))
}

// hash is FNV-1a over the issue times, the RR and ICR offsets in
// value-ID order, and the kernel words.
func hash(c *core.Compiled) uint32 {
	h := fnv.New32a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	for _, t := range c.Result.Schedule.Time {
		put(t)
	}
	k := c.Kernel
	for _, v := range c.Loop.Values {
		if off, ok := k.RR.Offset[v.ID]; ok {
			put(int(v.ID))
			put(off)
		}
		if off, ok := k.ICR.Offset[v.ID]; ok {
			put(-1 - int(v.ID))
			put(off)
		}
	}
	for _, word := range k.Words {
		put(len(word))
		for _, in := range word {
			put(int(in.Op.ID))
			put(in.Stage)
			put(len(in.Srcs))
			for _, s := range in.Srcs {
				put(int(s.File))
				put(s.Off)
				put(int(s.Val))
				put(s.Omega)
			}
			for _, s := range []*codegen.Spec{in.Dst, in.Pred} {
				if s == nil {
					put(-1)
					continue
				}
				put(int(s.File))
				put(s.Off)
				put(int(s.Val))
			}
		}
	}
	return h.Sum32()
}

// lineKey is a line's (loop, policy) prefix.
func lineKey(line string) string {
	f := strings.Fields(line)
	if len(f) < 2 {
		return line
	}
	return f[0] + " " + f[1]
}

func readLines(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		out[lineKey(sc.Text())] = sc.Text()
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func writeLines(t *testing.T, path string, lines []string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

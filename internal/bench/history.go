// Continuous benchmark trajectory: BENCH_sched.json is a single
// snapshot, so a perf win recorded there is invisible one PR later.
// History appends one record per PR (keyed by git SHA and date) to an
// append-only JSONL file — conventionally BENCH_history.jsonl at the
// repo root — each carrying ns/op, B/op, allocs/op per scheduling
// policy on the per-compile hot path plus the Section 6 effort
// counters of one deterministic sweep. cmd/benchdiff compares the head
// record against the last committed one and fails CI on regression.
package bench

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/sched"
)

// BenchRecord is one policy's per-compile cost: the testing.Benchmark
// measurements (per single compilation, not per sweep) plus the effort
// counters of one full deterministic sweep at the record's size/seed.
// The counters are schedule work, not wall clock, so they must be
// identical across machines — benchdiff treats any counter drift as a
// correctness alarm, not a perf regression.
type BenchRecord struct {
	Name        string  `json:"name"` // "compile/<policy>"
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`

	IIAttempts   int64 `json:"ii_attempts"`
	CentralIters int64 `json:"central_iters"`
	Placements   int64 `json:"placements"`
	Forces       int64 `json:"forces"`
	Ejections    int64 `json:"ejections"`
	Restarts     int64 `json:"restarts"`
}

// HistoryRecord is one line of BENCH_history.jsonl.
type HistoryRecord struct {
	SHA  string `json:"sha"`
	Date string `json:"date"` // YYYY-MM-DD
	Note string `json:"note,omitempty"`
	Go   string `json:"go"`
	Size int    `json:"size"`
	Seed int64  `json:"seed"`
	// Machine names the target the record was measured on; empty means
	// the paper machine (records predate the multi-target harness).
	// benchdiff never compares records across machines — counters and
	// costs are both per-target.
	Machine    string        `json:"machine,omitempty"`
	NoPool     bool          `json:"nopool,omitempty"`
	Benchmarks []BenchRecord `json:"benchmarks"`
}

// CompileBench measures the per-compile hot path for every registered
// policy on the sized workload: a testing.Benchmark whose op is one
// core.Compile (scheduling + pressure, no codegen — the lsmsd serving
// shape), round-robin over the corpus, plus one untimed sweep that
// aggregates the effort counters. Each policy yields two records:
// "compile/<policy>" (a fresh Compiled per op via core.Compile, the
// context convenience) and "compileinto/<policy>" (one Compiled recycled
// across ops via core.CompileInto — the allocation floor). The sweep counters are
// shared: both entry points perform identical scheduling work.
// A nil mach measures on the paper machine.
func CompileBench(size int, seed int64, cfg sched.Config, mach *machine.Desc) ([]BenchRecord, error) {
	w, err := loopgen.Build(loopgen.Options{Size: size, Seed: seed, Mach: mach})
	if err != nil {
		return nil, err
	}
	loops := w.Loops
	ctx := context.Background()
	var out []BenchRecord
	for _, name := range core.Schedulers() {
		opt := core.Options{Scheduler: name, Config: cfg, SkipCodegen: true}
		var benchErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := core.Compile(ctx, loops[i%len(loops)].CL.Loop, opt)
				if err != nil && !errors.Is(err, sched.ErrInfeasible) {
					benchErr = fmt.Errorf("%s/%s: %w", name, loops[i%len(loops)].Name, err)
					b.FailNow()
				}
			}
		})
		if benchErr != nil {
			return nil, benchErr
		}
		rInto := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			var c core.Compiled
			for i := 0; i < b.N; i++ {
				err := core.CompileInto(ctx, &c, loops[i%len(loops)].CL.Loop, opt)
				if err != nil && !errors.Is(err, sched.ErrInfeasible) {
					benchErr = fmt.Errorf("%s/%s: %w", name, loops[i%len(loops)].Name, err)
					b.FailNow()
				}
			}
		})
		if benchErr != nil {
			return nil, benchErr
		}
		rec := BenchRecord{
			Name:        "compile/" + string(name),
			NsPerOp:     float64(r.NsPerOp()),
			BytesPerOp:  float64(r.AllocedBytesPerOp()),
			AllocsPerOp: float64(r.AllocsPerOp()),
		}
		for _, l := range loops {
			c, err := core.Compile(ctx, l.CL.Loop, opt)
			if err != nil && !errors.Is(err, sched.ErrInfeasible) {
				return nil, fmt.Errorf("%s/%s: %w", name, l.Name, err)
			}
			st := c.Result.Stats
			rec.IIAttempts += int64(st.IIAttempts)
			rec.CentralIters += st.CentralIters
			rec.Placements += st.Placements
			rec.Forces += st.Forces
			rec.Ejections += st.Ejections
			rec.Restarts += st.Restarts
		}
		recInto := rec
		recInto.Name = "compileinto/" + string(name)
		recInto.NsPerOp = float64(rInto.NsPerOp())
		recInto.BytesPerOp = float64(rInto.AllocedBytesPerOp())
		recInto.AllocsPerOp = float64(rInto.AllocsPerOp())
		out = append(out, rec, recInto)
	}
	return out, nil
}

// NewHistoryRecord assembles one trajectory record. Date is the
// caller's (CI stamps UTC); Go is filled in here. An empty machine
// means the paper machine.
func NewHistoryRecord(sha, date, note string, size int, seed int64, mach string, nopool bool, benches []BenchRecord) *HistoryRecord {
	if mach == machine.PaperMachine {
		mach = "" // canonical form: the paper machine is the unmarked case
	}
	return &HistoryRecord{
		SHA: sha, Date: date, Note: note,
		Go:   runtime.Version(),
		Size: size, Seed: seed, Machine: mach, NoPool: nopool,
		Benchmarks: benches,
	}
}

// AppendHistory appends the record as one JSON line (creating the file
// if needed) — the append-only contract of BENCH_history.jsonl.
func AppendHistory(path string, r *HistoryRecord) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadHistory parses every record of a JSONL history file, oldest
// first. Blank lines are skipped; a malformed line is an error (the
// file is append-only and machine-written, so damage means trouble).
func ReadHistory(path string) ([]*HistoryRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*HistoryRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		r := new(HistoryRecord)
		if err := json.Unmarshal(line, r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, ln, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// String renders the record as a one-line-per-benchmark summary.
func (r *HistoryRecord) String() string {
	s := fmt.Sprintf("%s %s size=%d seed=%d", r.SHA, r.Date, r.Size, r.Seed)
	if r.Machine != "" {
		s += " machine=" + r.Machine
	}
	if r.Note != "" {
		s += " (" + r.Note + ")"
	}
	for _, b := range r.Benchmarks {
		s += fmt.Sprintf("\n  %-28s %12.0f ns/op %12.0f B/op %8.1f allocs/op  iters=%d ejects=%d",
			b.Name, b.NsPerOp, b.BytesPerOp, b.AllocsPerOp, b.CentralIters, b.Ejections)
	}
	return s
}

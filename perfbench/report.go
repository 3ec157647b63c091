package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// config is one benchmark run.
type config struct {
	workload   string
	seed       int64 // request order and hit draws
	corpusSeed int64 // loopgen seed
	size       int   // corpus loops
	seconds    time.Duration
	trace      bool
	tmp        string // scratch directory for stores, removed by the caller
}

// clients is the closed-loop client count of every timed pass. lsmsd's
// callers are compiler drivers that wait for each reply. One client
// leaves the second CPU of a 2-CPU machine to the garbage collector; with
// two, GC cycles stall a client and serve-hit's p99 followed load on the
// host rather than the code (see BASELINE.md).
const clients = 1

// checkWorkers runs the untimed reference passes in parallel.
func checkWorkers() int { return min(2, runtime.NumCPU()) }

// workloads maps a workload name to its untraced and traced runs.
var workloads = map[string]struct {
	plain, traced func(cfg config, rep *report) error
}{
	"compile-corpus": {compilePlain, compileTraced},
	"serve-miss":     {missPlain, missTraced},
	"serve-hit":      {hitPlain, hitTraced},
}

// run executes one workload and returns its result; progress and the
// human-readable metric table go to log.
func run(cfg config, log io.Writer) (*result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	rep := &report{log: log, metrics: map[string]metric{}}
	fmt.Fprintf(log, "workload %s  seed %d  corpus-seed %d  clients %d  trace %v\n",
		cfg.workload, cfg.seed, cfg.corpusSeed, clients, cfg.trace)
	f := w.plain
	if cfg.trace {
		f = w.traced
	}
	if err := f(cfg, rep); err != nil {
		return nil, err
	}
	for _, p := range rep.problems {
		fmt.Fprintln(log, "FAIL:", p)
	}
	return &result{
		Correct:   rep.failed == 0 && len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}, nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) print(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// report collects a run's metrics, op counts and failures.
type report struct {
	log       io.Writer
	metrics   map[string]metric
	attempted int64
	failed    int64
	problems  []string // run-level failures (e.g. the attribution check)
	// diskRejects counts store records that failed verification.
	diskRejects int64
}

// add records a metric for the JSON line and prints it with its sample
// count.
func (r *report) add(name string, v float64, unit, samples string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.note(name, v, unit, samples)
}

// note prints a figure that is not one of the run's JSON metrics.
func (r *report) note(name string, v float64, unit, samples string) {
	fmt.Fprintf(r.log, "  %-32s %14.6g %-10s %s\n", name, v, unit, samples)
}

// fail counts one failed op and logs the first few reasons.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 10 {
		fmt.Fprintf(r.log, "FAIL: "+format+"\n", args...)
	}
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// opTimes is one pass's per-op times, by position: wall time, and the
// on-CPU time of the client's thread, which runs the op (the handler or
// CompileInto) synchronously. On-CPU time leaves out what the op did not
// spend computing: time the VM's CPU was stolen by the host, and time
// the thread waited for a CPU.
type opTimes struct {
	wall, cpu []time.Duration
}

func makeOpTimes(n int) opTimes {
	return opTimes{wall: make([]time.Duration, n), cpu: make([]time.Duration, n)}
}

// stamp is an op's start on both clocks.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{wall: time.Now(), cpu: threadCPU()} }

// since records op k's times from its start.
func (o opTimes) since(k int, s stamp) {
	o.cpu[k] = threadCPU() - s.cpu
	o.wall[k] = time.Since(s.wall)
}

// threadCPU is the calling thread's CPU time. Callers lock their
// goroutine to its thread.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %v", errno)) // Linux always has it
	}
	return time.Duration(ts.Nano())
}

// processCPU is the user and system CPU time of every thread of the
// process, the garbage collector's included.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timing accumulates the timed region of a run: whole passes, each with
// its wall time, process CPU time and per-op quantiles, and the
// allocations made while they ran.
type timing struct {
	passes     int
	ops        int64
	wall       time.Duration
	walls      []time.Duration // per pass
	cpus       []time.Duration // per pass: process CPU time
	p50, p99   []time.Duration // per pass: wall
	cp50, cp99 []time.Duration // per pass: on-CPU
	mallocs    uint64
	bytes      uint64
	sorted     []time.Duration
}

// measure times one pass, f, which returns its per-op times.
func (t *timing) measure(f func() opTimes) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := processCPU()
	start := time.Now()
	lat := f()
	wall := time.Since(start)
	cpu := processCPU() - cpu0
	runtime.ReadMemStats(&after)
	t.passes++
	t.ops += int64(len(lat.wall))
	t.wall += wall
	t.walls = append(t.walls, wall)
	t.cpus = append(t.cpus, cpu)
	t.mallocs += after.Mallocs - before.Mallocs
	t.bytes += after.TotalAlloc - before.TotalAlloc
	t.p50, t.p99 = t.quantiles(lat.wall, t.p50, t.p99)
	t.cp50, t.cp99 = t.quantiles(lat.cpu, t.cp50, t.cp99)
}

func (t *timing) quantiles(d []time.Duration, p50, p99 []time.Duration) ([]time.Duration, []time.Duration) {
	t.sorted = append(t.sorted[:0], d...)
	sort.Slice(t.sorted, func(i, j int) bool { return t.sorted[i] < t.sorted[j] })
	return append(p50, quantile(t.sorted, 0.50)), append(p99, quantile(t.sorted, 0.99))
}

// endToEnd adds the end-to-end metrics every workload reports, from the
// set-up samples, the timed passes and the quality sums.
//
// The timings the JSON line carries are CPU times: on a shared 2-vCPU
// VM, host CPU steal reached a fifth of a run and moved the wall-clock
// p99 of serve-hit by 40% between runs, while on-CPU time leaves steal
// out. Every pass does the same work, so each is the median over passes
// of that pass's figure. The wall-clock throughput and latencies are
// printed beside them.
func (r *report) endToEnd(setup setupTimes, t *timing, q quality) {
	r.add("setup_s", median(setup.cpu).Seconds(), "s",
		fmt.Sprintf("median of %d set-ups, process CPU time; wall %.3fs", len(setup.cpu), median(setup.wall).Seconds()))
	opsPerPass := t.ops / int64(t.passes)
	passes := fmt.Sprintf("median of %d passes of %d ops", t.passes, opsPerPass)
	beyond := fmt.Sprintf("%s, %d beyond p99 in each", passes, opsPerPass-int64(math.Ceil(0.99*float64(opsPerPass))))
	r.add("cpu_us_per_op", us(median(t.cpus))/float64(opsPerPass), "us", passes+", process CPU time")
	r.add("latency_cpu_p50_us", us(median(t.cp50)), "us", passes+", on-CPU")
	r.add("latency_cpu_p99_us", us(median(t.cp99)), "us", beyond+", on-CPU")
	r.note("throughput_ops_per_s", float64(opsPerPass)/median(t.walls).Seconds(), "ops/s",
		fmt.Sprintf("%s (%d ops in %.2fs), wall", passes, t.ops, t.wall.Seconds()))
	r.note("latency_p50_us", us(median(t.p50)), "us", passes+", wall")
	r.note("latency_p99_us", us(median(t.p99)), "us", beyond+", wall")
	r.note("error_rate", float64(r.failed)/float64(max(r.attempted, 1)), "ratio",
		fmt.Sprintf("%d failed of %d attempted", r.failed, r.attempted))
	r.add("allocs_per_op", float64(t.mallocs)/float64(t.ops), "objects/op", fmt.Sprintf("n=%d", t.ops))
	r.add("bytes_per_op", float64(t.bytes)/float64(t.ops), "B/op", fmt.Sprintf("n=%d", t.ops))
	r.add("peak_rss_mib", peakRSSMiB(), "MiB", "process high-water")
	r.add("ii_over_mii", q.ratio(q.ii, q.mii), "ratio", fmt.Sprintf("%d loops", q.loops))
	r.add("maxlive_over_bound", q.ratio(q.maxLive, q.floor), "ratio", fmt.Sprintf("%d loops", q.loops))
}

// quality sums schedule quality over the corpus's distinct loops. The
// sums are deterministic: they come from checked reference outputs that
// every later output must equal.
type quality struct {
	loops                       int
	ii, mii, maxLive, floor     int64
	regs                        int64 // Kernel.NRR (compile-corpus only)
	iiAttempts, placements      int64
	forces, ejections           int64
	registers, sizes, allocRuns int64 // regalloc: RR+ICR sizes, sizes tried, allocations
}

func (q quality) ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// schedCounts adds the deterministic §6 effort counters.
func (r *report) schedCounts(q quality) {
	n := float64(max(q.loops, 1))
	r.add("sched.ii_attempts_per_loop", float64(q.iiAttempts)/n, "count", fmt.Sprintf("%d loops", q.loops))
	r.add("sched.placements_per_loop", float64(q.placements)/n, "count", fmt.Sprintf("%d loops", q.loops))
	r.add("sched.forces_per_loop", float64(q.forces)/n, "count", fmt.Sprintf("%d loops", q.loops))
	r.add("sched.ejections_per_placement", q.ratio(q.ejections, q.placements), "ratio",
		fmt.Sprintf("%d placements", q.placements))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile of sorted samples by linear
// interpolation between closest ranks.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[lo+1]-sorted[lo]))
}

func median(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return quantile(s, 0.5)
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// Command uvebenchmark is the repository's benchmark. It runs one of three
// seeded closed-loop workloads through the simulator's public entry points,
// checks every job's output, and prints the end-to-end metrics (with
// --trace 1, the per-layer metrics of a separate traced run) as one JSON
// object on the last line of standard output. README.md describes the
// workloads and how to read the metrics; run.sh builds and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// processStart approximates process start: the first set-up is timed from
// here.
var processStart = time.Now()

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // checkout root; holds BENCHMARK.json
	build    string // build outputs (run.sh puts uveserve here) and run scratch
	smoke    bool
}

// scale is a workload's size divisor: its nominal bench.Options scale, or
// a tiny size in smoke mode.
func (c *config) scale(nominal int) int {
	if c.smoke {
		return 64
	}
	return nominal
}

// runDir is where runs keep their scratch files (service stores, profiles).
func (c *config) runDir() string { return filepath.Join(c.build, "run") }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("uvebenchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	fs.StringVar(&c.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&c.seed, "seed", 1, "workload seed: orders the jobs and draws the fault-plan seeds")
	fs.Float64Var(&c.seconds, "seconds", 30, "minimum length of each timed window (whole passes are measured)")
	traceFlag := fs.Int("trace", 0, "1: print per-layer metrics from a separate traced run")
	steadyRuns := fs.Int("steady", 0, "steadiness report: run each workload this many times in each of two sets, as child processes")
	fs.StringVar(&c.root, "root", ".", "checkout root (holds BENCHMARK.json)")
	fs.StringVar(&c.build, "build", ".bench_build", "directory holding the uveserve binary and run scratch")
	fs.BoolVar(&c.smoke, "smoke", false, "tiny sizes and an in-process service, for the benchmark's own tests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	c.trace = *traceFlag == 1
	if *steadyRuns > 0 {
		return steadyReport(&c, *steadyRuns, stdout, stderr)
	}
	if err := os.MkdirAll(c.runDir(), 0o755); err != nil {
		fmt.Fprintln(stderr, "uvebenchmark:", err)
		return 1
	}
	rep, err := runBenchmark(&c, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "uvebenchmark:", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "uvebenchmark:", err)
		return 1
	}
	return 0
}

type metricDef struct{ name, unit string }

// endToEndDefs are the metrics a user of the simulator sees, reported by
// every untraced run.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "jobs/s"},
	{"sim_kips", "kinst/s"},
	{"job_p50_ms", "ms"},
	{"job_tail_ms", "ms"},
	{"rss_p50_mb", "MB"},
}

// report is one run's result line.
type report struct {
	attempted, failed int
	defs              []metricDef
	values            map[string]float64
}

// print writes the result object as the last line of stdout.
func (r *report) print(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range r.defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[d.name] = value{v, d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// An untraced run sets its workload up setupBefore times before the timed
// window and setupAfter times after it; setup_s is the median of all of
// them. Set-ups in a row share the host's speed of the moment, which drifts
// over tens of seconds; set-ups on both sides of the window sample more of
// it, so one slow stretch does not move the median.
const (
	setupBefore = 3
	setupAfter  = 3
)

// warmupStride picks the warm-up jobs: every warmupStride-th job of the
// canonical list runs once, untimed, at the end of set-up.
const warmupStride = 8

// setUpTimed sets the workload up, keeping the last of n set-ups, and
// returns each one's time. The first is timed from start. A set-up covers
// the job list, any oracle runs or service start and store fill, and one
// untimed warm-up, whose jobs must all pass.
func setUpTimed(c *config, n int, start time.Time) (*workload, *checker, []float64, error) {
	var w *workload
	var chk *checker
	var times []float64
	for i := 0; i < n; i++ {
		if w != nil {
			w.shutdown()
		}
		t0 := time.Now()
		if i == 0 {
			t0 = start
		}
		var err error
		if w, err = setUp(c); err != nil {
			return nil, nil, nil, err
		}
		var warm []int
		for j := 0; j < len(w.jobs); j += warmupStride {
			warm = append(warm, j)
		}
		chk = newChecker(w)
		chk.check(runWindow(w, c.seed, warm, 0, true, nil, runMode{}))
		if chk.failed > 0 {
			w.shutdown()
			return nil, nil, nil, fmt.Errorf("warm-up: %s", strings.Join(chk.errs, "; "))
		}
		chk.attempted = 0
		times = append(times, time.Since(t0).Seconds())
	}
	return w, chk, times, nil
}

// checker counts attempted and failed jobs and holds each job's first
// outcome: a later run of the same job that computes something else fails.
type checker struct {
	w                 *workload
	expect            map[string]outcome
	attempted, failed int
	errs              []string
}

func newChecker(w *workload) *checker {
	return &checker{w: w, expect: map[string]outcome{}}
}

// check accounts a window's jobs, marking failed records in place.
func (k *checker) check(win *window) {
	for i := range win.recs {
		r := &win.recs[i]
		id := k.w.jobs[r.job].id
		k.attempted++
		if r.err == nil {
			if want, ok := k.expect[id]; !ok {
				k.expect[id] = r.r.out
			} else if want != r.r.out {
				r.err = fmt.Errorf("%s: computed %+v, an earlier run computed %+v", id, r.r.out, want)
			}
		}
		if r.err != nil {
			k.failed++
			if len(k.errs) < 8 {
				k.errs = append(k.errs, r.err.Error())
			}
		}
	}
}

// digest is the workload's outcome digest over every job of a pass.
func (k *checker) digest() string { return digest(k.expect) }

// passWork sums the cycles and instructions the window's first pass
// simulated.
func passWork(win *window) (cycles int64, committed uint64) {
	for _, r := range win.recs {
		if r.pass == 0 && r.fresh && r.err == nil {
			cycles += r.r.out.Cycles
			committed += r.r.out.Committed
		}
	}
	return cycles, committed
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runBenchmark sets the workload up, runs it and assembles the report. The
// first set-up is timed from process start.
func runBenchmark(c *config, stdout io.Writer) (*report, error) {
	if c.trace {
		w, chk, _, err := setUpTimed(c, 1, processStart)
		if err != nil {
			return nil, err
		}
		defer w.shutdown()
		return tracedRun(c, w, chk, stdout)
	}
	w, chk, setups, err := setUpTimed(c, setupBefore, processStart)
	if err != nil {
		return nil, err
	}
	win := runWindow(w, c.seed, w.all(), c.seconds, false, nil, runMode{})
	w.shutdown()
	chk.check(win)
	late, _, more, err := setUpTimed(c, setupAfter, time.Now())
	if err != nil {
		return nil, err
	}
	late.shutdown()
	setups = append(setups, more...)

	var lat []float64
	var committed float64
	for _, r := range win.recs {
		if r.err != nil {
			continue
		}
		lat = append(lat, ms(r.r.latency))
		if r.fresh {
			committed += float64(r.r.out.Committed)
		}
	}
	secs := win.elapsed.Seconds()
	pm := w.tailPerMille()
	tail, beyond := percentile(lat, pm)
	fmt.Fprintf(stdout, "%s seed=%d: %d passes, %d jobs (%d failed) in %.3f s\n",
		w.name, c.seed, len(win.states), chk.attempted, chk.failed, secs)
	fmt.Fprintf(stdout, "job_tail_ms is p%g of %d job times, %d beyond it\n", float64(pm)/10, len(lat), beyond)
	fmt.Fprintf(stdout, "setup_s samples: %s\n", joinFloats(setups))
	fmt.Fprintf(stdout, "rss_p50_mb from %d samples over the first %d jobs\n", len(win.rssMB), w.fixedJobs())
	fmt.Fprintf(stdout, "digest %s %s over %d jobs\n", w.name, chk.digest(), len(chk.expect))
	cyc, com := passWork(win)
	pt := passTimes(win)
	fmt.Fprintf(stdout, "one pass simulates %d cycles, %d instructions; pass times %.4f–%.4f s, median %.4f s\n",
		cyc, com, slices.Min(pt), slices.Max(pt), median(pt))
	for _, e := range chk.errs {
		fmt.Fprintln(stdout, "FAIL", e)
	}
	return &report{
		attempted: chk.attempted, failed: chk.failed, defs: endToEndDefs,
		values: map[string]float64{
			"setup_s":     median(setups),
			"jobs_per_s":  throughput(win),
			"sim_kips":    committed / 1000 / secs,
			"job_p50_ms":  median(lat),
			"job_tail_ms": tail,
			"rss_p50_mb":  median(win.rssMB),
		},
	}, nil
}

// passTimes returns each pass's span, first job start to last job end, in
// seconds. Consecutive passes overlap by at most one job per worker.
func passTimes(win *window) []float64 {
	first := make([]time.Duration, len(win.states))
	last := make([]time.Duration, len(win.states))
	for i := range first {
		first[i] = win.elapsed
	}
	for _, r := range win.recs {
		first[r.pass] = min(first[r.pass], r.start)
		last[r.pass] = max(last[r.pass], r.end)
	}
	out := make([]float64, len(first))
	for i := range out {
		out[i] = (last[i] - first[i]).Seconds()
	}
	return out
}

func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

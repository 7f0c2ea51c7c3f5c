// Command perfbench is the repository's benchmark. One invocation runs
// one workload for a fixed measuring window, checks that the
// program's outputs are correct, and prints one JSON line with every
// metric by name and unit:
//
//	perfbench --workload paper|fleet|fleet-control|serve --seed N \
//	          --seconds S --trace 0|1 [--workers 2]
//
// With --trace 0 the line carries the end-to-end metrics, measured
// with tracing off; their timings are CPU time, not wall time (see
// README.md). With --trace 1 the run measures once untraced and
// once traced and reports the per-layer metrics plus the tracing
// overhead. README.md says why each workload exists and how the
// metrics map onto the layers.
//
// The workload seed only generates inputs (the fleet seed, the intent
// set, the serve job specs and experiment.Options.Seed); the program
// never sees it otherwise. Output checks hash simulated results only,
// never host time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// defaultSeed is the seed whose expected digests are recorded in
// expected.go; every other seed computes its reference in the run.
const defaultSeed = 1

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the system sees. Every
// workload reports every one of them (see README.md for the
// per-workload meaning of a "job").
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_cpu_s", "s"},
	{"node_ticks_per_cpu_s", "1/s"},
	{"peak_rss_mb", "MiB"},
}

// paperCalls are the experiment.Context entry points the paper
// workload times, in the order a researcher regenerates the paper.
var paperCalls = []string{
	"fig1", "fig2", "table1", "table2", "table3", "table4",
	"fig5", "fig6", "fig7", "adherence", "fig8", "fig9", "fig10", "fig11",
	"baselines", "seeds", "scorecard",
}

// perLayer lists the single-layer metrics of a traced run. A layer a
// workload does not exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"kernel.ns_per_node_tick", "ns"},
		{"kernel.shard_imbalance", "ratio"},
		{"control.pm_tick_ns", "ns"},
		{"control.ps_tick_ns", "ns"},
		{"cluster.coord_s", "s"},
		{"cluster.barrier_s", "s"},
		{"cluster.construct_s", "s"},
		{"alloc.l1_us", "us"},
		{"alloc.l2_us", "us"},
		{"alloc.l3_us", "us"},
		{"intent.epoch_us", "us"},
		{"intent.submit_us", "us"},
		{"intent.escalations", "count"},
		{"intent.converged", "count"},
		{"mloops.characterize_s", "s"},
	}
	for _, c := range paperCalls {
		defs = append(defs, metricDef{"experiment." + c + "_s", "s"})
	}
	return append(defs,
		metricDef{"paper.claims_passed", "count"},
		metricDef{"paper.claims_total", "count"},
		metricDef{"serve.job_p50_ms", "ms"},
		metricDef{"serve.job_p99_ms", "ms"},
		metricDef{"serve.jobs_per_s", "1/s"},
		metricDef{"serve.queue_wait_ms", "ms"},
		metricDef{"serve.run_ms", "ms"},
		metricDef{"serve.submit_p99_ms", "ms"},
		metricDef{"serve.cache_hit_frac", "ratio"},
		metricDef{"serve.rejected", "count"},
		metricDef{"serve.evicted", "count"},
		metricDef{"serve.gen_late_ms", "ms"},
		metricDef{"telemetry.scrape_ms", "ms"},
		metricDef{"obs.overhead_frac", "ratio"},
		metricDef{"runtime.alloc_mb", "MiB"},
		metricDef{"runtime.gc_cpu_frac", "ratio"},
	)
}()

// run is the shared state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	workers  int
	root     string // checkout root (testdata lives here)
	out      string // build/output directory inside the checkout

	mu                sync.Mutex // guards attempted, failed, problems
	attempted, failed int64
	problems          []string
	e2e               map[string]float64
	layer             map[string]float64
	spans             *tracer
}

// attempt counts one operation.
func (r *run) attempt() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
}

// fail records one failed operation with its reason.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	workload := flag.String("workload", "", "paper, fleet, fleet-control or serve")
	seed := flag.Int64("seed", defaultSeed, "workload seed: generates the inputs")
	seconds := flag.Int("seconds", 20, "measuring window in seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics untraced, 1 = per-layer metrics from a traced run")
	workers := flag.Int("workers", 2, "stepping/serving workers handed to the program")
	root := flag.String("root", ".", "checkout root")
	out := flag.String("out", ".bench_build", "directory for traces and child binaries")
	child := flag.String("child", "", "internal: run one pass in this process (paper, paper-setup, fleet, fleet-control)")
	engine := flag.String("engine", "", "internal: experiment engine for a paper child")
	countTicks := flag.Bool("count-ticks", false, "internal: count simulated ticks in a paper child")
	flag.Parse()

	if *child != "" {
		var err error
		switch *child {
		case "paper", "paper-setup":
			err = paperChild(*child, *seed, *workers, *engine, *trace == 1, *countTicks)
		case "fleet", "fleet-control":
			err = fleetChild(*child == "fleet-control", *seed, *workers, *trace == 1)
		default:
			err = fmt.Errorf("unknown child mode %q", *child)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || *workers < 1 {
		fatal(fmt.Errorf("bad arguments: --seconds >= 1, --trace 0|1, --workers >= 1"))
	}
	r := &run{
		workload: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, workers: *workers, root: *root, out: *out,
		e2e: map[string]float64{}, layer: map[string]float64{},
	}
	if r.traced {
		r.spans = newTracer()
	}
	stealStart, begin := stealTime(), time.Now()
	var err error
	switch *workload {
	case "paper":
		err = runPaper(r)
	case "fleet":
		err = runFleet(r, false)
	case "fleet-control":
		err = runFleet(r, true)
	case "serve":
		err = runServe(r)
	default:
		err = fmt.Errorf("unknown --workload %q (want paper, fleet, fleet-control or serve)", *workload)
	}
	if err != nil {
		fatal(err)
	}
	if r.traced {
		r.layer["control.pm_tick_ns"], r.layer["control.ps_tick_ns"], err = governorTickNs(r.seed)
		if err != nil {
			fatal(err)
		}
		if err := r.spans.write(filepath.Join(r.out, "trace", fmt.Sprintf("%s-seed%d.json", r.workload, r.seed))); err != nil {
			fatal(err)
		}
	}
	if span := time.Since(begin); span > 0 {
		fmt.Printf("host: steal time %.1f%% of the vCPUs' time during the run\n",
			100*float64(stealTime()-stealStart)/float64(span)/float64(runtime.NumCPU()))
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	if err := emit(r); err != nil {
		fatal(err)
	}
}

// result is the last line of standard output.
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

func emit(r *run) error {
	defs, vals := endToEnd, r.e2e
	if r.traced {
		defs, vals = perLayer, r.layer
	}
	rep := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	if rep.Attempted < 1 {
		return fmt.Errorf("%s: no operation attempted", r.workload)
	}
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !r.traced {
			missing = append(missing, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.workload, d.name, v)
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s: end-to-end metrics not measured: %s", r.workload, strings.Join(missing, ", "))
	}
	for name := range vals {
		if _, ok := rep.Metrics[name]; !ok {
			return fmt.Errorf("%s: metric %s is not declared", r.workload, name)
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

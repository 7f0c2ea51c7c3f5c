package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"aapm/internal/experiment"
	"aapm/internal/machine"
	"aapm/internal/mloops"
)

// paperPass is what one paper child process reports: each call's
// wall time and result digest, plus the process-level measurements.
type paperPass struct {
	Calls      []paperCall `json:"calls"`
	WallS      float64     `json:"wall_s"`
	CPUS       float64     `json:"cpu_s"`
	Ticks      int64       `json:"ticks"`
	Passed     int         `json:"passed"`
	Total      int         `json:"total"`
	PeakRSSMiB float64     `json:"peak_rss_mib"`
	AllocMiB   float64     `json:"alloc_mib"`
	GCCPUFrac  float64     `json:"gc_cpu_frac"`
	Spans      []span      `json:"spans,omitempty"`
}

type paperCall struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Digest  string  `json:"digest"`
}

// characterizeCall is the training layer's entry in a pass: the first
// mloops.TrainingSet() of the process, timed on its own.
const characterizeCall = "characterize"

// tickCounter counts simulated ticks; it is only subscribed in the
// reference pass (a hook moves the batch kernel off its fast path).
type tickCounter struct {
	machine.BaseHook
	n *atomic.Int64
}

func (t tickCounter) OnTick(machine.TickState) { t.n.Add(1) }

// paperChild runs in a fresh process: it builds the experiment
// context, says "ready" with the CPU time that took (the paper's
// setup_s), and
// unless it is a setup probe runs every paper call and prints one
// JSON paperPass line. A fresh process per pass keeps the
// process-wide training cache (mloops.TrainingSet) cold.
func paperChild(mode string, seed int64, workers int, engine string, traced, countTicks bool) error {
	var ticks atomic.Int64
	opts := experiment.Options{Seed: seed, Parallelism: workers, Engine: engine}
	if countTicks {
		opts.Observer = func(string, string) machine.Hook { return tickCounter{n: &ticks} }
	}
	ctx, err := experiment.NewContext(opts)
	if err != nil {
		return err
	}
	sayReady()
	if mode == "paper-setup" {
		return nil
	}
	entries := map[string]experiment.Named{}
	for _, e := range experiment.Registry() {
		entries[e.Name] = e
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	pass := &paperPass{}
	before := readRuntime()
	start, cpuStart := time.Now(), cpuTime()
	root := tr.begin("paper.pass", 0)

	t0 := time.Now()
	id := tr.begin("mloops.TrainingSet", root)
	set, err := mloops.TrainingSet()
	if err != nil {
		return fmt.Errorf("training set: %w", err)
	}
	tr.end(id, map[string]float64{"configs": float64(len(set))})
	pass.Calls = append(pass.Calls, paperCall{Name: characterizeCall, Seconds: time.Since(t0).Seconds(), Digest: digest(set)})

	for _, name := range paperCalls {
		e, ok := entries[name]
		if !ok {
			return fmt.Errorf("experiment %q is not in the registry", name)
		}
		t0 := time.Now()
		id := tr.begin("experiment."+name, root)
		res, err := e.Run(ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		tr.end(id, nil)
		took := time.Since(t0).Seconds()
		if sc, ok := res.(*experiment.Scorecard); ok {
			pass.Total = len(sc.Rows)
			for _, row := range sc.Rows {
				if row.Pass {
					pass.Passed++
				}
			}
		}
		pass.Calls = append(pass.Calls, paperCall{Name: name, Seconds: took, Digest: digest(res)})
	}
	pass.WallS = time.Since(start).Seconds()
	pass.CPUS = (cpuTime() - cpuStart).Seconds()
	tr.end(root, nil)
	pass.AllocMiB, pass.GCCPUFrac = readRuntime().since(before)
	if pass.PeakRSSMiB, err = peakRSSMiB(0); err != nil {
		return err
	}
	pass.Ticks = ticks.Load()
	if tr != nil {
		pass.Spans = tr.spans
	}
	return report(pass)
}

// paperSetupProbes is how many extra setup-only children a run starts
// so setup_s is a median over several process starts.
const paperSetupProbes = 9

func runPaper(r *run) error {
	var setups []float64
	for i := 0; i < paperSetupProbes; i++ {
		d, err := spawn(childArgs(r, "paper-setup", r.workers, false), nil)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}

	// Measured passes: untraced passes fill the window (at least one);
	// a traced run adds one traced pass for the per-layer numbers.
	var passes []*paperPass
	begin := time.Now()
	for {
		p := &paperPass{}
		d, err := spawn(childArgs(r, "paper", r.workers, false), p)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		passes = append(passes, p)
		if r.traced || time.Since(begin)+time.Duration(p.WallS*float64(time.Second)) > r.window {
			break
		}
	}
	checked := passes
	var traced *paperPass
	if r.traced {
		id := r.spans.begin("paper.traced-pass", 0)
		p := &paperPass{}
		if _, err := spawn(childArgs(r, "paper", r.workers, true), p); err != nil {
			return err
		}
		r.spans.merge(id, p.Spans)
		r.spans.end(id, nil)
		traced = p
		checked = append(checked, p)
	}

	want, ticks, err := paperReference(r)
	if err != nil {
		return err
	}
	for _, p := range checked {
		for _, c := range p.Calls {
			r.attempted++
			if c.Digest != want[c.Name] {
				r.fail("paper %s: result digest %s, reference %s", c.Name, c.Digest, want[c.Name])
			}
		}
	}
	// A paper job is one whole reproduction (a pass): that is what the
	// researcher waits for. Per-call times are per-layer metrics.
	var walls, cpus, rss []float64
	for _, p := range passes {
		walls = append(walls, p.WallS)
		cpus = append(cpus, p.CPUS)
		rss = append(rss, p.PeakRSSMiB)
	}
	last := passes[len(passes)-1]
	fmt.Printf("paper: pass walls %.3f s, CPU %.3f s\n", walls, cpus)
	fmt.Printf("paper accuracy: %d/%d scorecard claims within tolerance of internal/paperref (seed %d)\n",
		last.Passed, last.Total, r.seed)
	cpu := median(cpus)
	r.e2e["setup_s"] = median(setups)
	r.e2e["job_cpu_s"] = cpu
	r.e2e["node_ticks_per_cpu_s"] = float64(ticks) / cpu
	r.e2e["peak_rss_mb"] = median(rss)

	if traced != nil {
		for _, c := range traced.Calls {
			if c.Name == characterizeCall {
				r.layer["mloops.characterize_s"] = c.Seconds
			} else {
				r.layer["experiment."+c.Name+"_s"] = c.Seconds
			}
		}
		r.layer["paper.claims_passed"] = float64(traced.Passed)
		r.layer["paper.claims_total"] = float64(traced.Total)
		r.layer["runtime.alloc_mb"] = traced.AllocMiB
		r.layer["runtime.gc_cpu_frac"] = traced.GCCPUFrac
		r.layer["obs.overhead_frac"] = traced.CPUS/cpu - 1
	}
	return nil
}

// paperReference returns the expected digest of every call and the
// simulated tick count: recorded for the default seed, otherwise
// computed by a pass on the staged reference engine (which also
// counts the ticks through the hook bus).
func paperReference(r *run) (map[string]string, int64, error) {
	if r.seed == defaultSeed {
		return paperExpected.digests, paperExpected.ticks, nil
	}
	id := r.spans.begin("paper.reference-pass", 0)
	ref := &paperPass{}
	_, err := spawn(append(childArgs(r, "paper", r.workers, false), "-engine", "staged", "-count-ticks"), ref)
	r.spans.end(id, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("staged reference: %w", err)
	}
	want := map[string]string{}
	for _, c := range ref.Calls {
		want[c.Name] = c.Digest
	}
	return want, ref.Ticks, nil
}

package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"aapm/internal/cluster"
	"aapm/internal/intent"
	"aapm/internal/obs"
	"aapm/internal/sensor"
)

// The reference fleet (ROADMAP): 10⁵ synthetic nodes under a 3-level
// allocation tree of fanout 64. fleet runs it as specified there
// (ideal chain, no jitter, 50-tick epochs, 120 ticks of work, a
// budget that never binds); fleet-control adds NI chain noise, a
// binding budget, 5-tick epochs and an intent set.
const (
	fleetNodes        = 100_000
	fleetLevels       = 3
	fleetFanout       = 64
	fleetTicks        = 120
	controlTicks      = 80
	controlEpochTicks = 5
	controlBudgetW    = 12.0 // per node: below the fleet's unconstrained draw
	// budgetSlack is the stated margin of the conservation invariant:
	// the level-1 grants may exceed the root budget by this share only
	// (floating-point rounding of a sum over ~1 600 groups).
	budgetSlack = 1e-9
)

func fleetConfig(seed int64, workers int, control bool) cluster.FleetConfig {
	if !control {
		return cluster.FleetConfig{
			BudgetW: 30 * fleetNodes,
			Nodes:   cluster.SyntheticFleet(fleetNodes, fleetTicks),
			Seed:    seed,
			Levels:  fleetLevels,
			Fanout:  fleetFanout,
			Workers: workers,
		}
	}
	return cluster.FleetConfig{
		BudgetW:    controlBudgetW * fleetNodes,
		Nodes:      cluster.SyntheticFleet(fleetNodes, controlTicks),
		Seed:       seed,
		Chain:      sensor.NIDefault(),
		EpochTicks: controlEpochTicks,
		Levels:     fleetLevels,
		Fanout:     fleetFanout,
		Workers:    workers,
	}
}

// intentSet generates fleet-control's intents from the seed, all on
// full level-1 groups (64 nodes, ≈ 900 W unconstrained, 256 W of node
// floors): loose and tight caps, floors, prefers, drains (which
// escalate to offlining when their nodes do not finish within the
// deadline), and two infeasible specs whose rejection reasons are part
// of the checked output.
func intentSet(seed int64) []intent.Spec {
	rng := rand.New(rand.NewSource(seed))
	groups := rng.Perm(fleetNodes/fleetFanout - 1) // full groups only
	next := func() int { g := groups[0]; groups = groups[1:]; return g }
	uniform := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
	var set []intent.Spec
	caps := make([]int, 6)
	for i := range caps {
		caps[i] = next()
		lo, hi := 550.0, 750.0
		if i%2 == 1 {
			lo, hi = 258, 300 // just above the group's 256 W of node floors
		}
		set = append(set, intent.Spec{Kind: intent.KindCap, Level: 1, Group: caps[i], Watts: math.Round(uniform(lo, hi))})
	}
	for i := 0; i < 3; i++ {
		set = append(set, intent.Spec{Kind: intent.KindFloor, Level: 1, Group: next(), Watts: math.Round(uniform(800, 950))})
	}
	for i := 0; i < 2; i++ {
		set = append(set, intent.Spec{Kind: intent.KindPrefer, Level: 1, Group: next(), Weight: math.Round(uniform(1.5, 4)*4) / 4})
	}
	set = append(set,
		intent.Spec{Kind: intent.KindDrain, Level: 1, Group: next()},
		intent.Spec{Kind: intent.KindDrain, Level: 0, Group: next()*fleetFanout + rng.Intn(fleetFanout)},
		// Infeasible: a floor above a tight cap, a cap below the floors.
		intent.Spec{Kind: intent.KindFloor, Level: 1, Group: caps[1], Watts: 400},
		intent.Spec{Kind: intent.KindCap, Level: 1, Group: next(), Watts: math.Round(uniform(100, 200))},
	)
	return set
}

// checkedControl wraps the intent controller as the fleet's
// FleetControl: it checks the fleet invariants on every epoch's
// observation and times the controller's reconcile step.
type checkedControl struct {
	ctl        *intent.Controller
	spans      *tracer
	parent     int
	epochs     int
	epochWall  time.Duration
	violations []string
	// staleW is the largest amount by which all reported level-1
	// BudgetW, out-of-service groups included, exceeded the root budget.
	staleW float64
}

func (c *checkedControl) Epoch(o cluster.FleetEpochObs) cluster.FleetDirectives {
	c.epochs++
	c.check(o)
	t0 := time.Now()
	d := c.ctl.Epoch(o)
	took := time.Since(t0)
	c.epochWall += took
	c.spans.record("bench", "intent.Controller.Epoch", c.parent, t0, took, map[string]float64{"epoch": float64(o.Epoch)})
	return d
}

// check asserts the conservation and sanity invariants: the grants of
// level-1 groups in service sum to at most the root budget (plus
// budgetSlack), and every grant and observed power is finite and
// non-negative. A group with no node in service holds no share: the
// allocator makes no grant to an inactive child, so the BudgetW it
// reports is its last grant from before it left service. That stale
// figure is tracked separately (staleW) and not counted as a grant.
func (c *checkedControl) check(o cluster.FleetEpochObs) {
	var granted, stale float64
	for g, gr := range o.Groups {
		if !finiteNonNeg(gr.BudgetW) || !finiteNonNeg(gr.AvgPowerW) {
			c.violations = append(c.violations, fmt.Sprintf("epoch %d group %d: grant %v W, power %v W", o.Epoch, g, gr.BudgetW, gr.AvgPowerW))
			return
		}
		if gr.Active > 0 {
			granted += gr.BudgetW
		} else {
			stale += gr.BudgetW
		}
	}
	if granted > o.BudgetW*(1+budgetSlack) {
		c.violations = append(c.violations, fmt.Sprintf("epoch %d: level-1 grants %.6f W exceed the %.1f W root budget", o.Epoch, granted, o.BudgetW))
	}
	c.staleW = max(c.staleW, granted+stale-o.BudgetW)
}

func finiteNonNeg(x float64) bool { return x >= 0 && !math.IsInf(x, 0) }

// tickClock is the fleet run's context with Err instrumented: the
// coordinator checks Err once at the top of every lockstep tick, so
// the first call marks the end of construction and the start of the
// first window.
type tickClock struct {
	context.Context
	first atomic.Int64
}

func (c *tickClock) Err() error {
	if c.first.Load() == 0 {
		c.first.CompareAndSwap(0, time.Now().UnixNano())
	}
	return c.Context.Err()
}

// fleetInput is one pass's prepared input: the config and, for
// fleet-control, a fresh controller with the intent set submitted.
type fleetInput struct {
	cfg      cluster.FleetConfig
	ctl      *intent.Controller
	rejected []string
	submitUS []float64
}

// prepare builds the pass input; its CPU time is the fleet's setup.
func prepare(seed int64, workers int, control bool, spans *tracer) (*fleetInput, error) {
	in := &fleetInput{cfg: fleetConfig(seed, workers, control)}
	if !control {
		return in, nil
	}
	ctl, err := intent.New(intent.Config{
		Capability:     intent.CapabilityOf(in.cfg),
		ConvergeEpochs: 2,
		DeadlineEpochs: 4,
	})
	if err != nil {
		return nil, err
	}
	in.ctl = ctl
	for _, s := range intentSet(seed) {
		t0 := time.Now()
		_, _, reason := ctl.Submit(s)
		took := time.Since(t0)
		spans.record("bench", "intent.Controller.Submit", 0, t0, took, nil)
		in.submitUS = append(in.submitUS, float64(took)/float64(time.Microsecond))
		if reason != nil {
			in.rejected = append(in.rejected, fmt.Sprintf("%s %s/%d/%d: %s", s.Kind, s.ID(), s.Level, s.Group, reason.Code))
		}
	}
	return in, nil
}

// fleetReport is what one fleet child process reports.
type fleetReport struct {
	SetupS     []float64          `json:"setup_s"`
	WallS      float64            `json:"wall_s"`
	CPUS       float64            `json:"cpu_s"`
	NodeTicks  int64              `json:"node_ticks"`
	Epochs     int                `json:"epochs"`
	Digest     string             `json:"digest"`
	Checked    int                `json:"checked_epochs"`
	Violations []string           `json:"violations,omitempty"`
	StaleW     float64            `json:"stale_w"`
	PeakRSSMiB float64            `json:"peak_rss_mib"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	Notes      []string           `json:"notes,omitempty"`
	Spans      []span             `json:"spans,omitempty"`
}

// fleetSetupReps is how often a child builds its input; every build is
// a setup_s sample and the last one runs.
const fleetSetupReps = 15

// fleetChild prepares and runs one fleet pass in this process and
// prints its report.
func fleetChild(control bool, seed int64, workers int, traced bool) error {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	rep := &fleetReport{}
	var in *fleetInput
	for i := 0; i < fleetSetupReps; i++ {
		var spans *tracer
		if i == fleetSetupReps-1 {
			spans = tr
		}
		// Every build starts from a collected heap, as the one build
		// of a user's fresh process does.
		in = nil
		runtime.GC()
		t0 := cpuTime()
		var err error
		if in, err = prepare(seed, workers, control, spans); err != nil {
			return err
		}
		rep.SetupS = append(rep.SetupS, (cpuTime() - t0).Seconds())
	}
	sayReady()

	var ctx context.Context = context.Background()
	var clock *tickClock
	var otr *obs.Trace
	var otracer *obs.Tracer
	root := tr.begin("cluster.RunFleetContext", 0)
	if traced {
		otracer = obs.NewTracer(obs.Config{SampleRate: 1, MaxSpansPerTrace: 1 << 16})
		otr = otracer.Start("fleet", "", nil)
		clock = &tickClock{Context: obs.NewContext(ctx, otr)}
		ctx = clock
	}
	var cc *checkedControl
	if in.ctl != nil {
		cc = &checkedControl{ctl: in.ctl, spans: tr, parent: root}
		in.cfg.Control = cc
	}
	before := readRuntime()
	start, cpuStart := time.Now(), cpuTime()
	res, err := cluster.RunFleetContext(ctx, in.cfg)
	wall, cpu := time.Since(start), cpuTime()-cpuStart
	if err != nil {
		return fmt.Errorf("fleet run: %w", err)
	}
	allocMiB, gcFrac := readRuntime().since(before)
	tr.end(root, map[string]float64{"node_ticks": float64(res.NodeTicks), "epochs": float64(res.Epochs)})

	rep.WallS = wall.Seconds()
	rep.CPUS = cpu.Seconds()
	rep.NodeTicks = res.NodeTicks
	rep.Epochs = res.Epochs
	rep.Digest = fleetDigest(res, in)
	if cc != nil {
		rep.Checked, rep.Violations, rep.StaleW = cc.epochs, cc.violations, cc.staleW
	}
	if rep.PeakRSSMiB, err = peakRSSMiB(0); err != nil {
		return err
	}
	if traced {
		spans, _, _ := otracer.Spans(otr.TraceID())
		for _, s := range spans {
			tr.record("program", s.Name, root, s.Start, time.Duration(s.WallDurUS*float64(time.Microsecond)), s.Attrs)
		}
		firstTick := time.Unix(0, clock.first.Load())
		rep.Layers = fleetLayers(res, spans, start, firstTick)
		rep.Layers["runtime.alloc_mb"] = allocMiB
		rep.Layers["runtime.gc_cpu_frac"] = gcFrac
		if cc != nil {
			rep.Layers["intent.epoch_us"] = float64(cc.epochWall) / float64(time.Microsecond) / float64(max(cc.epochs, 1))
			rep.Layers["intent.submit_us"] = median(in.submitUS)
			rep.Notes = intentSummary(in, rep.Layers)
		}
		rep.Spans = tr.spans
	}
	return report(rep)
}

// fleetDigest hashes the simulated outcome: the FleetResult's
// simulated fields (host-time fields are skipped by digest) and, under
// control, the intents' end states, rejection reasons and the
// controller's transition log.
func fleetDigest(res *cluster.FleetResult, in *fleetInput) string {
	if in.ctl == nil {
		return digest(res)
	}
	return digest(struct {
		Result   *cluster.FleetResult
		Intents  []intent.Status
		Rejected []string
		Events   []string
	}{res, in.ctl.List(), in.rejected, in.ctl.Events()})
}

func runFleet(r *run, control bool) error {
	var passes []*fleetReport
	begin := time.Now()
	for {
		p := &fleetReport{}
		if _, err := spawn(childArgs(r, r.workload, r.workers, false), p); err != nil {
			return err
		}
		passes = append(passes, p)
		if r.traced || time.Since(begin)+time.Duration(p.WallS*float64(time.Second)) > r.window {
			break
		}
	}
	checked := passes
	var tp *fleetReport
	if r.traced {
		tp = &fleetReport{}
		id := r.spans.begin(r.workload+".traced-pass", 0)
		if _, err := spawn(childArgs(r, r.workload, r.workers, true), tp); err != nil {
			return err
		}
		r.spans.merge(id, tp.Spans)
		r.spans.end(id, nil)
		checked = append(checked, tp)
	}

	want, err := fleetReference(r, control)
	if err != nil {
		return err
	}
	for _, p := range checked {
		r.attempted += 1 + int64(p.Checked)
		if p.Digest != want {
			r.fail("%s: result digest %s, reference %s", r.workload, p.Digest, want)
		}
		for _, v := range p.Violations {
			r.fail("%s invariant: %s", r.workload, v)
		}
	}

	var setups, walls, cpus, rates, rss []float64
	for _, p := range passes {
		setups = append(setups, p.SetupS...)
		walls = append(walls, p.WallS)
		cpus = append(cpus, p.CPUS)
		rates = append(rates, float64(p.NodeTicks)/p.CPUS)
		rss = append(rss, p.PeakRSSMiB)
	}
	fmt.Printf("%s: %d node-ticks and %d epochs per run; run walls %.3f s, CPU %.3f s\n", r.workload, passes[0].NodeTicks, passes[0].Epochs, walls, cpus)
	if p := passes[0]; p.StaleW > 0 {
		fmt.Printf("note: out-of-service groups still report their last grant; all reported level-1 BudgetW exceeded the root budget by up to %.1f W\n", p.StaleW)
	}
	cpu := median(cpus)
	r.e2e["setup_s"] = median(setups)
	r.e2e["job_cpu_s"] = cpu
	r.e2e["node_ticks_per_cpu_s"] = median(rates)
	r.e2e["peak_rss_mb"] = median(rss)

	if tp != nil {
		for k, v := range tp.Layers {
			r.layer[k] = v
		}
		r.layer["obs.overhead_frac"] = tp.CPUS/cpu - 1
		for _, n := range tp.Notes {
			fmt.Println(n)
		}
	}
	return nil
}

// fleetLayers computes the per-layer metrics of a traced pass from the
// result's host-time fields and the run's obs spans.
func fleetLayers(res *cluster.FleetResult, spans []obs.Span, start, firstTick time.Time) map[string]float64 {
	m := map[string]float64{}
	// Kernel: the slowest worker's shard wall over its node-ticks.
	// Worker k steps nodes k, k+w, …; a node's tick count is estimated
	// from its simulated duration in 10 ms monitoring intervals and
	// scaled to the exact total (offline nodes keep a duration but are
	// no longer stepped).
	w := len(res.WorkerWall)
	workerTicks := make([]int64, w)
	var sum int64
	for i, run := range res.Runs {
		n := int64(math.Ceil(run.Duration.Seconds()/0.010 - 1e-9))
		workerTicks[i%w] += n
		sum += n
	}
	slow, minWall, maxWall := 0, time.Duration(math.MaxInt64), time.Duration(0)
	for k, ww := range res.WorkerWall {
		if ww.Total > res.WorkerWall[slow].Total {
			slow = k
		}
		minWall = min(minWall, ww.Total)
		maxWall = max(maxWall, ww.Total)
	}
	if workerTicks[slow] > 0 {
		ticks := float64(workerTicks[slow]) * float64(res.NodeTicks) / float64(sum)
		m["kernel.ns_per_node_tick"] = float64(res.WorkerWall[slow].Total.Nanoseconds()) / ticks
	}
	if minWall > 0 {
		m["kernel.shard_imbalance"] = float64(maxWall) / float64(minWall)
	}

	// Cluster: coordinator passes, construction (run start to the first
	// tick), and the barrier: per epoch window, wall minus the slowest
	// shard, summed, minus the coordinator's passes.
	m["cluster.coord_s"] = res.CoordWall.Total.Seconds()
	m["cluster.construct_s"] = firstTick.Sub(start).Seconds()
	slowest := map[float64]float64{}
	var lastShard time.Time
	levelSum := map[int]float64{}
	levelN := map[int]int{}
	for _, s := range spans {
		switch s.Name {
		case "shard-step":
			slowest[s.VirtUS] = max(slowest[s.VirtUS], s.WallDurUS)
			if s.Start.After(lastShard) {
				lastShard = s.Start
			}
		case "reallocate":
			l := int(s.Attrs["level"])
			levelSum[l] += s.WallDurUS
			levelN[l]++
		}
	}
	var shardUS float64
	for _, v := range slowest {
		shardUS += v
	}
	if !lastShard.IsZero() {
		barrier := lastShard.Sub(firstTick).Seconds() - shardUS/1e6 - res.CoordWall.Total.Seconds()
		m["cluster.barrier_s"] = max(barrier, 0)
	}
	// Alloc: mean per-epoch wall per tree level (attr level 0 splits a
	// level-1 group over its nodes; the top level is the root).
	for l := 0; l < fleetLevels; l++ {
		if levelN[l] > 0 {
			m[fmt.Sprintf("alloc.l%d_us", l+1)] = levelSum[l] / float64(levelN[l])
		}
	}
	return m
}

// intentSummary fills the intent counts and returns one line per
// intent and per rejection for the run's output.
func intentSummary(in *fleetInput, m map[string]float64) []string {
	var lines []string
	var esc, conv int
	sts := in.ctl.List()
	sort.Slice(sts, func(i, j int) bool { return sts[i].ID < sts[j].ID })
	for _, st := range sts {
		esc += st.Escalations
		if st.State == intent.StateConverged {
			conv++
		}
		lines = append(lines, fmt.Sprintf("intent %s %s level %d group %d: %s phase=%s escalations=%d observed=%.1fW",
			st.ID, st.Spec.Kind, st.Spec.Level, st.Spec.Group, st.State, st.Phase, st.Escalations, st.ObservedW))
	}
	for _, rej := range in.rejected {
		lines = append(lines, "intent rejected: "+rej)
	}
	m["intent.escalations"] = float64(esc)
	m["intent.converged"] = float64(conv)
	return lines
}

// fleetReference returns the expected digest: recorded for the
// default seed, otherwise computed by a 1-worker pass.
func fleetReference(r *run, control bool) (string, error) {
	if r.seed == defaultSeed {
		if control {
			return fleetControlExpected, nil
		}
		return fleetExpected, nil
	}
	id := r.spans.begin("reference-pass-1-worker", 0)
	ref := &fleetReport{}
	_, err := spawn(childArgs(r, r.workload, 1, false), ref)
	r.spans.end(id, nil)
	if err != nil {
		return "", fmt.Errorf("1-worker reference: %w", err)
	}
	return ref.Digest, nil
}

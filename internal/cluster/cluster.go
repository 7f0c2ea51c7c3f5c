// Package cluster co-simulates several machines sharing one power
// budget — the paper's first motivating deployment for PM ("(i)
// controlling multiple components with shared power supply/cooling
// resources", §IV-A; compare Felter et al., cited in §II, on shared
// budgets).
//
// One coordinator loop (RunFleetContext, hierarchy.go) steps every
// machine in lockstep and periodically redistributes the global budget
// as per-machine PM limits: each epoch a node's share follows its
// measured appetite, floored so no node starves, so slack left by
// memory-bound phases flows to power-hungry neighbours within the same
// global cap. Run is the flat entry point: a one-level fleet with
// traces retained.
//
// Stepping is parallel: each tick the active nodes are stepped
// concurrently across a persistent worker pool (Config.Workers), with
// a barrier before the coordinator reads any node state. Traces are
// identical for every worker count — each node owns its seeded RNG,
// workers step disjoint lanes of one kernel.BatchState, and all
// cross-node reads happen post-barrier in node-index order (see
// DESIGN.md, "Parallel cluster coordinator").
package cluster

import (
	"context"
	"math"
	"time"

	"aapm/internal/alloc"
	"aapm/internal/control"
	"aapm/internal/machine"
	"aapm/internal/metrics"
	"aapm/internal/phase"
	"aapm/internal/pstate"
	"aapm/internal/sensor"
	"aapm/internal/telemetry"
	"aapm/internal/trace"
)

// Node is one machine's assignment.
type Node struct {
	// Name labels the node; defaults to the workload name.
	Name     string
	Workload phase.Workload
}

// Config describes a shared-budget co-simulation.
type Config struct {
	// BudgetW is the global power cap the per-node limits must sum to.
	BudgetW float64
	// Nodes are the participating machines.
	Nodes []Node
	// Seed drives each node's noise/jitter (offset per node).
	Seed int64
	// Chain is each node's measurement chain.
	Chain sensor.Chain
	// EpochTicks is the reallocation period in monitoring intervals;
	// 0 selects 50 (500 ms at the default 10 ms period).
	EpochTicks int
	// FloorW is the per-node minimum allocation; 0 selects 4 W
	// (enough for the lowest p-state under any workload).
	FloorW float64
	// Static disables reallocation: every node keeps BudgetW/len(Nodes)
	// for the whole run (the naive equal split baseline).
	Static bool
	// Workers bounds the stepping goroutines: each tick the active
	// sessions are stepped concurrently across min(Workers, nodes)
	// workers. 0 selects min(GOMAXPROCS, nodes); 1 steps every node
	// in the coordinator goroutine (the serial reference). The traces
	// are identical for every value.
	Workers int
	// Telemetry, when non-nil, receives the coordinator's live
	// metrics: one aapm_* series set per node (via telemetry.Observer
	// on each node's Hook bus) plus the one-level fleet's aapm_fleet_*
	// families — per-worker shard wall-clock histograms,
	// reallocation-epoch and budget-violation counters, and the
	// per-node limit gauges (aapm_fleet_group_budget_watts, level
	// "0"). Purely observational — the registry never feeds back into
	// stepping or reallocation, so traces stay byte-identical with
	// telemetry enabled.
	Telemetry *telemetry.Registry
	// Observe, when non-nil, returns an extra Hook subscribed to node
	// i's bus before the run (nil return skips that node) — e.g. a
	// telemetry.TraceEventWriter run hook per node.
	Observe func(i int, name string) machine.Hook
}

// Result is the co-simulation outcome.
type Result struct {
	// Runs holds each node's trace in Config.Nodes order.
	Runs []*trace.Run
	// Names mirrors Runs.
	Names []string
	// MachineSeconds is the sum of node completion times (lower is
	// better for equal work).
	MachineSeconds float64
	// Makespan is the time until the last node finished.
	Makespan time.Duration
	// PeakTotalW is the highest lockstep-interval sum of measured
	// node powers across the whole run.
	PeakTotalW float64
	// OverFrac is the fraction of all lockstep intervals — including
	// the tail where some nodes have already finished — whose total
	// measured power exceeded the budget. It is the physical
	// shared-supply view: the supply is violated whenever the sum of
	// whatever is still drawing exceeds the cap, so tail intervals
	// legitimately count (and, with fewer nodes drawing, almost never
	// violate, which dilutes the ratio on runs with long tails).
	OverFrac float64
	// ContendedOverFrac is the same ratio restricted to contended
	// intervals — those where every node was still active. It is the
	// coordinator-quality view: the only intervals where reallocation
	// has to arbitrate the full population, undiluted by the tail.
	// ContendedIntervals counts them.
	ContendedOverFrac  float64
	ContendedIntervals int
	// Workers is the stepping-goroutine count the run used. TickWall
	// is the per-worker shard-stepping wall-clock, merged across all
	// workers (metrics.WallClock.Merge) so the distribution tails —
	// the fastest and slowest shard-ticks — survive aggregation;
	// WorkerWall keeps the unmerged per-worker aggregates. CoordWall
	// times the coordinator's post-barrier work per tick (aggregation
	// and reallocation). All purely observational wall-clock.
	Workers    int
	TickWall   metrics.WallClock
	WorkerWall []metrics.WallClock
	CoordWall  metrics.WallClock
}

// Run executes the co-simulation to completion.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes the co-simulation under ctx: cancellation (or a
// deadline) is observed between lockstep ticks, abandoning the run
// with ctx's error. A nil ctx behaves like context.Background.
//
// A flat cluster is a one-level fleet: the run is RunFleetContext with
// Levels 1 and traces retained, and the result is copied over.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	epoch := cfg.EpochTicks
	if cfg.Static {
		// No tick is a positive multiple of MaxInt, so the fleet never
		// reallocates and every node keeps BudgetW/n.
		epoch = math.MaxInt
	}
	observe := cfg.Observe
	if reg := cfg.Telemetry; reg != nil {
		observe = func(i int, name string) machine.Hook {
			var h machine.Hook = telemetry.NewObserver(reg, name, "pm")
			if cfg.Observe != nil {
				if o := cfg.Observe(i, name); o != nil {
					h = hookPair{h, o}
				}
			}
			return h
		}
	}
	fr, err := RunFleetContext(ctx, FleetConfig{
		BudgetW:      cfg.BudgetW,
		Nodes:        cfg.Nodes,
		Seed:         cfg.Seed,
		Chain:        cfg.Chain,
		EpochTicks:   epoch,
		FloorW:       cfg.FloorW,
		Workers:      cfg.Workers,
		Levels:       1,
		RetainTraces: true,
		Telemetry:    cfg.Telemetry,
		Observe:      observe,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Runs:               fr.Runs,
		Names:              fr.Names,
		MachineSeconds:     fr.MachineSeconds,
		Makespan:           fr.Makespan,
		PeakTotalW:         fr.PeakTotalW,
		OverFrac:           fr.OverFrac,
		ContendedOverFrac:  fr.ContendedOverFrac,
		ContendedIntervals: fr.ContendedIntervals,
		Workers:            fr.Workers,
		TickWall:           fr.TickWall,
		WorkerWall:         fr.WorkerWall,
		CoordWall:          fr.CoordWall,
	}, nil
}

// hookPair fans one node's bus events out to two hooks, in order.
type hookPair [2]machine.Hook

func (p hookPair) OnTick(ts machine.TickState)        { p[0].OnTick(ts); p[1].OnTick(ts) }
func (p hookPair) OnTransition(tr machine.Transition) { p[0].OnTransition(tr); p[1].OnTransition(tr) }
func (p hookPair) OnDegradation(d trace.Degradation)  { p[0].OnDegradation(d); p[1].OnDegradation(d) }
func (p hookPair) OnDone(r *trace.Run)                { p[0].OnDone(r); p[1].OnDone(r) }

// usable reports whether a node observation is fit for accumulation
// (faulted sensors and counters can hand the coordinator NaN/Inf).
func usable(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0 }

// demand is one node's reallocation input, assembled post-barrier by
// the coordinator from the epoch accumulators and the node's latest
// observation.
type demand struct {
	// active is false once the node finished (its share is released).
	active bool
	// hold keeps the node's previous share: it is active but produced
	// no fresh observation all epoch, so its latest one is stale.
	hold bool
	// useDPC marks dpc as valid; dpc is the epoch-average (or, as a
	// fallback, last-observed) decode rate the desire is evaluated at.
	useDPC bool
	dpc    float64
	// avgW is the epoch-average measured power (0 when unknown): a
	// lower bound on the node's demand, since it was drawn at the
	// current — possibly capped — p-state.
	avgW float64
}

// assembleDemand builds one node's reallocation input from its epoch
// accumulators and latest observation: done/seq/lastDPC come from the
// kernel's post-barrier accessors, the rest are the coordinator's
// per-epoch accumulators.
func assembleDemand(d *demand, done bool, recentW, recentDPC float64, recentN int, epochFresh bool, seq uint64, lastDPC float64) {
	*d = demand{active: !done}
	if !d.active {
		return
	}
	switch {
	case recentN > 0:
		// The epoch average, not the last tick: a one-tick
		// spike must not swing a whole epoch's shares.
		d.useDPC = true
		d.dpc = recentDPC / float64(recentN)
		d.avgW = recentW / float64(recentN)
	case !epochFresh && seq > 0:
		// The node last emitted in an earlier epoch: it
		// has effectively gone dark (e.g. degraded
		// offline mid-epoch). Hold its previous share rather
		// than reallocating on stale data.
		d.hold = true
	case seq > 0 && usable(lastDPC):
		// Fresh observation but no full-epoch average (e.g.
		// power readings dropped all epoch): fall back to it.
		d.useDPC = true
		d.dpc = lastDPC
	}
}

// budgetMarginW is the small headroom added to each node's desire so
// intensity jitter does not trip a tightly fitted limit.
const budgetMarginW = alloc.DefaultMarginW

// nodeAgg adapts one node's demand record to the alloc.Aggregate
// summary the level-agnostic allocator consumes. Its HeldW reads the
// live limits slice, so holds accumulated during an Allocate see the
// share as of the epoch boundary (apply callbacks fire only after all
// summaries are read).
type nodeAgg struct {
	d      *demand
	pm     *control.PerformanceMaximizer
	table  *pstate.Table
	limits []float64
	i      int
}

func (a *nodeAgg) Active() bool { return a.d.active }
func (a *nodeAgg) Stale() bool  { return a.d.hold }
func (a *nodeAgg) HeldW() float64 {
	return a.limits[a.i]
}
func (a *nodeAgg) DesireW() float64 {
	if !a.d.useDPC {
		return math.NaN()
	}
	return a.pm.BudgetDesireW(a.table, a.d.dpc)
}
func (a *nodeAgg) RecentPowerW() float64       { return a.d.avgW }
func (a *nodeAgg) RecentDPC() float64          { return a.d.dpc }
func (a *nodeAgg) MinW(floorW float64) float64 { return floorW }

// leafAlloc is the fleet's level-0 allocation: one nodeAgg adapter per
// node over the coordinator's demand records, with each grant applied
// to the node's recorded share and its PM limit.
type leafAlloc struct {
	kids   []alloc.Aggregate
	limits []float64
	pms    []*control.PerformanceMaximizer
}

func newLeafAlloc(table *pstate.Table, demands []demand, pms []*control.PerformanceMaximizer, limits []float64) *leafAlloc {
	aggs := make([]nodeAgg, len(demands))
	kids := make([]alloc.Aggregate, len(demands))
	for i := range aggs {
		aggs[i] = nodeAgg{d: &demands[i], pm: pms[i], table: table, limits: limits, i: i}
		kids[i] = &aggs[i]
	}
	return &leafAlloc{kids: kids, limits: limits, pms: pms}
}

// allocate redistributes budget over nodes [lo, hi): each node with a
// usable epoch average asks for the power its PM would need to run the
// top p-state at that average decode rate (at least its average
// measured draw), held nodes keep their previous share off the top of
// the budget, and finished nodes release theirs. The policy and
// waterfill live in package alloc.
func (la *leafAlloc) allocate(al *alloc.Allocator, budget, floor float64, lo, hi int) {
	al.Allocate(budget, floor, la.kids[lo:hi], func(k int, w float64) {
		i := lo + k
		la.limits[i] = w
		la.pms[i].SetLimit(w)
	})
}

// shardWallBuckets are the per-worker shard-step histogram bounds in
// seconds: a shard-tick is typically single-digit microseconds, with
// a long tail under contention.
var shardWallBuckets = []float64{1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 5e-4, 1e-3, 1e-2}

// The coordinator loop: shared-budget co-simulation scaled to 10⁵+
// nodes by running the level-agnostic allocator (package alloc) at
// every tier of a tree. Leaves are index ranges of one
// kernel.BatchState stepped by the worker pool; interior levels
// aggregate their children's epoch demands into group summaries and
// re-run the same Allocator; the root holds the global cap. Grouping
// is by consecutive node index with a fixed fanout, so group
// membership is a pure function of (index, fanout) and needs no
// per-node storage.
//
// Determinism anchor: with Levels == 1 the hierarchy degenerates to a
// single Allocate over all leaves — the flat cluster Run executes,
// whose traces are pinned byte for byte against the staged-session
// reference by a committed golden fixture. At any depth every
// cross-node read happens post-barrier in index order on the
// coordinator goroutine and the top-down recursion visits groups in
// index order, so traces are byte-identical for every worker count.
//
// Memory: the per-node footprint is the BatchState's lanes plus one
// machine/PM/run header — no per-node goroutines, hooks, RNGs (unless
// the workload jitters or the chain is noisy) or retained trace rows
// unless FleetConfig.RetainTraces asks for them. TestFleetMemoryBudget
// pins the measured bytes/node.
package cluster

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"aapm/internal/alloc"
	"aapm/internal/control"
	"aapm/internal/faults"
	"aapm/internal/kernel"
	"aapm/internal/machine"
	"aapm/internal/metrics"
	"aapm/internal/obs"
	"aapm/internal/phase"
	"aapm/internal/power"
	"aapm/internal/sensor"
	"aapm/internal/telemetry"
	"aapm/internal/trace"
)

// FleetConfig describes a hierarchical shared-budget co-simulation.
type FleetConfig struct {
	// BudgetW is the global power cap held by the root.
	BudgetW float64
	// Nodes are the leaf machines (see SyntheticFleet for bulk
	// construction).
	Nodes []Node
	// Seed drives each node's noise/jitter (offset per node, same
	// scheme as Config.Seed).
	Seed int64
	// Chain is each node's measurement chain.
	Chain sensor.Chain
	// EpochTicks is the reallocation period; 0 selects 50.
	EpochTicks int
	// FloorW is the per-node minimum allocation; 0 selects 4 W.
	FloorW float64
	// Workers bounds the stepping goroutines, as Config.Workers.
	Workers int
	// Levels is the allocation-tree depth above the leaves: 1 (the
	// default) is the root allocating straight over nodes — the flat
	// cluster Run executes; 2 inserts one tier of groups; and so on.
	// Each extra level re-runs the same allocator over the level
	// below's aggregates.
	Levels int
	// Fanout is the maximum children per group (consecutive node
	// indices); 0 selects 64. Must be >= 2 when Levels > 1.
	Fanout int
	// Groups, when non-nil, defines the first interior level's groups
	// (length must equal the level-1 group count, requires Levels >=
	// 2): heterogeneous per-group guaranteed minima plumbed into the
	// water-fill through alloc.Aggregate.MinW.
	Groups []GroupSpec
	// Control, when non-nil, is the control-plane hook: called at
	// every reallocation epoch with the fleet's group observations,
	// its directives (group floors/caps/weights, node pins/offlines)
	// apply to that epoch's allocation. See FleetControl.
	Control FleetControl
	// Faults, when non-nil, supplies node i's fault-injection plan
	// (nil result = no faults for that node), the PR-1 machinery the
	// control plane's hard escalation is exercised against.
	Faults func(i int) *faults.Plan
	// RetainTraces keeps every node's per-interval rows. Off by
	// default: at fleet scale the rows dwarf the simulation state.
	RetainTraces bool
	// Telemetry, when non-nil, receives the fleet-level series:
	// per-level group budgets (level 0 being the per-node PM limits)
	// and over-budget counters, per-level allocation wall, and the
	// cluster-wide aggregates. Purely observational.
	Telemetry *telemetry.Registry
	// Observe, when non-nil, returns an extra Hook subscribed to node
	// i's bus before the run (nil return skips that node), as
	// Config.Observe. Any hook moves the whole batch off the kernel's
	// hook-free step bodies onto the generic one.
	Observe func(i int, name string) machine.Hook
}

// FleetResult is the hierarchical co-simulation outcome. The flat
// aggregate fields mean exactly what they do on Result.
type FleetResult struct {
	Nodes  int
	Levels int
	Fanout int
	// GroupsPerLevel[l] is the group count at interior level l+1
	// (empty when Levels == 1).
	GroupsPerLevel []int
	// Runs/Names as Result; with RetainTraces off each Run carries
	// aggregates (duration, energy, transitions) but no rows.
	Runs  []*trace.Run
	Names []string

	MachineSeconds     float64
	Makespan           time.Duration
	PeakTotalW         float64
	OverFrac           float64
	ContendedOverFrac  float64
	ContendedIntervals int
	// Intervals counts lockstep intervals; Epochs counts completed
	// reallocations; NodeTicks counts node-steps (the throughput
	// numerator for node-ticks/sec).
	Intervals int
	Epochs    int
	NodeTicks int64

	Workers    int
	TickWall   metrics.WallClock
	WorkerWall []metrics.WallClock
	CoordWall  metrics.WallClock
}

// fleetShape is the static tree geometry: counts[0] is the node
// count, counts[l] the group count at level l (ceil division by
// fanout, consecutive indices), up to counts[levels-1] directly under
// the root.
type fleetShape struct {
	levels, fanout int
	counts         []int
	// spanSize[l] is the node-index span one level-l group covers
	// (fanout^l clamped to n).
	spanSize []int
}

func fleetShapeOf(n, levels, fanout int) fleetShape {
	s := fleetShape{levels: levels, fanout: fanout}
	s.counts = make([]int, levels)
	s.spanSize = make([]int, levels)
	s.counts[0] = n
	s.spanSize[0] = 1
	for l := 1; l < levels; l++ {
		s.counts[l] = (s.counts[l-1] + fanout - 1) / fanout
		s.spanSize[l] = min(s.spanSize[l-1]*fanout, n)
	}
	return s
}

// childRange returns the index range [lo, hi) of level-(l-1) entities
// under level-l group g.
func (s fleetShape) childRange(l, g int) (lo, hi int) {
	lo = g * s.fanout
	hi = min(lo+s.fanout, s.counts[l-1])
	return lo, hi
}

// groupAgg is an interior group's epoch summary: sums over its
// children assembled bottom-up each epoch. A group is never stale —
// staleness is a leaf property; a stale leaf's held share is folded
// into both the group's ask and its guaranteed minimum, so every
// ancestor keeps paying the hold.
type groupAgg struct {
	active bool
	askW   float64
	minW   float64
}

func (g *groupAgg) Active() bool                { return g.active }
func (g *groupAgg) Stale() bool                 { return false }
func (g *groupAgg) HeldW() float64              { return 0 }
func (g *groupAgg) DesireW() float64            { return g.askW }
func (g *groupAgg) RecentPowerW() float64       { return 0 }
func (g *groupAgg) RecentDPC() float64          { return 0 }
func (g *groupAgg) MinW(floorW float64) float64 { return g.minW }

// RunFleet executes the hierarchical co-simulation to completion.
func RunFleet(cfg FleetConfig) (*FleetResult, error) {
	return RunFleetContext(context.Background(), cfg)
}

// RunFleetContext executes the hierarchical co-simulation under ctx,
// observing cancellation between lockstep ticks.
func RunFleetContext(ctx context.Context, cfg FleetConfig) (*FleetResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(cfg.Nodes)
	if n == 0 {
		return nil, fmt.Errorf("fleet: no nodes")
	}
	if cfg.BudgetW <= 0 {
		return nil, fmt.Errorf("fleet: non-positive budget")
	}
	floor := cfg.FloorW
	if floor == 0 {
		floor = 4
	}
	if floor*float64(n) > cfg.BudgetW {
		return nil, fmt.Errorf("fleet: budget %.1f W cannot cover %d nodes at the %.1f W floor", cfg.BudgetW, n, floor)
	}
	epoch := cfg.EpochTicks
	if epoch <= 0 {
		epoch = 50
	}
	levels := cfg.Levels
	if levels == 0 {
		levels = 1
	}
	if levels < 1 || levels > 16 {
		return nil, fmt.Errorf("fleet: levels %d out of range [1, 16]", cfg.Levels)
	}
	fanout := cfg.Fanout
	if fanout == 0 {
		fanout = 64
	}
	if levels > 1 && fanout < 2 {
		return nil, fmt.Errorf("fleet: fanout %d must be >= 2 with %d levels", cfg.Fanout, levels)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	shape := fleetShapeOf(n, levels, fanout)

	var staticMin []float64
	if cfg.Groups != nil {
		if levels < 2 {
			return nil, fmt.Errorf("fleet: Groups requires Levels >= 2 (got %d)", levels)
		}
		if len(cfg.Groups) != shape.counts[1] {
			return nil, fmt.Errorf("fleet: %d group specs for %d level-1 groups", len(cfg.Groups), shape.counts[1])
		}
		staticMin = make([]float64, len(cfg.Groups))
		units := make([]int, len(cfg.Groups))
		for g, gs := range cfg.Groups {
			if gs.MinW < 0 || gs.MinW != gs.MinW {
				return nil, fmt.Errorf("fleet: group %d MinW %g invalid", g, gs.MinW)
			}
			staticMin[g] = gs.MinW
			lo := g * shape.spanSize[1]
			units[g] = min(lo+shape.spanSize[1], n) - lo
		}
		if need := alloc.MinTotalW(floor, units, staticMin); need > cfg.BudgetW {
			return nil, fmt.Errorf("fleet: budget %.1f W cannot cover the %.1f W of group minima", cfg.BudgetW, need)
		}
	}

	// One ground truth (and so one p-state table) for the whole fleet:
	// the per-node values are identical to what machine.New would build
	// per node, so traces match per-node machines bit for bit, but a
	// single shared table keeps the kernel's interned behavior/frequency
	// caches to one entry set instead of one per node.
	truth := power.PentiumM755Truth()
	table := truth.Table()
	share := cfg.BudgetW / float64(n)
	machines := make([]*machine.Machine, n)
	pms := make([]*control.PerformanceMaximizer, n)
	names := make([]string, n)
	for i, node := range cfg.Nodes {
		name := node.Name
		if name == "" {
			name = node.Workload.Name
		}
		names[i] = name
		mcfg := machine.Config{
			Truth: truth,
			Chain: cfg.Chain,
			Seed:  cfg.Seed + int64(i)*7919,
		}
		if cfg.Faults != nil {
			mcfg.Faults = cfg.Faults(i)
		}
		m, err := machine.New(mcfg)
		if err != nil {
			return nil, err
		}
		pm, err := control.NewPerformanceMaximizer(control.PMConfig{LimitW: share, FeedbackGain: 0.25})
		if err != nil {
			return nil, err
		}
		machines[i] = m
		pms[i] = pm
	}
	bnodes := make([]kernel.BatchNode, n)
	for i, node := range cfg.Nodes {
		bnodes[i] = kernel.BatchNode{Machine: machines[i], Workload: node.Workload, Governor: pms[i]}
	}
	opts := kernel.BatchOptions{RetainTraces: cfg.RetainTraces}
	if cfg.Observe != nil {
		opts.Hooks = func(i int) []machine.Hook {
			if h := cfg.Observe(i, names[i]); h != nil {
				return []machine.Hook{h}
			}
			return nil
		}
	}
	bs, err := kernel.NewBatch(bnodes, opts)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}

	// Control-plane state: node overrides are written post-barrier on
	// the coordinator goroutine and read by the workers only after the
	// next generation advance, so the pool's happens-before edges cover
	// them. With Control nil none of this exists and the step function
	// is the kernel's, untouched.
	ctl := cfg.Control
	stepFn := bs.StepNode
	var nodeOv []NodeOverride
	var ctlW []float64
	ctlTicks := 0
	if ctl != nil {
		nodeOv = make([]NodeOverride, n)
		if levels > 1 {
			ctlW = make([]float64, shape.counts[1])
		}
		stepFn = func(i int) bool {
			if nodeOv[i] == NodeOffline {
				return false
			}
			return bs.StepNode(i)
		}
	}

	st := &stepper{
		workers: workers,
		n:       n,
		step:    stepFn,
		stepped: make([]bool, n),
		wall:    make([]metrics.WallClock, workers),
	}
	var ft *fleetTelemetry
	if cfg.Telemetry != nil {
		ft = newFleetTelemetry(cfg.Telemetry, cfg.BudgetW, workers, shape)
		st.shardWall = ft.shardWall
	}
	var pool *workerPool
	if workers > 1 {
		pool = newWorkerPool(ctx, fmt.Sprintf("fleet-l%d", levels), workers, st.shard)
		defer pool.close()
	}
	// Tracing is epoch-granular here too: an unsampled (or absent)
	// trace makes spans nil and the per-tick loop does no span work.
	spans := newCoordSpans(obs.FromContext(ctx), machines[0].SamplePeriod(), st, workers)
	spans.trackLevels(shape.counts)

	res := &FleetResult{
		Nodes: n, Levels: levels, Fanout: fanout,
		Names: names, Workers: workers,
	}
	for l := 1; l < levels; l++ {
		res.GroupsPerLevel = append(res.GroupsPerLevel, shape.counts[l])
	}

	limits := make([]float64, n)
	for i := range limits {
		limits[i] = share
	}
	recentW := make([]float64, n)
	recentDPC := make([]float64, n)
	recentN := make([]int, n)
	lastSeq := make([]uint64, n)
	epochFresh := make([]bool, n)
	demands := make([]demand, n)

	// Persistent allocation state: leaf adapters over the demand
	// records, one groupAgg row per interior level, one Allocator per
	// level (scratch is reused across epochs, and the top-down
	// recursion runs level l's Allocate to completion inside level
	// l+1's apply callback, so per-level instances never re-enter).
	leaves := newLeafAlloc(table, demands, pms, limits)
	groupAggs := make([][]groupAgg, levels)
	groupKids := make([][]alloc.Aggregate, levels)
	// budgets[l][g] is level-l entity g's current grant; the leaves'
	// grants are their limits.
	budgets := make([][]float64, levels)
	budgets[0] = limits
	for l := 1; l < levels; l++ {
		groupAggs[l] = make([]groupAgg, shape.counts[l])
		groupKids[l] = make([]alloc.Aggregate, shape.counts[l])
		budgets[l] = make([]float64, shape.counts[l])
		for g := range groupAggs[l] {
			groupKids[l][g] = &groupAggs[l][g]
			// Until the first epoch, over-budget accounting uses the
			// node-proportional split of the cap.
			lo := g * shape.spanSize[l]
			hi := min(lo+shape.spanSize[l], n)
			budgets[l][g] = cfg.BudgetW * float64(hi-lo) / float64(n)
		}
	}
	allocators := make([]alloc.Allocator, levels)
	for l := range allocators {
		allocators[l].MarginW = budgetMarginW
	}
	// distribute splits budget over level-l entities [lo, hi): leaves
	// get their PM limits set; a group recurses with its grant. Groups
	// are visited in index order at every level, so the leaf apply
	// order — and with it every trace byte — is worker-count
	// independent.
	var distribute func(l, lo, hi int, budget float64)
	distribute = func(l, lo, hi int, budget float64) {
		var t0 time.Time
		if ft != nil || spans.active() {
			t0 = time.Now()
		}
		al := &allocators[l]
		if l == 0 {
			leaves.allocate(al, budget, floor, lo, hi)
		} else {
			al.Allocate(budget, floor, groupKids[l][lo:hi], func(k int, w float64) {
				g := lo + k
				budgets[l][g] = w
				clo, chi := shape.childRange(l, g)
				distribute(l-1, clo, chi, w)
			})
		}
		if ft != nil || spans.active() {
			// Inclusive wall: a level's sample covers its own Allocate
			// plus the recursion below it (the root sample is the whole
			// epoch's allocation cost).
			d := time.Since(t0)
			if ft != nil {
				ft.wallAcc[l] += d
			}
			spans.levelDur(l, d)
		}
	}
	// aggregate rebuilds the interior summaries bottom-up from the
	// fresh demand records. Stale leaves fold their held share into
	// both ask and min; interior children are never stale. Static
	// group minima and the control plane's epoch directives fold in
	// after the child sums — with neither configured the loop is the
	// plain sum, byte-identical to a control-free run.
	pol := &allocators[0]
	var dirGroups [][]GroupDirective
	aggregate := func() {
		for l := 1; l < levels; l++ {
			kids := leaves.kids
			if l > 1 {
				kids = groupKids[l-1]
			}
			var dirs []GroupDirective
			if l < len(dirGroups) {
				dirs = dirGroups[l]
			}
			for g := range groupAggs[l] {
				lo, hi := shape.childRange(l, g)
				ga := &groupAggs[l][g]
				*ga = groupAgg{}
				for _, c := range kids[lo:hi] {
					if !c.Active() {
						continue
					}
					ga.active = true
					if c.Stale() {
						h := c.HeldW()
						ga.askW += h
						ga.minW += h
						continue
					}
					ga.minW += c.MinW(floor)
					ga.askW += pol.EffectiveDesireW(c, floor)
				}
				if l == 1 && staticMin != nil && ga.minW < staticMin[g] {
					ga.minW = staticMin[g]
				}
				if dirs != nil {
					d := dirs[g]
					if ga.minW < d.MinW {
						ga.minW = d.MinW
					}
					if d.Weight > 0 && d.Weight != 1 {
						ga.askW = ga.minW + d.Weight*(ga.askW-ga.minW)
					}
					if d.CapW > 0 {
						c := d.CapW
						if c < ga.minW {
							c = ga.minW
						}
						if ga.askW > c {
							ga.askW = c
						}
					}
				}
			}
		}
	}

	var intervals, overIntervals, contended, overContended int
	for tick := 0; ; tick++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("fleet: abandoned after %d ticks: %w", tick, err)
		}
		for i := range st.stepped {
			st.stepped[i] = false
		}
		if pool != nil {
			pool.tick()
		} else {
			st.shard(0)
		}
		t0 := time.Now()
		// Post-barrier: every cross-node read below happens in
		// node-index order on the coordinator goroutine, so the
		// aggregate state is identical for every worker count. The
		// first error by node index wins, deterministically.
		for i := 0; i < n; i++ {
			if err := bs.NodeErr(i); err != nil {
				return nil, fmt.Errorf("fleet: node %s: %w", names[i], err)
			}
		}
		anyActive := false
		allActive := true
		var totalW float64
		// Counted locally and folded in once per tick: a per-node store
		// to the heap-allocated result costs a cache-line round trip
		// whenever the result shares a line with state the workers
		// touch.
		var stepped int64
		for i := 0; i < n; i++ {
			if !st.stepped[i] {
				allActive = false
				continue
			}
			anyActive = true
			stepped++
			// Only a node refreshed by this tick contributes; a node
			// that stepped into completion without emitting an interval
			// would otherwise replay its previous tick's power.
			if bs.Seq(i) == lastSeq[i] {
				continue
			}
			lastSeq[i] = bs.Seq(i)
			epochFresh[i] = true
			w := bs.LastPowerW(i)
			dpc := bs.LastDPC(i)
			if !usable(w) || !usable(dpc) {
				continue
			}
			totalW += w
			recentW[i] += w
			recentDPC[i] += dpc
			recentN[i]++
			if ft != nil && levels > 1 {
				ft.groupW[1][i/fanout] += w
			}
			if ctlW != nil {
				ctlW[i/fanout] += w
			}
		}
		res.NodeTicks += stepped
		if !anyActive {
			res.CoordWall.Add(time.Since(t0))
			spans.finish(tick)
			break
		}
		intervals++
		if totalW > res.PeakTotalW {
			res.PeakTotalW = totalW
		}
		over := totalW > cfg.BudgetW
		if over {
			overIntervals++
		}
		if allActive {
			contended++
			if over {
				overContended++
			}
		}
		if ft != nil {
			ft.tick(totalW, over, allActive, budgets)
		}
		if ctl != nil {
			ctlTicks++
		}

		if tick > 0 && tick%epoch == 0 {
			for i := range demands {
				done := bs.NodeDone(i)
				if nodeOv != nil && nodeOv[i] == NodeOffline {
					done = true
				}
				assembleDemand(&demands[i], done, recentW[i], recentDPC[i], recentN[i], epochFresh[i], bs.Seq(i), bs.LastDPC(i))
			}
			if ctl != nil {
				dirGroups, nodeOv = runControlEpoch(ctl, controlEpochIn{
					epoch: res.Epochs, tick: tick,
					periodUS: float64(machines[0].SamplePeriod()) / float64(time.Microsecond),
					budgetW:  cfg.BudgetW, floorW: floor,
					shape: shape, demands: demands, budgets: budgets,
					ctlW: ctlW, ctlTicks: ctlTicks, nodeOv: nodeOv,
				})
				ctlTicks = 0
				if ctlW != nil {
					clear(ctlW)
				}
				// Offlining takes effect in this epoch's allocation too:
				// the released share must not sit on a dead node.
				for i := range demands {
					if nodeOv[i] == NodeOffline && demands[i].active {
						demands[i] = demand{}
					}
				}
			}
			if levels == 1 {
				distribute(0, 0, n, cfg.BudgetW)
			} else {
				aggregate()
				distribute(levels-1, 0, shape.counts[levels-1], cfg.BudgetW)
			}
			if nodeOv != nil {
				for i, ov := range nodeOv {
					if ov == NodePinned {
						limits[i] = pinLimitW
						pms[i].SetLimit(pinLimitW)
					}
				}
			}
			res.Epochs++
			spans.fleetEpoch(tick, cfg.BudgetW)
			for i := range recentW {
				recentW[i], recentDPC[i], recentN[i], epochFresh[i] = 0, 0, 0, false
			}
			if ft != nil {
				ft.epoch(budgets)
			}
		}
		res.CoordWall.Add(time.Since(t0))
	}

	// Fold every worker's shard timing into one aggregate; Merge
	// keeps the Min/Max tails, so a straggler worker stays visible in
	// the merged distribution.
	res.WorkerWall = st.wall
	for k := range st.wall {
		res.TickWall.Merge(st.wall[k])
	}
	res.Intervals = intervals
	res.Runs = make([]*trace.Run, n)
	for i := 0; i < n; i++ {
		run := bs.Result(i)
		res.Runs[i] = run
		res.MachineSeconds += run.Duration.Seconds()
		if run.Duration > res.Makespan {
			res.Makespan = run.Duration
		}
	}
	if intervals > 0 {
		res.OverFrac = float64(overIntervals) / float64(intervals)
	}
	res.ContendedIntervals = contended
	if contended > 0 {
		res.ContendedOverFrac = float64(overContended) / float64(contended)
	}
	return res, nil
}

// SyntheticFleet builds n leaf nodes for fleet-scale runs: three
// fixed single-phase profiles (CPU-bound, mixed, memory-ish) assigned
// round-robin, each sized to retire in roughly ticks monitoring
// intervals at the top p-state (2 GHz x 10 ms = 2e7 cycles per tick).
// The three Workload values are shared across nodes, so the kernel's
// interned behavior caches hold three entries regardless of n, and
// with zero jitter no node carries an RNG.
func SyntheticFleet(n, ticks int) []Node {
	const cyclesPerTick = 20e6
	profiles := []phase.Workload{
		{Name: "fleet-cpu", Phases: []phase.Params{
			{Name: "cpu", Instructions: float64(ticks) * cyclesPerTick / 1.0, CPICore: 1.0, MLP: 1, SpecFactor: 1.05},
		}},
		{Name: "fleet-mid", Phases: []phase.Params{
			{Name: "mid", Instructions: float64(ticks) * cyclesPerTick / 2.0, CPICore: 2.0, MLP: 1, SpecFactor: 1.05},
		}},
		{Name: "fleet-mem", Phases: []phase.Params{
			{Name: "mem", Instructions: float64(ticks) * cyclesPerTick / 3.0, CPICore: 3.0, MLP: 1, SpecFactor: 1.05},
		}},
	}
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{Workload: profiles[i%len(profiles)]}
	}
	return nodes
}

// maxGroupSeries caps per-group telemetry: a level with more groups
// (or, at level 0, nodes) than this gets no per-group budget gauges
// and, above the leaves, one aggregated over-budget series
// (group="all"), so a 100k-node fleet does not mint tens of thousands
// of series.
const maxGroupSeries = 64

// fleetEpochWallBuckets bound the per-level allocation wall: leaf
// Allocates are microseconds, a 100k-leaf epoch tops out in the
// milliseconds.
var fleetEpochWallBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}

// fleetTelemetry owns the hierarchy-level series, all written on the
// coordinator goroutine (the shard histograms aside, which the
// registry serializes).
type fleetTelemetry struct {
	shape fleetShape

	totalW    *telemetry.Series
	intervals *telemetry.Series
	contended *telemetry.Series
	epochs    *telemetry.Series
	overRoot  *telemetry.Series
	// overBy[l][g] / budgetBy[l][g] are per-group series at level l
	// (nil rows when the level exceeds maxGroupSeries, in which case
	// overAll[l] aggregates the group-interval violations). Level 0
	// has budget gauges only: its groups are the nodes, its budgets
	// their PM limits.
	overBy    [][]*telemetry.Series
	overAll   []*telemetry.Series
	budgetBy  [][]*telemetry.Series
	epochWall []*telemetry.Series
	shardWall []*telemetry.Series

	// groupW[l][g] accumulates the current tick's measured power per
	// group; wallAcc[l] the current epoch's allocation wall.
	groupW  [][]float64
	wallAcc []time.Duration
}

func newFleetTelemetry(reg *telemetry.Registry, budget float64, workers int, shape fleetShape) *fleetTelemetry {
	ft := &fleetTelemetry{shape: shape}
	reg.Gauge("aapm_fleet_nodes", "Leaf nodes in the hierarchical co-simulation.").With().Set(float64(shape.counts[0]))
	reg.Gauge("aapm_fleet_levels", "Allocation-tree depth above the leaves.").With().Set(float64(shape.levels))
	reg.Gauge("aapm_fleet_fanout", "Maximum children per group.").With().Set(float64(shape.fanout))
	reg.Gauge("aapm_fleet_budget_watts", "Global power cap held by the root.").With().Set(budget)
	ft.totalW = reg.Gauge("aapm_fleet_total_power_watts", "Sum of measured node powers over the last lockstep interval.").With()
	ft.intervals = reg.Counter("aapm_fleet_intervals_total", "Lockstep intervals stepped.").With()
	ft.contended = reg.Counter("aapm_fleet_contended_intervals_total", "Lockstep intervals where every node was still active.").With()
	ft.epochs = reg.Counter("aapm_fleet_reallocation_epochs_total", "Budget reallocation epochs completed.").With()
	over := reg.Counter("aapm_fleet_over_budget_intervals_total", "Intervals where measured power exceeded the budget at the labeled level/group (level \"root\" is the global cap; group \"all\" aggregates levels too wide for per-group series).", "level", "group")
	ft.overRoot = over.With("root", "")
	groupBudget := reg.Gauge("aapm_fleet_group_budget_watts", "Budget granted to the labeled group at the last reallocation (level \"0\" groups are nodes, their budgets the PM limits).", "level", "group")
	ft.overBy = make([][]*telemetry.Series, shape.levels)
	ft.budgetBy = make([][]*telemetry.Series, shape.levels)
	ft.overAll = make([]*telemetry.Series, shape.levels)
	ft.groupW = make([][]float64, shape.levels)
	for l := 1; l < shape.levels; l++ {
		ft.groupW[l] = make([]float64, shape.counts[l])
		if shape.counts[l] > maxGroupSeries {
			ft.overAll[l] = over.With(fmt.Sprint(l), "all")
			continue
		}
		for g := 0; g < shape.counts[l]; g++ {
			ft.overBy[l] = append(ft.overBy[l], over.With(fmt.Sprint(l), fmt.Sprint(g)))
		}
	}
	for l := 0; l < shape.levels; l++ {
		if shape.counts[l] > maxGroupSeries {
			continue
		}
		for g := 0; g < shape.counts[l]; g++ {
			ft.budgetBy[l] = append(ft.budgetBy[l], groupBudget.With(fmt.Sprint(l), fmt.Sprint(g)))
		}
	}
	wall := reg.Histogram("aapm_fleet_epoch_wall_seconds", "Per-epoch allocation wall-clock at the labeled level, inclusive of the recursion below it (the top level is the whole epoch's allocation cost).", fleetEpochWallBuckets, "level")
	ft.wallAcc = make([]time.Duration, shape.levels)
	for l := 0; l < shape.levels; l++ {
		ft.epochWall = append(ft.epochWall, wall.With(fmt.Sprint(l)))
	}
	shard := reg.Histogram("aapm_fleet_shard_wall_seconds", "Per-worker wall-clock to step one shard for one tick.", shardWallBuckets, "worker")
	for k := 0; k < workers; k++ {
		ft.shardWall = append(ft.shardWall, shard.With(fmt.Sprint(k)))
	}
	return ft
}

// tick publishes one lockstep interval's aggregates and drains the
// per-group power accumulators against the current group budgets.
func (ft *fleetTelemetry) tick(totalW float64, over, allActive bool, budgets [][]float64) {
	ft.totalW.Set(totalW)
	ft.intervals.Inc()
	if over {
		ft.overRoot.Inc()
	}
	if allActive {
		ft.contended.Inc()
	}
	for l := 1; l < ft.shape.levels; l++ {
		if l > 1 {
			// Roll the lower level's sums up one tier before judging.
			for g := range ft.groupW[l] {
				lo, hi := ft.shape.childRange(l, g)
				var sum float64
				for c := lo; c < hi; c++ {
					sum += ft.groupW[l-1][c]
				}
				ft.groupW[l][g] = sum
			}
		}
		for g, w := range ft.groupW[l] {
			if w <= budgets[l][g] {
				continue
			}
			if ft.overBy[l] != nil {
				ft.overBy[l][g].Inc()
			} else {
				ft.overAll[l].Inc()
			}
		}
	}
	for l := 1; l < ft.shape.levels; l++ {
		clear(ft.groupW[l])
	}
}

// epoch publishes one reallocation's outcome: the granted group
// budgets and the per-level allocation wall.
func (ft *fleetTelemetry) epoch(budgets [][]float64) {
	ft.epochs.Inc()
	for l := range ft.budgetBy {
		for g, s := range ft.budgetBy[l] {
			s.Set(budgets[l][g])
		}
	}
	for l, d := range ft.wallAcc {
		ft.epochWall[l].Observe(d.Seconds())
		ft.wallAcc[l] = 0
	}
}

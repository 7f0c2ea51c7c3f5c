package cluster

import (
	"math"
	"testing"
	"time"

	"aapm/internal/alloc"
	"aapm/internal/control"
	"aapm/internal/phase"
	"aapm/internal/pstate"
	"aapm/internal/sensor"
	"aapm/internal/spec"
	"aapm/internal/telemetry"
)

// reallocate runs one level-0 epoch allocation over all the demands —
// the fleet coordinator's leaf path — with al's policy settings.
func reallocate(al *alloc.Allocator, budget, floor float64, table *pstate.Table, demands []demand, pms []*control.PerformanceMaximizer, limits []float64) {
	newLeafAlloc(table, demands, pms, limits).allocate(al, budget, floor, 0, len(demands))
}

// leafPolicy is the coordinator's allocator configuration.
func leafPolicy() *alloc.Allocator { return &alloc.Allocator{MarginW: budgetMarginW} }

func testPMs(t *testing.T, n int, limitW float64) []*control.PerformanceMaximizer {
	t.Helper()
	pms := make([]*control.PerformanceMaximizer, n)
	for i := range pms {
		pm, err := control.NewPerformanceMaximizer(control.PMConfig{LimitW: limitW, FeedbackGain: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		pms[i] = pm
	}
	return pms
}

// TestReallocateConsumesAverageNotTap pins the reallocation input
// contract: the allocator sees only the epoch-average decode rate
// carried by the demand record, so a spiked last tick that left the
// average unchanged cannot move the shares (the regression the old
// last-tap-only coordinator had).
func TestReallocateConsumesAverageNotTap(t *testing.T) {
	table := pstate.PentiumM755()
	mk := func() ([]demand, []float64) {
		return []demand{
			{active: true, useDPC: true, dpc: 0.5},
			{active: true, useDPC: true, dpc: 0.5},
		}, []float64{15, 15}
	}

	steady, steadyLimits := mk()
	reallocate(leafPolicy(), 30, 4, table, steady, testPMs(t, 2, 15), steadyLimits)

	// Same epoch averages; node 0's tap spiked on the final tick of
	// the epoch. The demand record is built from the averages, so the
	// allocator's output must be bit-identical.
	spiked, spikedLimits := mk()
	reallocate(leafPolicy(), 30, 4, table, spiked, testPMs(t, 2, 15), spikedLimits)
	for i := range steadyLimits {
		if steadyLimits[i] != spikedLimits[i] {
			t.Errorf("node %d share moved on a last-tick spike: %.3f -> %.3f", i, steadyLimits[i], spikedLimits[i])
		}
	}
	if steadyLimits[0] != steadyLimits[1] {
		t.Errorf("equal demands got unequal shares: %v", steadyLimits)
	}
}

// TestReallocateAvgPowerFloorsDesire pins that a node's epoch-average
// measured draw lower-bounds its desire: a node drawing more than the
// model projects (at its current state) is not squeezed below what it
// demonstrably consumes.
func TestReallocateAvgPowerFloorsDesire(t *testing.T) {
	table := pstate.PentiumM755()
	var gotDesire float64
	al := leafPolicy()
	al.OnDecision = func(node int, desire, limit float64) {
		if node == 0 {
			gotDesire = desire
		}
	}

	pms := testPMs(t, 1, 15)
	modelDesire := pms[0].BudgetDesireW(table, 0.1) + budgetMarginW
	demands := []demand{{active: true, useDPC: true, dpc: 0.1, avgW: modelDesire + 5}}
	limits := []float64{15}
	reallocate(al, 40, 4, table, demands, pms, limits)
	if gotDesire != modelDesire+5 {
		t.Errorf("desire %.2f W, want the %.2f W epoch-average draw to floor it", gotDesire, modelDesire+5)
	}
}

// TestReallocateHoldsStaleNode pins the stale-tap guard: an active
// node that produced no fresh observation all epoch keeps its
// previous share untouched (its PM limit is not reassigned), the
// finished node's share is released, and only the fresh node is
// waterfilled over what remains.
func TestReallocateHoldsStaleNode(t *testing.T) {
	table := pstate.PentiumM755()
	pms := testPMs(t, 3, 10)
	demands := []demand{
		{active: true, useDPC: true, dpc: 2.0}, // fresh, hungry
		{active: true, hold: true},             // active but dark
		{active: false},                        // finished
	}
	limits := []float64{10, 12, 8}
	reallocate(leafPolicy(), 30, 4, table, demands, pms, limits)

	if limits[1] != 12 {
		t.Errorf("held node's share moved: %.2f, want 12", limits[1])
	}
	if got := pms[1].Limit(); got != 10 {
		t.Errorf("held node's PM limit reassigned to %.2f", got)
	}
	if limits[2] != 8 {
		t.Errorf("finished node's recorded share rewritten: %.2f", limits[2])
	}
	// The fresh node gets at most the unheld budget (30 - 12 = 18).
	if limits[0] > 18+1e-9 {
		t.Errorf("fresh node granted %.2f W, exceeding the 18 W left after the hold", limits[0])
	}
	if got := pms[0].Limit(); got != limits[0] {
		t.Errorf("fresh node's PM limit %.2f != recorded share %.2f", got, limits[0])
	}
}

// TestReallocateHoldRespectsFloorGuarantee pins the pathological
// case: when held shares squeeze the fresh nodes below their floors,
// the floor guarantee wins over the budget.
func TestReallocateHoldRespectsFloorGuarantee(t *testing.T) {
	table := pstate.PentiumM755()
	pms := testPMs(t, 2, 10)
	demands := []demand{
		{active: true, useDPC: true, dpc: 0.1},
		{active: true, hold: true},
	}
	limits := []float64{4, 18}
	reallocate(leafPolicy(), 20, 4, table, demands, pms, limits)
	if limits[0] < 4 {
		t.Errorf("fresh node starved below the 4 W floor: %.2f", limits[0])
	}
	if limits[1] != 18 {
		t.Errorf("held share moved: %.2f", limits[1])
	}
}

// spikeProbe builds a synthetic workload whose per-tick decode rate
// alternates every interval between a core-bound and a dilated phase
// (each sized to exactly one 10 ms interval at the top p-state), so a
// last-tick reader sees wildly different demand depending on which
// phase a reallocation boundary lands on, while the epoch average is
// steady at the midpoint.
func spikeProbe(iterations int) phase.Workload {
	const instrPerTickFast = 20e6 // 2 GHz * 10 ms at CPI 1
	return phase.Workload{
		Name:       "spikeprobe",
		Iterations: iterations,
		Phases: []phase.Params{
			{Name: "fast", Instructions: instrPerTickFast, CPICore: 1.0, MLP: 1, SpecFactor: 1.05},
			{Name: "slow", Instructions: instrPerTickFast / 4, CPICore: 4.0, MLP: 1, SpecFactor: 1.05},
		},
	}
}

// shareRecorder reads node 0's PM limit — its level-0 budget gauge —
// at every control-plane call. The call lands just before the epoch's
// allocation, so it sees the grant of the previous epoch; grants are
// recorded only for epochs node 0 was in service.
type shareRecorder struct {
	reg    *telemetry.Registry
	active bool // node 0 was in service at the previous epoch
	shares []float64
}

func (r *shareRecorder) Epoch(o FleetEpochObs) FleetDirectives {
	r.record()
	r.active = o.NodeActive[0]
	return FleetDirectives{}
}

func (r *shareRecorder) record() {
	if !r.active {
		return
	}
	for _, f := range r.reg.Snapshot().Families {
		if f.Name != "aapm_fleet_group_budget_watts" {
			continue
		}
		for _, s := range f.Series {
			if s.Labels[0] == "0" && s.Labels[1] == "0" {
				r.shares = append(r.shares, s.Value)
				return
			}
		}
	}
}

// TestEpochAverageStabilizesShares is the end-to-end regression for
// the epoch-average fix: with a probe whose instantaneous decode rate
// alternates tick to tick and an odd epoch length (so successive
// boundaries land on opposite phases), the desires the coordinator
// computes at successive reallocations must stay nearly constant.
// Under the old last-tick-tap coordinator they alternated with the
// boundary phase by several watts. The budget is generous, so every
// grant is its desire and the per-epoch PM limits read them out.
func TestEpochAverageStabilizesShares(t *testing.T) {
	companion, err := spec.ByName("crafty")
	if err != nil {
		t.Fatal(err)
	}
	companion.Iterations = max(1, companion.Repeats()/4)
	rec := &shareRecorder{reg: telemetry.NewRegistry()}
	_, err = RunFleet(FleetConfig{
		// Generous budget: both nodes stay at the top p-state, so the
		// probe's phase/tick alignment is exact and the desires isolate
		// the DPC input rather than p-state churn.
		BudgetW:    70,
		Nodes:      []Node{{Workload: spikeProbe(120)}, {Workload: companion}},
		Seed:       7,
		EpochTicks: 5, // odd: boundaries alternate between fast and slow ticks
		Workers:    1,
		Levels:     1,
		Telemetry:  rec.reg,
		Control:    rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.record() // the final epoch's grant
	desires := rec.shares
	if len(desires) < 6 {
		t.Fatalf("only %d reallocations observed", len(desires))
	}
	// Skip the first boundaries while the measured-power feedback
	// correction settles, then require the remaining desires steady.
	settled := desires[2:]
	lo, hi := settled[0], settled[0]
	for _, d := range settled {
		lo, hi = math.Min(lo, d), math.Max(hi, d)
	}
	if hi-lo > 1.0 {
		t.Errorf("probe desires swing %.2f W across boundaries (%v): epoch averaging not in effect", hi-lo, settled)
	}
}

// TestTailPhaseAccounting pins the documented OverFrac semantics: a
// run with a long single-node tail reports OverFrac over all
// intervals (the physical shared-supply view) and ContendedOverFrac
// over only the intervals where every node was active, with
// ContendedIntervals matching the first finisher's participation.
func TestTailPhaseAccounting(t *testing.T) {
	ws := nodes(t, "gzip", "crafty")
	ws[0].Workload.Iterations = 1
	res, err := Run(Config{BudgetW: 30, Nodes: ws, Seed: 3, Chain: sensor.NIDefault(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	short, long := res.Runs[0], res.Runs[1]
	if short.Duration >= long.Duration {
		t.Fatalf("probe setup broken: short %v !< long %v", short.Duration, long.Duration)
	}
	// Contended intervals = ticks until the short node finished: its
	// recorded rows, plus possibly one unrecorded final step that
	// found the workload already exhausted.
	if got, want := res.ContendedIntervals, len(short.Rows); got != want && got != want+1 {
		t.Errorf("ContendedIntervals = %d, want %d or %d (short node's participation)", got, want, want+1)
	}
	if res.ContendedIntervals >= len(long.Rows) {
		t.Errorf("no tail: contended %d !< total %d — probe workloads too similar", res.ContendedIntervals, len(long.Rows))
	}
	if res.OverFrac > 0.05 || res.ContendedOverFrac > 0.05 {
		t.Errorf("budget violated: OverFrac %.3f, ContendedOverFrac %.3f", res.OverFrac, res.ContendedOverFrac)
	}
}

// TestTickWallCollected pins that the coordinator publishes its
// per-tick wall-clock through metrics.WallClock.
func TestTickWallCollected(t *testing.T) {
	ws := nodes(t, "gzip", "gcc")
	ws[0].Workload.Iterations = 1
	ws[1].Workload.Iterations = 1
	res, err := Run(Config{BudgetW: 30, Nodes: ws, Seed: 3, Chain: sensor.NIDefault()})
	if err != nil {
		t.Fatal(err)
	}
	if res.TickWall.N == 0 {
		t.Fatal("no wall-clock samples")
	}
	if res.TickWall.Total <= 0 || res.TickWall.Max <= 0 || res.TickWall.Avg() <= 0 {
		t.Errorf("degenerate wall-clock aggregate: %+v", res.TickWall)
	}
	if res.TickWall.Avg() > res.TickWall.Max {
		t.Errorf("avg %v exceeds max %v", res.TickWall.Avg(), res.TickWall.Max)
	}
	if res.TickWall.Total > time.Minute {
		t.Errorf("implausible total %v for a short run", res.TickWall.Total)
	}
}

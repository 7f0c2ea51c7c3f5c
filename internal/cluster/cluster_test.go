package cluster

import (
	"math"
	"testing"

	"aapm/internal/sensor"
	"aapm/internal/spec"
)

func nodes(t *testing.T, names ...string) []Node {
	t.Helper()
	out := make([]Node, len(names))
	for i, n := range names {
		w, err := spec.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		// Shorten for test runtime.
		w.Iterations = max(1, w.Repeats()/4)
		out[i] = Node{Workload: w}
	}
	return out
}

func TestRunValidation(t *testing.T) {
	if _, err := RunFleet(FleetConfig{BudgetW: 50, RetainTraces: true}); err == nil {
		t.Error("no nodes accepted")
	}
	if _, err := RunFleet(FleetConfig{Nodes: nodes(t, "gzip"), RetainTraces: true}); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := RunFleet(FleetConfig{Nodes: nodes(t, "gzip", "gcc"), BudgetW: 5, RetainTraces: true}); err == nil {
		t.Error("budget below floors accepted")
	}
}

func TestSharedBudgetRespected(t *testing.T) {
	cfg := FleetConfig{
		BudgetW:      56,
		Nodes:        nodes(t, "swim", "mcf", "lucas", "crafty"),
		Seed:         7,
		Chain:        sensor.NIDefault(),
		RetainTraces: true,
	}
	res, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 4 {
		t.Fatalf("runs = %d", len(res.Runs))
	}
	// The coordinator may transiently exceed the budget while PM reacts
	// (one 10 ms interval per node), but not persistently.
	if res.OverFrac > 0.05 {
		t.Errorf("total power above budget %.1f%% of intervals", res.OverFrac*100)
	}
	if res.PeakTotalW > cfg.BudgetW*1.15 {
		t.Errorf("peak total %.1f W far above the %.1f W budget", res.PeakTotalW, cfg.BudgetW)
	}
	for i, run := range res.Runs {
		if run.Duration <= 0 || run.Instructions <= 0 {
			t.Errorf("node %s degenerate run", res.Names[i])
		}
	}
}

func TestDemandAwareBeatsEqualSplit(t *testing.T) {
	base := FleetConfig{
		BudgetW:      56,
		Nodes:        nodes(t, "swim", "mcf", "lucas", "crafty"),
		Seed:         7,
		Chain:        sensor.NIDefault(),
		RetainTraces: true,
	}
	static := base
	static.EpochTicks = math.MaxInt // never reallocate: the equal split
	static.Nodes = nodes(t, "swim", "mcf", "lucas", "crafty")

	dyn, err := RunFleet(base)
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunFleet(static)
	if err != nil {
		t.Fatal(err)
	}
	// Demand-aware reallocation routes the memory-bound nodes' slack
	// to crafty: total completion time must improve.
	if dyn.MachineSeconds >= st.MachineSeconds {
		t.Errorf("demand-aware %.2f machine-seconds not below equal split %.2f",
			dyn.MachineSeconds, st.MachineSeconds)
	}
	// Both must keep the budget.
	if dyn.OverFrac > 0.05 || st.OverFrac > 0.05 {
		t.Errorf("budget violations: dyn %.1f%%, static %.1f%%", dyn.OverFrac*100, st.OverFrac*100)
	}
}

func TestNodesFinishIndependently(t *testing.T) {
	// A short and a long workload: the coordinator must hand the
	// finisher's share to the survivor and run to completion.
	ws := nodes(t, "gzip", "crafty")
	ws[0].Workload.Iterations = 1
	res, err := RunFleet(FleetConfig{BudgetW: 30, Nodes: ws, Seed: 3, Chain: sensor.NIDefault(), RetainTraces: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs[0].Duration >= res.Runs[1].Duration {
		t.Errorf("short node (%v) did not finish before long node (%v)",
			res.Runs[0].Duration, res.Runs[1].Duration)
	}
	if res.Makespan != res.Runs[1].Duration {
		t.Errorf("makespan %v != longest run %v", res.Makespan, res.Runs[1].Duration)
	}
}

package aapm

import (
	"strings"
	"testing"
)

func TestPublicAPIQuickstart(t *testing.T) {
	m, err := NewPlatform(PlatformConfig{Seed: 1, Chain: NIChain()})
	if err != nil {
		t.Fatal(err)
	}
	w, err := Workload("ammp")
	if err != nil {
		t.Fatal(err)
	}
	pm, err := NewPerformanceMaximizer(PMConfig{LimitW: 14.5})
	if err != nil {
		t.Fatal(err)
	}
	run, err := m.Run(w, pm)
	if err != nil {
		t.Fatal(err)
	}
	if run.Duration <= 0 || run.AvgPowerW() <= 0 {
		t.Errorf("degenerate run: %v, %.2fW", run.Duration, run.AvgPowerW())
	}
	// PM must respect the limit on average.
	if run.AvgPowerW() > 14.5 {
		t.Errorf("average power %.2fW above the 14.5W limit", run.AvgPowerW())
	}
}

func TestWorkloadNames(t *testing.T) {
	names := WorkloadNames()
	if len(names) != 26 {
		t.Fatalf("WorkloadNames = %d entries", len(names))
	}
	if _, err := Workload("not-a-benchmark"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestPentiumM755Accessor(t *testing.T) {
	tab := PentiumM755()
	if tab.Len() != 8 || tab.Max().FreqMHz != 2000 {
		t.Errorf("table = %v", tab.States())
	}
}

func TestPaperModels(t *testing.T) {
	pm := PaperPowerModel()
	i := pm.Table().IndexOf(2000)
	if got := pm.Estimate(i, 0); got != 12.11 {
		t.Errorf("beta at 2000 MHz = %g, want 12.11", got)
	}
	if m := PaperPerfModel(); m.Threshold != 1.21 || m.Exponent != 0.81 {
		t.Errorf("perf model = %+v", m)
	}
}

func TestPowerSaveViaFacade(t *testing.T) {
	m, err := NewPlatform(PlatformConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	w, err := Workload("swim")
	if err != nil {
		t.Fatal(err)
	}
	base, err := m.Run(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewPowerSave(PSConfig{Floor: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	run, err := m.Run(w, ps)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(run.Policy, "PS(") {
		t.Errorf("policy label = %q", run.Policy)
	}
	save := 1 - run.EnergyJ/base.EnergyJ
	if save < 0.4 {
		t.Errorf("swim PS(80%%) energy savings = %.1f%%, want large (memory-bound)", save*100)
	}
	loss := 1 - base.Duration.Seconds()/run.Duration.Seconds()
	if loss > 0.201 {
		t.Errorf("swim PS(80%%) loss = %.1f%% violates floor", loss*100)
	}
}

func TestStaticClockFacade(t *testing.T) {
	m, _ := NewPlatform(PlatformConfig{Seed: 1})
	w, _ := Workload("gzip")
	sc := NewStaticClock(m.Table().IndexOf(1000), "static1000")
	run, err := m.Run(w, sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range run.Rows {
		if row.FreqMHz != 1000 {
			t.Fatalf("static run left 1000 MHz: %d", row.FreqMHz)
		}
	}
}

func TestExperimentsFacade(t *testing.T) {
	ex, err := NewExperiments(ExperimentOptions{Seed: 3, ScaleDown: 8})
	if err != nil {
		t.Fatal(err)
	}
	r, err := ex.Fig2PstatePerformance()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Errorf("fig2 rows = %d", len(r.Rows))
	}
}

func TestFacadeExtensions(t *testing.T) {
	tc := PentiumMThermal()
	if tc.AmbientC != 45 {
		t.Errorf("thermal ambient = %g", tc.AmbientC)
	}
	tg, err := NewThermalGuard(ThermalGuardConfig{LimitC: 75, Thermal: tc})
	if err != nil {
		t.Fatal(err)
	}
	if tg.Name() == "" {
		t.Error("thermal guard unnamed")
	}
	ts, err := NewThrottleSave(ThrottleSaveConfig{Floor: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if ts.Name() == "" {
		t.Error("throttle save unnamed")
	}
	if got := len(MixWorkloads()); got != 4 {
		t.Errorf("mix workloads = %d", got)
	}
}

func TestFacadeCluster(t *testing.T) {
	var nodes []ClusterNode
	for _, n := range []string{"gzip", "mesa"} {
		w, err := Workload(n)
		if err != nil {
			t.Fatal(err)
		}
		w.Iterations = 3
		nodes = append(nodes, ClusterNode{Workload: w})
	}
	res, err := RunFleet(FleetConfig{BudgetW: 30, Nodes: nodes, Seed: 5, Chain: NIChain()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 2 || res.MachineSeconds <= 0 {
		t.Errorf("cluster result = %+v", res)
	}
}

func TestFacadeSessionAPI(t *testing.T) {
	m, err := NewPlatform(PlatformConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	w, err := Workload("gzip")
	if err != nil {
		t.Fatal(err)
	}
	w.Iterations = 2
	s, err := m.NewSession(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	for {
		done, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if s.Result().Duration <= 0 {
		t.Error("degenerate session result")
	}
}

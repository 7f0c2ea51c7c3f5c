package cluster

import (
	"context"
	"errors"
	"testing"
)

func TestRunContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunFleetContext(ctx, FleetConfig{
		BudgetW:      30,
		Nodes:        nodes(t, "gzip", "gcc"),
		Seed:         7,
		RetainTraces: true,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunNilContextMatchesBackground(t *testing.T) {
	cfg := FleetConfig{BudgetW: 30, Nodes: nodes(t, "gzip", "gcc"), Seed: 7, RetainTraces: true}
	a, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var nilCtx context.Context
	b, err := RunFleetContext(nilCtx, FleetConfig{BudgetW: 30, Nodes: nodes(t, "gzip", "gcc"), Seed: 7, RetainTraces: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.MachineSeconds != b.MachineSeconds {
		t.Errorf("RunFleet and RunFleetContext(nil) diverged: %v/%v vs %v/%v",
			a.Makespan, a.MachineSeconds, b.Makespan, b.MachineSeconds)
	}
}

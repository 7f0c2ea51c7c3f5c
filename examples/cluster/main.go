// Cluster: one power budget shared across several machines, enforced
// closed-loop.
//
// The paper motivates PM with components sharing supply and cooling
// (§IV-A: "controlling multiple components with shared power supply/
// cooling resources"). This example co-simulates four machines in
// lockstep under one 56 W cap. Each machine runs PM with measured-
// power feedback; every 500 ms a coordinator water-fills the budget
// over the machines' corrected demand signals, so slack left by
// memory-bound workloads flows to the power-hungry node. Compare the
// naive equal split: same cap, but a quarter each, forever.
package main

import (
	"fmt"
	"log"
	"math"

	"aapm"
)

const budgetW = 56.0

func main() {
	names := []string{"swim", "mcf", "lucas", "crafty"}

	equal, err := run(names, true)
	if err != nil {
		log.Fatal(err)
	}
	demand, err := run(names, false)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("shared %.0f W budget, four machines\n\n", budgetW)
	fmt.Printf("%-8s %14s %14s\n", "machine", "equal split", "demand-aware")
	for i, n := range names {
		fmt.Printf("%-8s %13.2fs %13.2fs\n", n,
			equal.Runs[i].Duration.Seconds(), demand.Runs[i].Duration.Seconds())
	}
	fmt.Printf("\nmachine-seconds: equal %.1f, demand-aware %.1f (%.1f%% faster)\n",
		equal.MachineSeconds, demand.MachineSeconds,
		(equal.MachineSeconds/demand.MachineSeconds-1)*100)
	fmt.Printf("budget exceeded: equal %.1f%%, demand-aware %.1f%% of intervals (peaks %.1f / %.1f W)\n",
		equal.OverFrac*100, demand.OverFrac*100, equal.PeakTotalW, demand.PeakTotalW)
}

func run(names []string, static bool) (*aapm.FleetResult, error) {
	var nodes []aapm.ClusterNode
	for _, n := range names {
		w, err := aapm.Workload(n)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, aapm.ClusterNode{Workload: w})
	}
	cfg := aapm.FleetConfig{
		BudgetW: budgetW,
		Nodes:   nodes,
		Seed:    7,
		Chain:   aapm.NIChain(),
	}
	if static {
		cfg.EpochTicks = math.MaxInt // never reallocate: the equal split
	}
	return aapm.RunFleet(cfg)
}

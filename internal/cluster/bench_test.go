package cluster

import (
	"fmt"
	"runtime"
	"testing"

	"aapm/internal/sensor"
)

// BenchmarkClusterTick measures the coordinator's per-tick cost on an
// 8-node shared-budget run, serially and across the worker pool. The
// serial/parallel pair is the speedup record for EXPERIMENTS.md; on a
// single-core host the parallel variant mostly measures pool overhead
// (the barrier handoffs), which is the other number worth pinning.
func BenchmarkClusterTick(b *testing.B) {
	for _, workers := range []int{1, 8} {
		name := "serial"
		if workers > 1 {
			name = fmt.Sprintf("parallel%d-on-%dcore", workers, runtime.GOMAXPROCS(0))
		}
		b.Run(name, func(b *testing.B) {
			ticks := 0
			for i := 0; i < b.N; i++ {
				res, err := RunFleet(FleetConfig{
					BudgetW:      104,
					Nodes:        eightNodes(b),
					Seed:         7,
					Chain:        sensor.NIDefault(),
					Workers:      workers,
					RetainTraces: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				ticks += res.TickWall.N
			}
			// TickWall.N counts per-worker shard-steps (== ticks for
			// the serial run).
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ticks), "ns/step")
			b.ReportMetric(float64(ticks)/float64(b.N), "steps/run")
		})
	}
}

package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"aapm/internal/sensor"
	"aapm/internal/spec"
)

// eightNodes builds an 8-node population over the suite's spread of
// power appetites, shortened for test runtime.
func eightNodes(t testing.TB) []Node {
	t.Helper()
	names := []string{"swim", "mcf", "lucas", "crafty", "gzip", "gcc", "art", "ammp"}
	out := make([]Node, len(names))
	for i, n := range names {
		w, err := spec.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		w.Iterations = max(1, w.Repeats()/8)
		out[i] = Node{Workload: w}
	}
	return out
}

// tracesCSV serializes every node trace of a fleet result, in node
// order.
func tracesCSV(t testing.TB, res *FleetResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i, run := range res.Runs {
		fmt.Fprintf(&buf, "# node %d %s\n", i, res.Names[i])
		if err := run.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestParallelMatchesSerial is the determinism proof the parallel
// coordinator must carry: for several seeds, a run stepped across 3
// workers (uneven blocks over 8 nodes) and across 8 (one node each)
// produces byte-for-byte the traces of the serial (Workers=1)
// reference, and the aggregate results match.
func TestParallelMatchesSerial(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			run := func(workers int) *FleetResult {
				t.Helper()
				res, err := RunFleet(FleetConfig{
					BudgetW:      104,
					Nodes:        eightNodes(t),
					Seed:         seed,
					Chain:        sensor.NIDefault(),
					Workers:      workers,
					RetainTraces: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Workers != workers {
					t.Fatalf("ran with %d workers, want %d", res.Workers, workers)
				}
				return res
			}
			serial := run(1)
			sb := tracesCSV(t, serial)
			for _, workers := range []int{3, 8} {
				par := run(workers)
				diffLines(t, fmt.Sprintf("serial vs %d workers", workers), sb, tracesCSV(t, par))
				if serial.MachineSeconds != par.MachineSeconds || serial.Makespan != par.Makespan {
					t.Errorf("workers=%d aggregates diverge: serial %v/%v, parallel %v/%v", workers,
						serial.MachineSeconds, serial.Makespan, par.MachineSeconds, par.Makespan)
				}
				if serial.PeakTotalW != par.PeakTotalW || serial.OverFrac != par.OverFrac ||
					serial.ContendedOverFrac != par.ContendedOverFrac ||
					serial.ContendedIntervals != par.ContendedIntervals {
					t.Errorf("workers=%d budget accounting diverges: serial %+v, parallel %+v", workers, serial, par)
				}
			}
		})
	}
}

// offlineControl offlines one leaf and pins another at epoch 1 (the
// second reallocation) and issues no further directives.
type offlineControl struct {
	offline, pinned int
}

func (c offlineControl) Epoch(o FleetEpochObs) FleetDirectives {
	if o.Epoch != 1 {
		return FleetDirectives{}
	}
	nodes := make([]NodeOverride, len(o.NodeActive))
	nodes[c.offline] = NodeOffline
	nodes[c.pinned] = NodePinned
	return FleetDirectives{Nodes: nodes}
}

// TestParallelControlMatchesSerial extends the determinism proof to
// the control plane: with one node offlined mid-run (its block stops
// stepping it) and one pinned, runs over 3 and 8 workers reproduce
// the serial traces and aggregates byte for byte.
func TestParallelControlMatchesSerial(t *testing.T) {
	run := func(workers int, ctl FleetControl) (*FleetResult, []byte) {
		t.Helper()
		res, err := RunFleet(FleetConfig{
			BudgetW:      104,
			Nodes:        eightNodes(t),
			Seed:         4,
			Chain:        sensor.NIDefault(),
			Workers:      workers,
			EpochTicks:   10,
			Control:      ctl,
			RetainTraces: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, tracesCSV(t, res)
	}
	ctl := offlineControl{offline: 2, pinned: 5}
	free, _ := run(1, nil)
	serial, sb := run(1, ctl)
	if off, full := serial.Runs[2].Duration, free.Runs[2].Duration; off >= full {
		t.Fatalf("offlined node ran %v, not shorter than its uncontrolled %v", off, full)
	}
	if pinned, full := serial.Runs[5].Duration, free.Runs[5].Duration; pinned <= full {
		t.Fatalf("pinned node ran %v, not longer than its uncontrolled %v", pinned, full)
	}
	for _, workers := range []int{3, 8} {
		par, pb := run(workers, ctl)
		diffLines(t, fmt.Sprintf("serial vs %d workers", workers), sb, pb)
		if serial.MachineSeconds != par.MachineSeconds || serial.Makespan != par.Makespan ||
			serial.PeakTotalW != par.PeakTotalW || serial.OverFrac != par.OverFrac ||
			serial.NodeTicks != par.NodeTicks || serial.Epochs != par.Epochs {
			t.Errorf("workers=%d aggregates diverge from serial", workers)
		}
	}
}

// TestShardRangeCoversNodes pins the block layout: for every worker
// count, including ones that do not divide the node count, the
// workers' ranges are contiguous, in worker order, non-empty and
// cover [0, n) exactly once, with sizes differing by at most one.
func TestShardRangeCoversNodes(t *testing.T) {
	for _, c := range []struct{ n, workers int }{
		{1, 1}, {8, 1}, {8, 3}, {8, 8}, {10, 4}, {48, 5}, {100, 7}, {100_000, 2}, {100_000, 3},
	} {
		next, smallest, largest := 0, c.n, 0
		for k := 0; k < c.workers; k++ {
			lo, hi := shardRange(k, c.workers, c.n)
			if lo != next || hi <= lo {
				t.Fatalf("n=%d workers=%d: worker %d owns [%d, %d), want a non-empty block from %d",
					c.n, c.workers, k, lo, hi, next)
			}
			smallest, largest = min(smallest, hi-lo), max(largest, hi-lo)
			next = hi
		}
		if next != c.n {
			t.Errorf("n=%d workers=%d: blocks end at %d", c.n, c.workers, next)
		}
		if largest-smallest > 1 {
			t.Errorf("n=%d workers=%d: block sizes %d..%d", c.n, c.workers, smallest, largest)
		}
	}
}

// TestParallelEightNodeRace drives the default worker count over an
// 8-node run; under -race (CI) it proves the stepping path clean.
func TestParallelEightNodeRace(t *testing.T) {
	res, err := RunFleet(FleetConfig{
		BudgetW:      104,
		Nodes:        eightNodes(t),
		Seed:         5,
		Chain:        sensor.NIDefault(),
		RetainTraces: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 8 {
		t.Fatalf("runs = %d", len(res.Runs))
	}
	for i, run := range res.Runs {
		if run.Duration <= 0 || run.Instructions <= 0 {
			t.Errorf("node %s degenerate run", res.Names[i])
		}
	}
	if res.TickWall.N == 0 || res.TickWall.Total <= 0 {
		t.Errorf("coordinator wall-clock not collected: %+v", res.TickWall)
	}
}

// TestWorkerCountClamps pins the worker-count selection: more workers
// than nodes clamp to the node count, and 0 selects a positive
// default.
func TestWorkerCountClamps(t *testing.T) {
	ws := nodes(t, "gzip", "crafty")
	ws[0].Workload.Iterations = 1
	ws[1].Workload.Iterations = 1
	res, err := RunFleet(FleetConfig{BudgetW: 30, Nodes: ws, Seed: 3, Chain: sensor.NIDefault(), Workers: 64, RetainTraces: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 2 {
		t.Errorf("64 workers over 2 nodes ran with %d workers, want 2", res.Workers)
	}
	res, err = RunFleet(FleetConfig{BudgetW: 30, Nodes: nodes(t, "gzip", "crafty"), Seed: 3, Chain: sensor.NIDefault(), RetainTraces: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers < 1 {
		t.Errorf("default worker count %d", res.Workers)
	}
}

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
// coordinator must carry: for several seeds, a run stepped across 8
// workers produces byte-for-byte the traces of the serial (Workers=1)
// reference, and the aggregate results match.
func TestParallelMatchesSerial(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := FleetConfig{
				BudgetW:      104,
				Nodes:        eightNodes(t),
				Seed:         seed,
				Chain:        sensor.NIDefault(),
				Workers:      1,
				RetainTraces: true,
			}
			serial, err := RunFleet(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Nodes = eightNodes(t)
			cfg.Workers = 8
			par, err := RunFleet(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if par.Workers != 8 || serial.Workers != 1 {
				t.Fatalf("worker counts: serial %d, parallel %d", serial.Workers, par.Workers)
			}
			sb, pb := tracesCSV(t, serial), tracesCSV(t, par)
			if !bytes.Equal(sb, pb) {
				// Locate the first diverging line for the failure report.
				sl, pl := bytes.Split(sb, []byte("\n")), bytes.Split(pb, []byte("\n"))
				for i := 0; i < len(sl) && i < len(pl); i++ {
					if !bytes.Equal(sl[i], pl[i]) {
						t.Fatalf("parallel trace diverges from serial at line %d:\n  serial   %s\n  parallel %s", i, sl[i], pl[i])
					}
				}
				t.Fatalf("parallel traces differ in length: %d vs %d lines", len(sl), len(pl))
			}
			if serial.MachineSeconds != par.MachineSeconds || serial.Makespan != par.Makespan {
				t.Errorf("aggregates diverge: serial %v/%v, parallel %v/%v",
					serial.MachineSeconds, serial.Makespan, par.MachineSeconds, par.Makespan)
			}
			if serial.PeakTotalW != par.PeakTotalW || serial.OverFrac != par.OverFrac ||
				serial.ContendedOverFrac != par.ContendedOverFrac ||
				serial.ContendedIntervals != par.ContendedIntervals {
				t.Errorf("budget accounting diverges: serial %+v, parallel %+v", serial, par)
			}
		})
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

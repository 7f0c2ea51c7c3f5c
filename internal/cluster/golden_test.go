package cluster

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"aapm/internal/sensor"
	"aapm/internal/trace"
)

// stagedGolden names the flat coordinator's reference fixtures,
// written by the staged-session cluster engine (one machine.Session
// per node, observed through a hook tap) before that engine was
// removed: eight nodes, seed 11, a 104 W budget, the NI chain, one
// worker. The .csv holds every node trace in node order; the .json
// the run's aggregates and per-node degradation logs.
const stagedGolden = "testdata/flat_staged_seed11"

// stagedAggregates is the .json fixture's shape.
type stagedAggregates struct {
	MachineSeconds     float64
	MakespanNS         int64
	PeakTotalW         float64
	OverFrac           float64
	ContendedOverFrac  float64
	ContendedIntervals int
	Degradations       [][]trace.Degradation
}

// TestEngineMatchesStaged is the flat coordinator's differential
// gate: a one-level fleet stepping one kernel.BatchState must
// reproduce the staged reference's traces byte for byte and its
// aggregates and degradation logs exactly, serially and across the
// worker pool. The default case leaves EpochTicks and FloorW zero;
// the batch cases set them to the values the zeros select (50, 4 W),
// so the defaults are checked against the same golden.
func TestEngineMatchesStaged(t *testing.T) {
	wantCSV, err := os.ReadFile(stagedGolden + ".csv")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(stagedGolden + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var want stagedAggregates
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		defaults bool
		workers  int
	}{
		{"batch-serial", false, 1},
		{"default-serial", true, 1},
		{"batch-pair", false, 2},
		{"batch-pool", false, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := FleetConfig{
				BudgetW:      104,
				Nodes:        eightNodes(t),
				Seed:         11,
				Chain:        sensor.NIDefault(),
				Workers:      tc.workers,
				RetainTraces: true,
			}
			if !tc.defaults {
				cfg.EpochTicks, cfg.FloorW = 50, 4
			}
			got, err := RunFleet(cfg)
			if err != nil {
				t.Fatal(err)
			}
			diffLines(t, "staged golden vs Run", wantCSV, tracesCSV(t, got))
			if got.MachineSeconds != want.MachineSeconds || got.Makespan != time.Duration(want.MakespanNS) {
				t.Errorf("completion aggregates diverged: %.9f/%v, golden %.9f/%v",
					got.MachineSeconds, got.Makespan, want.MachineSeconds, time.Duration(want.MakespanNS))
			}
			if got.PeakTotalW != want.PeakTotalW || got.OverFrac != want.OverFrac ||
				got.ContendedOverFrac != want.ContendedOverFrac ||
				got.ContendedIntervals != want.ContendedIntervals {
				t.Errorf("budget aggregates diverged: peak=%v over=%v cover=%v cint=%d, golden %+v",
					got.PeakTotalW, got.OverFrac, got.ContendedOverFrac, got.ContendedIntervals, want)
			}
			if len(want.Degradations) != len(got.Runs) {
				t.Fatalf("golden has %d degradation logs for %d nodes", len(want.Degradations), len(got.Runs))
			}
			for i, run := range got.Runs {
				if !reflect.DeepEqual(run.Degradations, want.Degradations[i]) {
					t.Errorf("node %s degradation log diverged", got.Names[i])
				}
			}
		})
	}
}

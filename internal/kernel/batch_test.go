package kernel

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"aapm/internal/control"
	"aapm/internal/faults"
	"aapm/internal/machine"
	"aapm/internal/metrics"
	"aapm/internal/phase"
	"aapm/internal/sensor"
	"aapm/internal/spec"
	"aapm/internal/thermal"
	"aapm/internal/trace"
)

// govFactory builds a fresh governor instance; both engines need their
// own because governors are stateful.
type govFactory func(t *testing.T) machine.Governor

func pmGov(limitW, gain float64, degrade bool) govFactory {
	return func(t *testing.T) machine.Governor {
		t.Helper()
		pm, err := control.NewPerformanceMaximizer(control.PMConfig{LimitW: limitW, FeedbackGain: gain, Degrade: degrade})
		if err != nil {
			t.Fatal(err)
		}
		return pm
	}
}

func psGov(floor float64, degrade bool) govFactory {
	return func(t *testing.T) machine.Governor {
		t.Helper()
		ps, err := control.NewPowerSave(control.PSConfig{Floor: floor, Degrade: degrade})
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}
}

func staticGov(idx int) govFactory {
	return func(t *testing.T) machine.Governor {
		return control.NewStaticClock(idx, "static-test")
	}
}

func throttleGov(floor float64) govFactory {
	return func(t *testing.T) machine.Governor {
		t.Helper()
		ts, err := control.NewThrottleSave(control.ThrottleSaveConfig{Floor: floor})
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
}

func phaseAwareGov(limitW float64) govFactory {
	return func(t *testing.T) machine.Governor {
		t.Helper()
		pm, err := control.NewPerformanceMaximizer(control.PMConfig{LimitW: limitW})
		if err != nil {
			t.Fatal(err)
		}
		pa, err := control.NewPhaseAwarePM(pm, 8, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		return pa
	}
}

func nilGov() govFactory {
	return func(t *testing.T) machine.Governor { return nil }
}

func onDemandGov() govFactory {
	return func(t *testing.T) machine.Governor { return &control.OnDemand{} }
}

// specWorkload materializes one SPEC benchmark scaled to its
// iterations for test speed.
func specWorkload(t *testing.T, name string, iterations int) phase.Workload {
	t.Helper()
	w, err := spec.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w.Iterations = iterations
	return w
}

// syntheticWorkload exercises the execute-stage corners in one run:
// idle phases longer than the interval, a phase too small to fill an
// interval, heavy jitter and multiple repeats.
func syntheticWorkload() phase.Workload {
	return phase.Workload{
		Name:       "synthetic",
		JitterPct:  0.3,
		Iterations: 3,
		Phases: []phase.Params{
			{Name: "burn", Instructions: 40e6, CPICore: 0.8, L2APKI: 2, MemAPKI: 0.5, MemBPI: 1, MLP: 2, SpecFactor: 1.1, StallFrac: 0.1},
			{Name: "nap", IdleDuration: 23 * time.Millisecond},
			{Name: "mem", Instructions: 5e6, CPICore: 1.2, L2APKI: 40, MemAPKI: 20, MemBPI: 8, MLP: 1.5, SpecFactor: 1.05, StallFrac: 0.2},
			{Name: "blip", Instructions: 1e5, CPICore: 1.0, MLP: 1, SpecFactor: 1, StallFrac: 0},
		},
	}
}

type diffCase struct {
	name     string
	workload func(t *testing.T) phase.Workload
	gov      govFactory
	cfg      machine.Config
	wantKind string
}

func diffCases() []diffCase {
	ni := sensor.NIDefault()
	tc := thermal.PentiumMThermal()
	lightFaults := faults.Preset(0.02)
	heavyFaults := faults.Preset(0.08)
	cases := []diffCase{
		{
			name:     "ammp/pm-feedback/ni",
			workload: func(t *testing.T) phase.Workload { return specWorkload(t, "ammp", 1) },
			gov:      pmGov(14.5, 0.25, false),
			cfg:      machine.Config{Chain: ni, Seed: 1},
			wantKind: "pm",
		},
		{
			name:     "ammp/pinned/ideal",
			workload: func(t *testing.T) phase.Workload { return specWorkload(t, "ammp", 1) },
			gov:      nilGov(),
			cfg:      machine.Config{Seed: 3},
			wantKind: "pinned",
		},
		{
			name:     "gzip/static-min/ni",
			workload: func(t *testing.T) phase.Workload { return specWorkload(t, "gzip", 1) },
			gov:      staticGov(0),
			cfg:      machine.Config{Chain: ni, Seed: 4},
			wantKind: "pinned",
		},
		{
			name:     "mcf/psave/ni",
			workload: func(t *testing.T) phase.Workload { return specWorkload(t, "mcf", 1) },
			gov:      psGov(0.8, false),
			cfg:      machine.Config{Chain: ni, Seed: 5},
			wantKind: "psave",
		},
		{
			name:     "synthetic/pm/ni",
			workload: func(t *testing.T) phase.Workload { return syntheticWorkload() },
			gov:      pmGov(12, 0.25, false),
			cfg:      machine.Config{Chain: ni, Seed: 6},
			wantKind: "pm",
		},
		{
			name:     "swim/pm-degrade/faults",
			workload: func(t *testing.T) phase.Workload { return specWorkload(t, "swim", 1) },
			gov:      pmGov(13, 0.25, true),
			cfg:      machine.Config{Chain: ni, Seed: 7, Faults: &lightFaults},
			wantKind: "generic",
		},
		{
			name:     "art/psave-degrade/heavy-faults",
			workload: func(t *testing.T) phase.Workload { return specWorkload(t, "art", 1) },
			gov:      psGov(0.7, true),
			cfg:      machine.Config{Chain: ni, Seed: 8, Faults: &heavyFaults},
			wantKind: "generic",
		},
		{
			name:     "crafty/ondemand/ideal",
			workload: func(t *testing.T) phase.Workload { return specWorkload(t, "crafty", 1) },
			gov:      onDemandGov(),
			cfg:      machine.Config{Seed: 9},
			wantKind: "generic",
		},
		{
			name:     "gcc/throttlesave/ni",
			workload: func(t *testing.T) phase.Workload { return specWorkload(t, "gcc", 1) },
			gov:      throttleGov(0.7),
			cfg:      machine.Config{Chain: ni, Seed: 10},
			wantKind: "generic",
		},
		{
			name:     "lucas/pm/thermal",
			workload: func(t *testing.T) phase.Workload { return specWorkload(t, "lucas", 1) },
			gov:      pmGov(14, 0.25, false),
			cfg:      machine.Config{Chain: ni, Seed: 11, Thermal: &tc},
			wantKind: "generic",
		},
		{
			name:     "ammp/phaseaware/ni",
			workload: func(t *testing.T) phase.Workload { return specWorkload(t, "ammp", 1) },
			gov:      phaseAwareGov(14.5),
			cfg:      machine.Config{Chain: ni, Seed: 12},
			wantKind: "generic",
		},
	}

	// Randomized sweep: governors × workloads × fault plans × seeds
	// from a fixed-seed generator, so the table is reproducible while
	// covering combinations nobody hand-picked.
	rng := rand.New(rand.NewSource(0x5eed))
	names := spec.Names()
	factories := []struct {
		label string
		fresh func(r *rand.Rand) govFactory
		kind  string
	}{
		{"pm", func(r *rand.Rand) govFactory { return pmGov(10+8*r.Float64(), 0.25, false) }, "pm"},
		{"pm-degrade", func(r *rand.Rand) govFactory { return pmGov(10+8*r.Float64(), 0.25, true) }, "pm"},
		{"psave", func(r *rand.Rand) govFactory { return psGov(0.6+0.3*r.Float64(), false) }, "psave"},
		{"psave-degrade", func(r *rand.Rand) govFactory { return psGov(0.6+0.3*r.Float64(), true) }, "psave"},
		{"static", func(r *rand.Rand) govFactory { return staticGov(r.Intn(6)) }, "pinned"},
		{"pinned", func(r *rand.Rand) govFactory { return nilGov() }, "pinned"},
		{"ondemand", func(r *rand.Rand) govFactory { return onDemandGov() }, "generic"},
	}
	for k := 0; k < 12; k++ {
		wname := names[rng.Intn(len(names))]
		fac := factories[rng.Intn(len(factories))]
		cfg := machine.Config{Seed: rng.Int63()}
		kind := fac.kind
		if rng.Intn(2) == 0 {
			cfg.Chain = ni
		}
		if rng.Intn(3) == 0 {
			fp := faults.Preset(0.01 + 0.07*rng.Float64())
			cfg.Faults = &fp
			kind = "generic"
		}
		cases = append(cases, diffCase{
			name:     "rand/" + wname + "/" + fac.label,
			workload: func(t *testing.T) phase.Workload { return specWorkload(t, wname, 1) },
			gov:      fac.fresh(rng),
			cfg:      cfg,
			wantKind: kind,
		})
	}
	return cases
}

func csvBytes(t *testing.T, run *trace.Run) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := run.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// compareRuns asserts the two runs are byte-identical as CSV and equal
// in every run-level total, degradation log included.
func compareRuns(t *testing.T, label string, want, got *trace.Run) {
	t.Helper()
	wantCSV, gotCSV := csvBytes(t, want), csvBytes(t, got)
	if !bytes.Equal(wantCSV, gotCSV) {
		reportCSVDiff(t, label, wantCSV, gotCSV)
	}
	if want.Workload != got.Workload || want.Policy != got.Policy {
		t.Errorf("%s: identity mismatch: staged %s/%s, batch %s/%s",
			label, want.Workload, want.Policy, got.Workload, got.Policy)
	}
	if want.Duration != got.Duration {
		t.Errorf("%s: duration: staged %v, batch %v", label, want.Duration, got.Duration)
	}
	if math.Float64bits(want.EnergyJ) != math.Float64bits(got.EnergyJ) {
		t.Errorf("%s: energy: staged %v, batch %v", label, want.EnergyJ, got.EnergyJ)
	}
	if math.Float64bits(want.MeasuredEnergyJ) != math.Float64bits(got.MeasuredEnergyJ) {
		t.Errorf("%s: measured energy: staged %v, batch %v", label, want.MeasuredEnergyJ, got.MeasuredEnergyJ)
	}
	if math.Float64bits(want.Instructions) != math.Float64bits(got.Instructions) {
		t.Errorf("%s: instructions: staged %v, batch %v", label, want.Instructions, got.Instructions)
	}
	if want.Transitions != got.Transitions || want.FailedTransitions != got.FailedTransitions {
		t.Errorf("%s: transitions: staged %d/%d, batch %d/%d",
			label, want.Transitions, want.FailedTransitions, got.Transitions, got.FailedTransitions)
	}
	if !reflect.DeepEqual(want.Degradations, got.Degradations) {
		t.Errorf("%s: degradation logs differ: staged %d entries, batch %d entries",
			label, len(want.Degradations), len(got.Degradations))
	}
	if !reflect.DeepEqual(want.DegradationCounts, got.DegradationCounts) {
		t.Errorf("%s: degradation counts differ: staged %v, batch %v",
			label, want.DegradationCounts, got.DegradationCounts)
	}
}

func reportCSVDiff(t *testing.T, label string, want, got []byte) {
	t.Helper()
	wantLines := bytes.Split(want, []byte("\n"))
	gotLines := bytes.Split(got, []byte("\n"))
	n := len(wantLines)
	if len(gotLines) < n {
		n = len(gotLines)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wantLines[i], gotLines[i]) {
			t.Fatalf("%s: CSV line %d differs\nstaged: %s\nbatch:  %s", label, i+1, wantLines[i], gotLines[i])
		}
	}
	t.Fatalf("%s: CSV row counts differ: staged %d lines, batch %d lines", label, len(wantLines), len(gotLines))
}

// TestBatchMatchesStaged is the batch kernel's correctness anchor:
// randomized and hand-picked specs run through both engines must
// produce byte-identical CSV traces, equal run summaries and equal
// metrics snapshots. Each case runs the batch twice — once bare (the
// specialized body when eligible) and once under a metrics hook (the
// generic body) — so both step paths are pinned against the staged
// reference.
func TestBatchMatchesStaged(t *testing.T) {
	for _, tc := range diffCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			w := tc.workload(t)

			// Staged reference run, with a metrics snapshot.
			mRef, err := machine.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			colRef := &metrics.Collector{LimitW: 12}
			want, err := mRef.RunWith(w, tc.gov(t), colRef)
			if err != nil {
				t.Fatal(err)
			}

			// Batch run on the specialized path (no hooks).
			mFast, err := machine.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			bFast, err := NewBatch(
				[]BatchNode{{Machine: mFast, Workload: w, Governor: tc.gov(t)}},
				BatchOptions{RetainTraces: true},
			)
			if err != nil {
				t.Fatal(err)
			}
			if bFast.Kind() != tc.wantKind {
				t.Errorf("specialization: got %q, want %q", bFast.Kind(), tc.wantKind)
			}
			if err := bFast.Run(); err != nil {
				t.Fatal(err)
			}
			compareRuns(t, "fast", want, bFast.Result(0))

			// Batch run on the generic path (metrics hook subscribed),
			// comparing the full metrics snapshot too.
			mGen, err := machine.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			colGen := &metrics.Collector{LimitW: 12}
			bGen, err := NewBatch(
				[]BatchNode{{Machine: mGen, Workload: w, Governor: tc.gov(t)}},
				BatchOptions{RetainTraces: true, Hooks: func(int) []machine.Hook {
					return []machine.Hook{colGen}
				}},
			)
			if err != nil {
				t.Fatal(err)
			}
			if bGen.Kind() != "generic" {
				t.Errorf("hooked batch should demote to generic, got %q", bGen.Kind())
			}
			if err := bGen.Run(); err != nil {
				t.Fatal(err)
			}
			run := bGen.Result(0)
			compareRuns(t, "generic", want, run)
			if !reflect.DeepEqual(colRef, colGen) {
				t.Errorf("metrics snapshots differ:\nstaged: %+v\nbatch:  %+v", colRef, colGen)
			}
		})
	}
}

// TestBatchMultiNodeMatchesStaged steps a heterogeneous batch in
// lockstep and checks every node against its own staged run — the
// interleaving must not leak state across lanes.
func TestBatchMultiNodeMatchesStaged(t *testing.T) {
	names := []string{"swim", "mcf", "gzip", "ammp"}
	cfg := machine.Config{Chain: sensor.NIDefault(), Seed: 77}
	nodes := make([]BatchNode, len(names))
	for i, name := range names {
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pm, err := control.NewPerformanceMaximizer(control.PMConfig{LimitW: 11 + float64(i), FeedbackGain: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = BatchNode{Machine: m, Workload: specWorkload(t, name, 1), Governor: pm}
	}
	b, err := NewBatch(nodes, BatchOptions{RetainTraces: true})
	if err != nil {
		t.Fatal(err)
	}
	if b.Kind() != "pm" {
		t.Fatalf("homogeneous PM batch should specialize, got %q", b.Kind())
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pm, err := control.NewPerformanceMaximizer(control.PMConfig{LimitW: 11 + float64(i), FeedbackGain: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.Run(specWorkload(t, name, 1), pm)
		if err != nil {
			t.Fatal(err)
		}
		compareRuns(t, name, want, b.Result(i))
	}

	// The coordinator's input contract: stepped in lockstep, each
	// lane's accessors (Seq, LastPowerW, LastDPC, NodeDone) must equal
	// what a hook tap on the matching staged session saw, after every
	// tick. The faulted lane covers the injector branch, where LastDPC
	// reads the corrupted sample and LastPowerW may be NaN.
	t.Run("accessors-match-tap", func(t *testing.T) {
		heavy := faults.Preset(0.08)
		lanes := []struct {
			name string
			cfg  machine.Config
		}{
			{"swim", cfg}, {"mcf", cfg}, {"gzip", cfg},
			{"art", machine.Config{Chain: sensor.NIDefault(), Seed: 78, Faults: &heavy}},
		}
		build := func() []BatchNode {
			nodes := make([]BatchNode, len(lanes))
			for i, l := range lanes {
				m, err := machine.New(l.cfg)
				if err != nil {
					t.Fatal(err)
				}
				nodes[i] = BatchNode{Machine: m, Workload: specWorkload(t, l.name, 1), Governor: pmGov(12, 0.25, true)(t)}
			}
			return nodes
		}
		b, err := NewBatch(build(), BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sessions := make([]*machine.Session, len(lanes))
		taps := make([]*tickTap, len(lanes))
		for i, n := range build() {
			if sessions[i], err = n.Machine.NewSession(n.Workload, n.Governor); err != nil {
				t.Fatal(err)
			}
			taps[i] = &tickTap{}
			sessions[i].Subscribe(taps[i])
		}
		same := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
		for tick := 1; ; tick++ {
			active := false
			for i, s := range sessions {
				stagedStepped := !s.Done()
				if stagedStepped {
					if _, err := s.Step(); err != nil {
						t.Fatal(err)
					}
				}
				if got := b.StepNode(i); got != stagedStepped {
					t.Fatalf("tick %d lane %d: batch stepped=%v, staged %v", tick, i, got, stagedStepped)
				}
				active = active || stagedStepped
				tap := taps[i]
				if b.Seq(i) != tap.seq || b.NodeDone(i) != s.Done() ||
					!same(b.LastPowerW(i), tap.last.MeasuredPowerW) ||
					!same(b.LastDPC(i), tap.last.Observed.DPC()) {
					t.Fatalf("tick %d lane %d (%s): batch seq=%d done=%v W=%v dpc=%v, tap seq=%d done=%v W=%v dpc=%v",
						tick, i, lanes[i].name, b.Seq(i), b.NodeDone(i), b.LastPowerW(i), b.LastDPC(i),
						tap.seq, s.Done(), tap.last.MeasuredPowerW, tap.last.Observed.DPC())
				}
			}
			if !active {
				break
			}
		}
	})
}

// tickTap keeps the latest interval a session's bus delivered and
// counts them — the observation a coordinator reads from a staged node.
type tickTap struct {
	machine.BaseHook
	last machine.TickState
	seq  uint64
}

func (t *tickTap) OnTick(ts machine.TickState) { t.last = ts; t.seq++ }

// TestBatchTickAllocs is the allocation-budget gate: on the
// specialized (telemetry-off, faults-off) paths a tick allocates
// nothing. Trace retention is off, as in the cluster's default
// steady-state configuration.
func TestBatchTickAllocs(t *testing.T) {
	build := func(t *testing.T, gf govFactory, wantKind string) *BatchState {
		t.Helper()
		nodes := make([]BatchNode, 4)
		for i := range nodes {
			m, err := machine.New(machine.Config{Chain: sensor.NIDefault(), Seed: int64(31 + i)})
			if err != nil {
				t.Fatal(err)
			}
			nodes[i] = BatchNode{Machine: m, Workload: specWorkload(t, "ammp", 4), Governor: gf(t)}
		}
		b, err := NewBatch(nodes, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if b.Kind() != wantKind {
			t.Fatalf("got kind %q, want %q", b.Kind(), wantKind)
		}
		// Warm the run past its first transitions before measuring.
		for k := 0; k < 50; k++ {
			b.StepAll()
		}
		return b
	}
	kinds := []struct {
		kind string
		gov  govFactory
	}{
		{"pm", pmGov(13, 0.25, false)},
		{"psave", psGov(0.8, false)},
		{"pinned", nilGov()},
	}
	for _, k := range kinds {
		k := k
		t.Run(k.kind, func(t *testing.T) {
			b := build(t, k.gov, k.kind)
			allocs := testing.AllocsPerRun(200, func() {
				b.StepAll()
			})
			if allocs != 0 {
				t.Fatalf("%s step body allocates %.1f times per lockstep round, want 0", k.kind, allocs)
			}
			if b.Done() {
				t.Fatal("workload exhausted during the measurement window; grow it")
			}
			if err := b.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

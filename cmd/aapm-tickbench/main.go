// Command aapm-tickbench measures the batch tick kernel's throughput
// against the staged reference engine on identical specs and emits the
// comparison, optionally as a BENCH_tick.json history entry.
//
// Both paths run the cluster benchmark's eight-node mix (NI chain,
// per-node PerformanceMaximizer at a 13 W share, full-length
// workloads): the batch path steps one BatchState on its specialized
// PM body with trace retention off; the reference path steps the same
// machines through machine.Session. Cost is wall-clock divided by
// node-ticks executed, the same accounting on both sides, and the
// reported figure is the fastest of -count samples (the conventional
// defense against scheduler noise on shared hosts).
//
// Usage:
//
//	aapm-tickbench [-count 3] [-json] [-note "..."]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"aapm/internal/control"
	"aapm/internal/kernel"
	"aapm/internal/machine"
	"aapm/internal/sensor"
	"aapm/internal/spec"
)

var names = []string{"swim", "mcf", "lucas", "crafty", "gzip", "gcc", "art", "ammp"}

// buildNodes assembles the benchmark mix: fresh machines and governors
// every call, so each timed sample starts from identical state.
func buildNodes() ([]kernel.BatchNode, error) {
	nodes := make([]kernel.BatchNode, len(names))
	for i, name := range names {
		w, err := spec.ByName(name)
		if err != nil {
			return nil, err
		}
		w.Iterations = w.Repeats()
		m, err := machine.New(machine.Config{Chain: sensor.NIDefault(), Seed: 7 + int64(i)*7919})
		if err != nil {
			return nil, err
		}
		pm, err := control.NewPerformanceMaximizer(control.PMConfig{LimitW: 13, FeedbackGain: 0.25})
		if err != nil {
			return nil, err
		}
		nodes[i] = kernel.BatchNode{Machine: m, Workload: w, Governor: pm}
	}
	return nodes, nil
}

// batchSample times one full batch run and returns ns/node-tick.
func batchSample() (float64, error) {
	nodes, err := buildNodes()
	if err != nil {
		return 0, err
	}
	b, err := kernel.NewBatch(nodes, kernel.BatchOptions{})
	if err != nil {
		return 0, err
	}
	if b.Kind() != "pm" {
		return 0, fmt.Errorf("expected the pm fast path, got %q", b.Kind())
	}
	start := time.Now()
	if err := b.Run(); err != nil {
		return 0, err
	}
	wall := time.Since(start)
	ticks := 0
	for i := range nodes {
		ticks += b.Ticks(i)
	}
	if ticks == 0 {
		return 0, fmt.Errorf("batch run executed no ticks")
	}
	return float64(wall.Nanoseconds()) / float64(ticks), nil
}

// stagedSample times the same mix through the staged reference engine
// (machine.Session, no hooks) and returns ns/node-tick.
func stagedSample() (float64, error) {
	nodes, err := buildNodes()
	if err != nil {
		return 0, err
	}
	sessions := make([]*machine.Session, len(nodes))
	for i, n := range nodes {
		s, err := n.Machine.NewSession(n.Workload, n.Governor)
		if err != nil {
			return 0, err
		}
		sessions[i] = s
	}
	start := time.Now()
	rows := 0
	for _, s := range sessions {
		for {
			done, err := s.Step()
			if err != nil {
				return 0, err
			}
			if done {
				break
			}
		}
		rows += len(s.Result().Rows)
	}
	wall := time.Since(start)
	if rows == 0 {
		return 0, fmt.Errorf("staged run executed no ticks")
	}
	return float64(wall.Nanoseconds()) / float64(rows), nil
}

func best(samples []float64) float64 {
	m := samples[0]
	for _, s := range samples[1:] {
		if s < m {
			m = s
		}
	}
	return m
}

// spreadPct is the sample spread as a percentage of the best sample —
// (max-min)/min — the scheduler-noise yardstick the history entries
// carry so a regression can be told from a noisy host.
func spreadPct(samples []float64) float64 {
	lo, hi := samples[0], samples[0]
	for _, s := range samples[1:] {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	if lo == 0 {
		return 0
	}
	return (hi - lo) / lo * 100
}

// cpuModel reads the host CPU's model name for the history entry.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}

func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// entry mirrors one BENCH_tick.json history element. ns_per_op is the
// batch kernel's cost per node-tick; staged_ns_per_op is the staged
// machine.Session cost on the same specs, and speedup is
// staged_ns_per_op / ns_per_op.
type entry struct {
	Date              string    `json:"date"`
	BaseCommit        string    `json:"base_commit"`
	NsPerOp           float64   `json:"ns_per_op"`
	SamplesNsOp       []float64 `json:"samples_ns_per_op"`
	StagedNsPerOp     float64   `json:"staged_ns_per_op"`
	SamplesStagedNsOp []float64 `json:"samples_staged_ns_per_op"`
	SpreadPct         float64   `json:"spread_pct"`
	Speedup           float64   `json:"speedup"`
	CPU               string    `json:"cpu"`
	Note              string    `json:"note,omitempty"`
}

func run() error {
	count := flag.Int("count", 3, "timed samples per engine (best is reported)")
	asJSON := flag.Bool("json", false, "emit a BENCH_tick.json history entry instead of text")
	note := flag.String("note", "", "note field for the -json history entry")
	flag.Parse()
	if *count < 1 {
		return fmt.Errorf("-count must be >= 1")
	}

	batch := make([]float64, 0, *count)
	staged := make([]float64, 0, *count)
	for i := 0; i < *count; i++ {
		b, err := batchSample()
		if err != nil {
			return err
		}
		batch = append(batch, b)
		s, err := stagedSample()
		if err != nil {
			return err
		}
		staged = append(staged, s)
		if !*asJSON {
			fmt.Printf("sample %d: batch %.1f, staged %.1f ns/node-tick\n", i+1, b, s)
		}
	}
	bb, sb := best(batch), best(staged)
	speedup := sb / bb

	if *asJSON {
		e := entry{
			Date:              time.Now().UTC().Format("2006-01-02"),
			BaseCommit:        gitHead(),
			NsPerOp:           round1(bb),
			SamplesNsOp:       round1s(batch),
			StagedNsPerOp:     round1(sb),
			SamplesStagedNsOp: round1s(staged),
			SpreadPct:         round1(spreadPct(batch)),
			Speedup:           round2(speedup),
			CPU:               cpuModel(),
			Note:              *note,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(e)
	}
	fmt.Printf("batch kernel: %.1f ns/node-tick (best of %d, spread %.1f%%)\n", bb, *count, spreadPct(batch))
	fmt.Printf("staged engine: %.1f ns/node-tick (best of %d, spread %.1f%%)\n", sb, *count, spreadPct(staged))
	fmt.Printf("speedup vs staged engine: %.2fx\n", speedup)
	return nil
}

func round1(v float64) float64 { return float64(int64(v*10+0.5)) / 10 }
func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }

func round1s(vs []float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = round1(v)
	}
	return out
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "aapm-tickbench:", err)
		os.Exit(1)
	}
}

// Command aapm-fleetbench measures the hierarchical fleet
// coordinator's throughput in node-ticks/sec and emits the result,
// optionally as a BENCH_fleet.json history entry.
//
// Each sample builds a fresh synthetic fleet (shared workload
// profiles, ideal measurement chain, no jitter — the memory-lean
// configuration the coordinator is specified against), runs it to
// completion through the allocation tree, and divides node-ticks
// executed by wall clock. The reported figure is the fastest of
// -count samples, with the full sample set recorded alongside it.
//
// Usage:
//
//	aapm-fleetbench [-nodes 100000] [-levels 3] [-fanout 64]
//	                [-ticks 120] [-workers 0] [-count 3] [-json]
//	                [-note "..."]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"aapm/internal/cluster"
)

// sample runs one full fleet and returns node-ticks/sec plus the
// result for shape reporting.
func sample(nodes, levels, fanout, ticks, workers int) (float64, *cluster.FleetResult, error) {
	cfg := cluster.FleetConfig{
		BudgetW: 30 * float64(nodes),
		Nodes:   cluster.SyntheticFleet(nodes, ticks),
		Seed:    7,
		Levels:  levels,
		Fanout:  fanout,
		Workers: workers,
	}
	start := time.Now()
	res, err := cluster.RunFleet(cfg)
	if err != nil {
		return 0, nil, err
	}
	wall := time.Since(start).Seconds()
	if wall <= 0 || res.NodeTicks == 0 {
		return 0, nil, fmt.Errorf("fleet run executed no measurable work")
	}
	return float64(res.NodeTicks) / wall, res, nil
}

func best(samples []float64) float64 {
	m := samples[0]
	for _, s := range samples[1:] {
		if s > m {
			m = s
		}
	}
	return m
}

// spreadPct is (max-min)/min across the samples, as a percentage —
// the scheduler-noise yardstick carried in every history entry.
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

// entry mirrors one BENCH_fleet.json history element. node_ticks_per_sec
// is the best (highest) of the recorded samples.
type entry struct {
	Date            string    `json:"date"`
	BaseCommit      string    `json:"base_commit"`
	NodeTicksPerSec float64   `json:"node_ticks_per_sec"`
	Samples         []float64 `json:"samples_node_ticks_per_sec"`
	SpreadPct       float64   `json:"spread_pct"`
	Nodes           int       `json:"nodes"`
	Levels          int       `json:"levels"`
	Fanout          int       `json:"fanout"`
	Ticks           int       `json:"ticks"`
	Workers         int       `json:"workers"`
	Epochs          int       `json:"epochs"`
	CPU             string    `json:"cpu"`
	Cores           int       `json:"cores"`
	Note            string    `json:"note,omitempty"`
}

func run() error {
	nodes := flag.Int("nodes", 100_000, "fleet population size")
	levels := flag.Int("levels", 3, "allocation-tree depth")
	fanout := flag.Int("fanout", 64, "children per interior group")
	ticks := flag.Int("ticks", 120, "intervals per node")
	workers := flag.Int("workers", 0, "stepping workers (0 = GOMAXPROCS)")
	count := flag.Int("count", 3, "timed samples (best is reported)")
	asJSON := flag.Bool("json", false, "emit a BENCH_fleet.json history entry instead of text")
	note := flag.String("note", "", "note field for the -json history entry")
	flag.Parse()
	if *count < 1 {
		return fmt.Errorf("-count must be >= 1")
	}

	rates := make([]float64, 0, *count)
	var res *cluster.FleetResult
	for i := 0; i < *count; i++ {
		r, fr, err := sample(*nodes, *levels, *fanout, *ticks, *workers)
		if err != nil {
			return err
		}
		rates = append(rates, r)
		res = fr
		if !*asJSON {
			fmt.Printf("sample %d: %.2fM node-ticks/sec\n", i+1, r/1e6)
		}
	}
	bb := best(rates)

	if *asJSON {
		e := entry{
			Date:            time.Now().UTC().Format("2006-01-02"),
			BaseCommit:      gitHead(),
			NodeTicksPerSec: round0(bb),
			Samples:         round0s(rates),
			SpreadPct:       round1(spreadPct(rates)),
			Nodes:           res.Nodes,
			Levels:          res.Levels,
			Fanout:          res.Fanout,
			Ticks:           *ticks,
			Workers:         res.Workers,
			Epochs:          res.Epochs,
			CPU:             cpuModel(),
			Cores:           runtime.NumCPU(),
			Note:            *note,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(e)
	}
	fmt.Printf("fleet: %d nodes, %d level(s), fanout %d (groups per level %v), %d worker(s)\n",
		res.Nodes, res.Levels, res.Fanout, res.GroupsPerLevel, res.Workers)
	fmt.Printf("throughput: %.2fM node-ticks/sec (best of %d, spread %.1f%%)\n",
		bb/1e6, *count, spreadPct(rates))
	fmt.Printf("%d node-ticks, %d reallocation epochs per run\n", res.NodeTicks, res.Epochs)
	return nil
}

func round0(v float64) float64 { return float64(int64(v + 0.5)) }
func round1(v float64) float64 { return float64(int64(v*10+0.5)) / 10 }
func round0s(vs []float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = round0(v)
	}
	return out
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "aapm-fleetbench:", err)
		os.Exit(1)
	}
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"aapm/internal/control"
	"aapm/internal/machine"
	"aapm/internal/pstate"
	"aapm/internal/sensor"
	"aapm/internal/spec"
)

// span is one benchmark-side (or imported program-side) span. The
// benchmark records spans around each call into a layer's public
// functions; program spans come from the tracing the program already
// has (obs spans of a fleet run, /api/trace of a serve job).
type span struct {
	Name   string             `json:"name"`
	ID     int                `json:"id"`
	Parent int                `json:"parent,omitempty"`
	Source string             `json:"source"`
	Start  time.Time          `json:"start"`
	DurUS  float64            `json:"dur_us"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced state: every method is a no-op.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{} }

// begin opens a span starting now and returns its ID (0 when off).
func (t *tracer) begin(name string, parent int) int {
	return t.record("bench", name, parent, time.Now(), 0, nil)
}

// end closes a span opened by begin.
func (t *tracer) end(id int, attrs map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.DurUS = float64(time.Since(s.Start)) / float64(time.Microsecond)
	s.Attrs = attrs
}

// record appends a finished span and returns its ID (0 when off).
func (t *tracer) record(source, name string, parent int, start time.Time, d time.Duration, attrs map[string]float64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent, Source: source,
		Start: start, DurUS: float64(d) / float64(time.Microsecond), Attrs: attrs,
	})
	return id
}

// merge appends spans recorded by another process, renumbering them
// under parent.
func (t *tracer) merge(parent int, spans []span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"spans": t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMiB reads VmHWM (the resident-set high-water mark) of a
// process from procfs; pid 0 means this process.
func peakRSSMiB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// cpuTime returns this process's CPU time so far: user plus system,
// all threads. On a shared host the hypervisor stalls busy vCPUs now
// and then (steal time); CPU time leaves the stalled time out, wall
// time does not, so the end-to-end metrics are CPU times.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU returns another process's CPU time so far (user plus
// system, all threads) from procfs, in clock ticks of 10 ms.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, fmt.Errorf("reading CPU time: %w", err)
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing /proc/%d/stat: %w", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// stealTime returns the host's steal time so far, summed over every
// vCPU: time a vCPU had work but the hypervisor ran something else.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(n) * 10 * time.Millisecond
}

// goRuntime is a snapshot of the Go runtime's cumulative allocation
// and CPU accounting, differenced around a measured section.
type goRuntime struct{ allocBytes, gcCPU, totalCPU float64 }

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() goRuntime {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goRuntime{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// since returns the allocated MiB and the GC share of CPU time since
// the earlier snapshot.
func (g goRuntime) since(before goRuntime) (allocMiB, gcFrac float64) {
	allocMiB = (g.allocBytes - before.allocBytes) / (1 << 20)
	if cpu := g.totalCPU - before.totalCPU; cpu > 0 {
		gcFrac = (g.gcCPU - before.gcCPU) / cpu
	}
	return allocMiB, gcFrac
}

// tickRecorder wraps a governor and keeps a copy of every TickInfo it
// is handed, so the stream can be replayed through a fresh governor.
type tickRecorder struct {
	g     machine.Governor
	infos []machine.TickInfo
}

func (r *tickRecorder) Name() string { return r.g.Name() }

func (r *tickRecorder) Tick(ti machine.TickInfo) int {
	r.infos = append(r.infos, ti)
	return r.g.Tick(ti)
}

// governorTickNs times one governor decision for PM and PS: a
// recorded TickInfo stream of a suite workload (chosen by the seed)
// is replayed through a fresh governor's public Tick until at least
// 200 ms have been spent, and the mean ns per call is returned.
func governorTickNs(seed int64) (pmNs, psNs float64, err error) {
	names := spec.Names()
	w, err := spec.ByName(names[int(uint64(seed)%uint64(len(names)))])
	if err != nil {
		return 0, 0, err
	}
	table := pstate.PentiumM755()
	one := func(govSpec string) (float64, error) {
		g, err := control.Parse(govSpec, table)
		if err != nil {
			return 0, err
		}
		m, err := machine.New(machine.Config{Chain: sensor.NIDefault(), Seed: seed})
		if err != nil {
			return 0, err
		}
		rec := &tickRecorder{g: g}
		if _, err := m.RunWith(w, rec); err != nil {
			return 0, err
		}
		if len(rec.infos) == 0 {
			return 0, fmt.Errorf("%s recorded no ticks", govSpec)
		}
		fresh, err := control.Parse(govSpec, table)
		if err != nil {
			return 0, err
		}
		calls := 0
		start := time.Now()
		for time.Since(start) < 200*time.Millisecond {
			for _, ti := range rec.infos {
				fresh.Tick(ti)
			}
			calls += len(rec.infos)
		}
		return float64(time.Since(start).Nanoseconds()) / float64(calls), nil
	}
	if pmNs, err = one("pm:limit=14.5"); err != nil {
		return 0, 0, err
	}
	psNs, err = one("ps:floor=0.8")
	return pmNs, psNs, err
}

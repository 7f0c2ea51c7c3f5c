// Package obs is the dependency-free observability layer: end-to-end
// run tracing, SLO burn-rate accounting, and per-job flight recording.
//
// The three pieces share one design rule: nothing here may perturb the
// simulation. Spans are recorded at coordinator granularity (intake,
// queue wait, run, reallocation epochs, shard step ranges) — never per
// tick — and the per-tick hot path's only obligation is an already-paid
// context lookup at run start. With sampling off the span store sees
// zero traffic and traces stay byte-identical (the tracing-off
// overhead/alloc budget tests pin this, in the style of the telemetry
// layer's TestTelemetryOffOverhead).
//
//   - Tracing (this file): a trace ID is minted at serve job intake and
//     carried via context.Context through experiment, the cluster
//     coordinator (RunFleetContext) and down to the kernel batch shard
//     ranges. Spans carry both virtual (simulated) and wall timestamps,
//     head sampling is per tenant, and sampled spans land in a bounded
//     in-process store (queryable at /api/trace/{jobID}) and,
//     optionally, a telemetry.TraceEventWriter Perfetto stream.
//   - SLO engine (slo.go): declarative objectives over good/bad event
//     streams with multi-window burn-rate accounting (fast 5m / slow 1h
//     by default) behind an injectable clock, surfaced at /api/slo and
//     /healthz.
//   - Flight recorder (flight.go): an always-on fixed-size ring of
//     recent spans/state/transition/degradation events per job, dumped
//     alongside the result when a job fails, is force-aborted, or trips
//     an SLO breach.
package obs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"aapm/internal/telemetry"
)

// Span is one recorded operation on a trace's timeline. Spans carry
// two clocks: virtual microseconds place the operation on the
// simulated timeline (0 for serve-side spans that exist only in wall
// time), wall fields on the host timeline. Attrs hold the numeric
// payload — power, DPC, budget shares, shard ranges — rich enough for
// postmortems and for feeding learned power models later.
type Span struct {
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	// VirtUS/VirtDurUS place the span in virtual (simulated) time.
	VirtUS    float64 `json:"virt_us,omitempty"`
	VirtDurUS float64 `json:"virt_dur_us,omitempty"`
	// Start is the wall-clock start; WallDurUS the wall-clock extent.
	Start     time.Time `json:"start"`
	WallDurUS float64   `json:"wall_dur_us,omitempty"`
	// Attrs are numeric span attributes (power_w, dpc, budget_w, …).
	Attrs map[string]float64 `json:"attrs,omitempty"`
}

// Config describes a Tracer.
type Config struct {
	// SampleRate is the default head-sampling probability in [0, 1]: the
	// decision is made once, at trace start, from a deterministic hash
	// of the trace ID. 0 disables tracing (IDs are still minted so
	// replies and event streams carry them).
	SampleRate float64
	// TenantRate overrides SampleRate per tenant name ("" is the
	// default tenant).
	TenantRate map[string]float64
	// MaxTraces bounds the in-process span store: beyond it the oldest
	// trace is dropped whole. 0 selects 256.
	MaxTraces int
	// MaxSpansPerTrace bounds each trace's span ring: beyond it the
	// oldest spans are overwritten (the drop count is reported).
	// 0 selects 512.
	MaxSpansPerTrace int
	// Export, when non-nil, tees every sampled span to a Perfetto
	// trace-event stream (one pid per trace).
	Export *telemetry.TraceEventWriter
}

// Tracer mints trace IDs, makes the head-sampling decision, and owns
// the bounded span store. Safe for concurrent use.
type Tracer struct {
	cfg Config
	seq atomic.Uint64

	mu     sync.Mutex
	traces map[string]*traceBuf
	order  []string // insertion order, oldest first (eviction order)
}

// traceBuf is one sampled trace's bounded span ring.
type traceBuf struct {
	spans []Span
	next  int    // ring write cursor once full
	total uint64 // spans ever recorded (total - len = dropped)
	pid   int    // Perfetto pid when exporting
}

// NewTracer builds a tracer. A nil *Tracer is valid and records
// nothing.
func NewTracer(cfg Config) *Tracer {
	if cfg.MaxTraces <= 0 {
		cfg.MaxTraces = 256
	}
	if cfg.MaxSpansPerTrace <= 0 {
		cfg.MaxSpansPerTrace = 512
	}
	return &Tracer{cfg: cfg, traces: make(map[string]*traceBuf)}
}

// Start mints a trace for one job submission and decides sampling.
// The returned Trace is non-nil even when unsampled — the ID must
// still reach replies and event streams — but records spans only when
// sampled. flight, when non-nil, receives every span regardless of
// sampling (the flight recorder is always on and bounded per job).
func (t *Tracer) Start(job, tenant string, flight *FlightRecorder) *Trace {
	if t == nil {
		return nil
	}
	n := t.seq.Add(1)
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", job, n)))
	id := "t" + hex.EncodeToString(sum[:8])
	tr := &Trace{ID: id, Job: job, Tenant: tenant, tracer: t, flight: flight}
	rate := t.cfg.SampleRate
	if r, ok := t.cfg.TenantRate[tenant]; ok {
		rate = r
	}
	if !sampleHash(id, rate) {
		return tr
	}
	tr.sampled = true
	buf := &traceBuf{}
	t.mu.Lock()
	if len(t.order) >= t.cfg.MaxTraces {
		oldest := t.order[0]
		t.order = t.order[1:]
		delete(t.traces, oldest)
	}
	t.traces[id] = buf
	t.order = append(t.order, id)
	t.mu.Unlock()
	if tw := t.cfg.Export; tw != nil {
		buf.pid = exportPID(id)
		tw.Emit(telemetry.TraceEvent{
			Name: "process_name", Ph: "M", PID: buf.pid,
			Args: map[string]any{"name": fmt.Sprintf("trace %s job %s tenant %s", id, job, tenantOrDefault(tenant))},
		})
	}
	return tr
}

// Spans returns a sampled trace's recorded spans (oldest first), the
// count of spans dropped by the bounded ring, and whether the trace is
// (still) in the store.
func (t *Tracer) Spans(traceID string) (spans []Span, dropped uint64, ok bool) {
	if t == nil {
		return nil, 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, ok := t.traces[traceID]
	if !ok {
		return nil, 0, false
	}
	spans = make([]Span, 0, len(buf.spans))
	if buf.total > uint64(len(buf.spans)) {
		dropped = buf.total - uint64(len(buf.spans))
		spans = append(spans, buf.spans[buf.next:]...)
		spans = append(spans, buf.spans[:buf.next]...)
	} else {
		spans = append(spans, buf.spans...)
	}
	return spans, dropped, true
}

// sampleHash makes the deterministic head-sampling decision: an FNV-1a
// hash of the trace ID mapped to [0, 1) and compared against rate, so
// the same ID samples identically on every replica.
func sampleHash(id string, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return float64(h>>11)/(1<<53) < rate
}

// exportPID derives a stable Perfetto pid from the trace ID (pids only
// group tracks in the viewer; collisions merely merge two traces'
// tracks).
func exportPID(id string) int {
	var h uint32
	for i := 0; i < len(id); i++ {
		h = h*31 + uint32(id[i])
	}
	return int(h%1_000_000) + 1000
}

func tenantOrDefault(t string) string {
	if t == "" {
		return "default"
	}
	return t
}

// Trace is one job's tracing handle, carried through the stack via
// context. All methods are nil-safe, so call sites need no guards.
type Trace struct {
	ID      string
	Job     string
	Tenant  string
	sampled bool
	tracer  *Tracer
	flight  *FlightRecorder
}

// Sampled reports whether spans recorded on this trace are stored.
// Layers doing per-span work (attr maps, wall snapshots) should guard
// on it; Record itself also checks.
func (tr *Trace) Sampled() bool { return tr != nil && tr.sampled }

// TraceID returns the trace's ID, or "" for a nil trace.
func (tr *Trace) TraceID() string {
	if tr == nil {
		return ""
	}
	return tr.ID
}

// Record stores one span: always into the job's flight recorder (it is
// bounded and per job), and into the span store + Perfetto stream when
// the trace is sampled. Job and Tenant are stamped from the trace when
// unset.
func (tr *Trace) Record(s Span) {
	if tr == nil {
		return
	}
	if s.Job == "" {
		s.Job = tr.Job
	}
	if s.Tenant == "" {
		s.Tenant = tr.Tenant
	}
	tr.flight.Note(FlightEvent{
		Wall:   s.Start,
		Kind:   "span",
		Name:   s.Name,
		VirtUS: s.VirtUS,
		Value:  s.WallDurUS,
	})
	if !tr.sampled {
		return
	}
	t := tr.tracer
	t.mu.Lock()
	buf, ok := t.traces[tr.ID]
	if ok {
		if len(buf.spans) < t.cfg.MaxSpansPerTrace {
			buf.spans = append(buf.spans, s)
		} else {
			buf.spans[buf.next] = s
			buf.next = (buf.next + 1) % len(buf.spans)
		}
		buf.total++
	}
	t.mu.Unlock()
	if !ok {
		return // evicted mid-run: stop exporting too
	}
	if tw := t.cfg.Export; tw != nil {
		tw.Emit(spanEvent(s, buf.pid))
	}
}

// spanEvent renders one span as a Chrome trace event on the virtual
// timeline (serve-side wall-only spans sit at ts 0 with their wall
// extent in args).
func spanEvent(s Span, pid int) telemetry.TraceEvent {
	args := map[string]any{"wall_dur_us": s.WallDurUS}
	for k, v := range s.Attrs {
		args[k] = v
	}
	return telemetry.TraceEvent{
		Name: s.Name, Cat: "span", Ph: "X",
		TS: s.VirtUS, Dur: s.VirtDurUS,
		PID: pid, TID: 1, Args: args,
	}
}

// WritePerfetto renders a trace's stored spans as a Chrome
// trace-event JSON array (the format Perfetto and chrome://tracing
// load), placing spans on the virtual timeline exactly as the live
// Export stream would.
func WritePerfetto(w io.Writer, traceID string, spans []Span) error {
	tw := telemetry.NewTraceEventWriter(w)
	pid := exportPID(traceID)
	name := "trace " + traceID
	if len(spans) > 0 {
		name = fmt.Sprintf("trace %s job %s tenant %s", traceID, spans[0].Job, tenantOrDefault(spans[0].Tenant))
	}
	tw.Emit(telemetry.TraceEvent{
		Name: "process_name", Ph: "M", PID: pid,
		Args: map[string]any{"name": name},
	})
	for _, s := range spans {
		tw.Emit(spanEvent(s, pid))
	}
	return tw.Close()
}

// ctxKey keys the Trace in a context.Context.
type ctxKey struct{}

// NewContext returns ctx carrying tr; spans recorded by lower layers
// (cluster, kernel shard ranges) attach to it via FromContext.
func NewContext(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, tr)
}

// FromContext extracts the Trace carried by ctx, or nil. Allocation-
// free: safe on hot setup paths.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	tr, _ := ctx.Value(ctxKey{}).(*Trace)
	return tr
}

package cluster

import (
	"time"

	"aapm/internal/obs"
)

// coordSpans records a coordinator run's epoch-granularity spans on
// the job trace carried by the run's context: one "reallocate" span
// per epoch per tree level and one "shard-step" span per worker
// covering the ticks between reallocations. It exists
// only when the trace is sampled — a nil *coordSpans is the off state,
// every method is nil-safe, and nothing here runs per tick — so with
// tracing off (or unsampled) the coordinator's hot loop is unchanged
// and the tracing-off overhead budget holds.
type coordSpans struct {
	tr       *obs.Trace
	periodUS float64 // virtual microseconds per monitoring interval
	st       *stepper
	workers  int
	wallMark []time.Duration // st.wall[k].Total at the last boundary
	from     int             // tick the current shard-span window opened at

	// levelWall/levelCount track the per-level allocation wall between
	// epochs.
	levelWall  []time.Duration
	levelCount []int
}

// newCoordSpans builds the span recorder, or nil when the trace is
// absent or unsampled.
func newCoordSpans(tr *obs.Trace, period time.Duration, st *stepper, workers int) *coordSpans {
	if !tr.Sampled() {
		return nil
	}
	return &coordSpans{
		tr:       tr,
		periodUS: float64(period) / float64(time.Microsecond),
		st:       st,
		workers:  workers,
		wallMark: make([]time.Duration, workers),
	}
}

// active reports whether spans are being recorded (call sites that pay
// setup cost — a time.Now before an Allocate — guard on it).
func (c *coordSpans) active() bool { return c != nil }

// trackLevels arms per-level allocation-wall accounting; counts[l] is
// the entity count at level l.
func (c *coordSpans) trackLevels(counts []int) {
	if c == nil {
		return
	}
	c.levelWall = make([]time.Duration, len(counts))
	c.levelCount = counts
}

// levelDur folds one distribute call's wall into its level.
func (c *coordSpans) levelDur(l int, d time.Duration) {
	if c == nil {
		return
	}
	c.levelWall[l] += d
}

// fleetEpoch records the reallocation at tick: one
// reallocate span per level (wall from the distribute recursion,
// deepest level first so the Perfetto nesting reads root-outward) and
// the window's shard-step spans.
func (c *coordSpans) fleetEpoch(tick int, budgetW float64) {
	if c == nil {
		return
	}
	for l := range c.levelWall {
		c.tr.Record(obs.Span{
			Name:      "reallocate",
			VirtUS:    float64(tick) * c.periodUS,
			Start:     time.Now(),
			WallDurUS: float64(c.levelWall[l]) / float64(time.Microsecond),
			Attrs: map[string]float64{
				"budget_w": budgetW,
				"level":    float64(l),
				"entities": float64(c.levelCount[l]),
			},
		})
		c.levelWall[l] = 0
	}
	c.shardSpans(tick)
}

// shardSpans closes the current window at tick: one span per worker
// whose wall is the shard-stepping time accumulated since the last
// boundary (diffed off the stepper's per-worker aggregates, which the
// workers already maintain — no extra work on the stepping path).
func (c *coordSpans) shardSpans(tick int) {
	for k := 0; k < c.workers; k++ {
		d := c.st.wall[k].Total - c.wallMark[k]
		c.wallMark[k] = c.st.wall[k].Total
		c.tr.Record(obs.Span{
			Name:      "shard-step",
			VirtUS:    float64(c.from) * c.periodUS,
			VirtDurUS: float64(tick-c.from) * c.periodUS,
			Start:     time.Now(),
			WallDurUS: float64(d) / float64(time.Microsecond),
			Attrs: map[string]float64{
				"worker":  float64(k),
				"workers": float64(c.workers),
				"ticks":   float64(tick - c.from),
			},
		})
	}
	c.from = tick
}

// finish closes the final partial window when the run ends at tick.
func (c *coordSpans) finish(tick int) {
	if c == nil || tick <= c.from {
		return
	}
	c.shardSpans(tick)
}

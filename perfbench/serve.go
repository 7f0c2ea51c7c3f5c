package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"aapm/internal/serve"
	"aapm/internal/spec"
)

// The serve workload drives one aapm-serve process (2 workers, bounded
// store, two tenants weighted 2:1) from this process over two
// keep-alive connections: one submits, one observes. An open loop at
// a fixed rate below capacity measures job latency; a fixed backlog of
// distinct specs then measures capacity.
const (
	serveRate        = 30.0 // open-loop submissions per second, about a third of capacity
	serveOpenShare   = 0.6  // share of the window the open loop runs
	serveBacklog     = 400  // distinct specs in the capacity drain
	serveMaxJobs     = 512  // bounded job store: the drain evicts checked open-loop jobs
	serveQueue       = 1024 // deeper than the backlog: a 429 is a failure
	serveSetupProbes = 7    // probe server starts per run; setup_s is their median
	serveScrapeEvery = time.Second
	servePollPause   = time.Millisecond // between the observer's rounds
	// drainPollPause spaces the drain's status requests: the drain is
	// measured in server CPU time, which the requests add to.
	drainPollPause = 10 * time.Millisecond
)

// goldenSpec is the golden-fixture configuration; its CSV result must
// equal testdata/golden_pm_ammp.csv byte for byte.
var goldenSpec = serve.JobSpec{Workload: "ammp", Governor: "pm:limit=14.5", Seed: 1, Iterations: 1, Tenant: "acme"}

// sjob is one submission and what was observed about it.
type sjob struct {
	spec   serve.JobSpec
	golden bool
	dup    bool
	drain  bool

	due, sent, done time.Time
	lastPoll        time.Time
	unseen          bool // the status request failed
	id              string
	state           serve.State
	wallMs          float64
	// gap is the time between the last poll that saw the job
	// unfinished (or its acceptance) and the poll that saw it finished.
	gap time.Duration
}

// Job kinds of the serve mix.
const (
	kindShort     = iota // one-iteration single machine, PM or PS
	kindFull             // full-length single machine, PM or PS
	kindFleet            // one-iteration multi-level fleet, 16-32 nodes
	kindFleetFull        // full-length multi-level fleet, 16 nodes
	kindDup              // resubmission of an earlier spec
)

// openBlock is the open loop's mix, repeated in this order so every
// seed has the same arrival pattern of heavy and light jobs (a burst of
// heavy arrivals would otherwise set serve.job_p99_ms). Full-length fleet
// jobs are the majority so the median job lasts tens of milliseconds,
// well above the observer's 1 ms poll.
var openBlock = []int{kindFleetFull, kindShort, kindFleetFull, kindDup, kindFleetFull, kindFull,
	kindFleetFull, kindDup, kindFleetFull, kindFleet, kindFleetFull, kindFleetFull}

// governors is the PM/PS cycle single-machine jobs draw from.
var governors = []string{
	"pm:limit=11.5", "pm:limit=12.5", "pm:limit=13.5", "pm:limit=14.5", "pm:limit=15.5", "pm:limit=16.5", "pm:limit=17.5",
	"ps:floor=0.6", "ps:floor=0.7", "ps:floor=0.8", "ps:floor=0.9",
}

// jobMix generates n submissions from the seed: the open loop's blocks,
// or with backlog set n full-length fleet jobs (heavy enough that the
// queue, not the intake, sets the drain rate). Workloads, governors and
// fleet sizes cycle through sequences of coprime lengths, the workload
// order shuffled by the seed, rather than being drawn independently, so
// every seed runs nearly the same work; the seed sets
// the workload order, the simulation seeds, the tenant phase and the
// duplicates' targets. Fresh specs go to tenants
// acme, acme, batch in turn.
func jobMix(rng *rand.Rand, n int, backlog bool) []*sjob {
	names := spec.Names()
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	counts := map[int]int{}
	fresh := rng.Intn(3)
	newSpec := func(kind int) serve.JobSpec {
		k := counts[kind]
		counts[kind]++
		js := serve.JobSpec{
			Workload: names[k%len(names)],
			Seed:     rng.Int63n(1 << 30),
			Tenant:   []string{"acme", "acme", "batch"}[fresh%3],
		}
		fresh++
		switch kind {
		case kindShort:
			js.Iterations = 1
			js.Governor = governors[k%len(governors)]
		case kindFull:
			js.Governor = governors[k%len(governors)]
		case kindFleet:
			js.Iterations = 1
			js.Nodes = 16 + k%17
			js.Levels = 2
			js.Fanout = 4 + k%5
			js.BudgetW = float64(js.Nodes) * 12
		case kindFleetFull:
			// A fixed size: paired with the workload cycle, a size
			// cycle would tie heavy workloads to large fleets on some
			// seeds and to small ones on others.
			js.Nodes = 16
			js.Levels = 2
			js.Fanout = 4
			js.BudgetW = float64(js.Nodes) * 12
		}
		return js
	}
	jobs := make([]*sjob, 0, n)
	if backlog {
		for len(jobs) < n {
			jobs = append(jobs, &sjob{spec: newSpec(kindFleetFull), drain: true})
		}
		return jobs
	}
	for len(jobs) < n {
		for _, kind := range openBlock {
			if len(jobs) == n {
				break
			}
			if kind == kindDup && len(jobs) > 0 {
				orig := jobs[rng.Intn(len(jobs))]
				jobs = append(jobs, &sjob{spec: orig.spec, golden: orig.golden, dup: true})
				continue
			}
			if kind == kindDup {
				kind = kindShort
			}
			jobs = append(jobs, &sjob{spec: newSpec(kind)})
		}
	}
	return jobs
}

// server is one running aapm-serve child.
type server struct {
	cmd  *exec.Cmd
	base string
}

func startServer(r *run, traced bool) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	sample := "0"
	if traced {
		sample = "1"
	}
	cmd := exec.Command(filepath.Join(r.out, "bin", "aapm-serve"),
		"-addr", addr,
		"-workers", strconv.Itoa(r.workers),
		"-queue", strconv.Itoa(serveQueue),
		"-max-jobs", strconv.Itoa(serveMaxJobs),
		"-tenant-weights", "acme=2,batch=1",
		"-trace-sample", sample)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting aapm-serve: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr}
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	for time.Since(start) < 30*time.Second {
		resp, err := c.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	s.stop()
	return nil, fmt.Errorf("aapm-serve did not report healthy within 30 s")
}

// stop asks the server to drain and waits for it to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { _ = s.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
}

// client is one keep-alive HTTP connection's worth of client.
func client() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// servePass is one server lifetime's measurements.
type servePass struct {
	jobs       []*sjob
	submitMs   []float64
	lateMs     []float64
	scrapeMs   []float64
	queueMs    []float64
	runMs      []float64
	drainWall  time.Duration
	drainCPU   time.Duration // the server's CPU time during the drain
	drainTicks int
	rssMiB     float64
	evicted    float64
	rejected   float64
	hits, dups int
}

func runServe(r *run) error {
	// Set-up probes: servers stopped as soon as they report healthy;
	// each one's CPU time over its life is a setup_s sample.
	var setups []float64
	for i := 0; i < serveSetupProbes; i++ {
		s, err := startServer(r, false)
		if err != nil {
			return err
		}
		s.stop()
		st := s.cmd.ProcessState
		setups = append(setups, (st.UserTime() + st.SystemTime()).Seconds())
	}
	srv, err := startServer(r, false)
	if err != nil {
		return err
	}
	golden, err := os.ReadFile(filepath.Join(r.root, "testdata", "golden_pm_ammp.csv"))
	if err != nil {
		return fmt.Errorf("reading the golden fixture: %w", err)
	}
	p := servePassRun(r, srv, golden, false)
	srv.stop()

	var tp *servePass
	if r.traced {
		ts, err := startServer(r, true)
		if err != nil {
			return err
		}
		id := r.spans.begin("serve.traced-pass", 0)
		tp = servePassRun(r, ts, golden, true)
		r.spans.end(id, nil)
		ts.stop()
	}

	var lat []float64
	for _, j := range p.jobs {
		if !j.drain && !j.done.IsZero() {
			lat = append(lat, ms(j.done.Sub(j.due)))
		}
	}
	var gaps []float64
	for _, j := range p.jobs {
		if !j.drain && j.gap > 0 {
			gaps = append(gaps, ms(j.gap))
		}
	}
	p50 := quantile(lat, 0.5)
	gap := quantile(gaps, 0.5)
	fmt.Printf("serve: %d open-loop jobs at %.0f/s (latency percentiles over these), %d backlog; completion poll gap p50 %.3f ms, p99 %.3f ms; job p50 %.3f ms\n",
		len(lat), serveRate, serveBacklog, gap, quantile(gaps, 0.99), p50)
	if gap > p50/10 {
		fmt.Printf("note: completion poll gap p50 %.3f ms is coarser than a tenth of the job p50\n", gap)
	}
	fmt.Printf("serve: backlog of %d drained in %.3f s wall, %.3f s server CPU\n", serveBacklog, p.drainWall.Seconds(), p.drainCPU.Seconds())
	cpu := p.drainCPU.Seconds()
	r.e2e["setup_s"] = median(setups)
	r.e2e["job_cpu_s"] = cpu / serveBacklog
	r.e2e["node_ticks_per_cpu_s"] = float64(p.drainTicks) / cpu
	r.e2e["peak_rss_mb"] = p.rssMiB

	if tp != nil {
		// Host-time latency and capacity of the untraced pass.
		r.layer["serve.job_p50_ms"] = p50
		r.layer["serve.job_p99_ms"] = quantile(lat, 0.99)
		r.layer["serve.jobs_per_s"] = serveBacklog / p.drainWall.Seconds()
		r.layer["serve.queue_wait_ms"] = median(tp.queueMs)
		r.layer["serve.run_ms"] = median(tp.runMs)
		r.layer["serve.submit_p99_ms"] = quantile(tp.submitMs, 0.99)
		if tp.dups > 0 {
			r.layer["serve.cache_hit_frac"] = float64(tp.hits) / float64(tp.dups)
		}
		r.layer["serve.rejected"] = tp.rejected
		r.layer["serve.evicted"] = tp.evicted
		r.layer["serve.gen_late_ms"] = quantile(tp.lateMs, 0.99)
		r.layer["telemetry.scrape_ms"] = median(tp.scrapeMs)
		r.layer["obs.overhead_frac"] = tp.drainCPU.Seconds()/cpu - 1
	}
	return nil
}

// servePassRun runs the open loop and then the backlog drain against
// srv, and checks every result once each phase has ended (checking
// inside a phase would delay the observation of other jobs).
// Failures are recorded on r.
func servePassRun(r *run, srv *server, golden []byte, traced bool) *servePass {
	rng := rand.New(rand.NewSource(r.seed))
	openN := int(serveRate * serveOpenShare * r.window.Seconds())
	open := append([]*sjob{{spec: goldenSpec, golden: true}}, jobMix(rng, openN, false)...)
	drain := jobMix(rng, serveBacklog, true)
	p := &servePass{jobs: append(append([]*sjob(nil), open...), drain...)}
	submitter, observer := client(), client()
	results := map[string][]byte{}

	// Open loop: job i is due at i/serveRate; the observer polls every
	// job in flight once per round, so a completion is seen within one
	// round (about servePollPause).
	accepted := make(chan *sjob, len(open)) // sized to the sends: the submitter never blocks
	go func() {
		defer close(accepted)
		t0 := time.Now()
		for i, j := range open {
			j.due = t0.Add(time.Duration(float64(i) / serveRate * float64(time.Second)))
			time.Sleep(time.Until(j.due))
			submit(r, p, submitter, srv, j, accepted)
		}
	}()
	var inflight []*sjob
	lastScrape := time.Now()
	for {
		if len(inflight) == 0 {
			j, ok := <-accepted
			if !ok {
				break
			}
			inflight = append(inflight, j)
		}
	more:
		for {
			select {
			case j, ok := <-accepted:
				if !ok {
					break more
				}
				inflight = append(inflight, j)
			default:
				break more
			}
		}
		keep := inflight[:0]
		for _, j := range inflight {
			if j.done.IsZero() && !poll(r, observer, srv, j) {
				keep = append(keep, j)
			}
		}
		inflight = keep
		if len(inflight) > 0 {
			time.Sleep(servePollPause)
		}
		if time.Since(lastScrape) > serveScrapeEvery {
			t0 := time.Now()
			if _, _, err := get(observer, srv.base+"/metrics"); err == nil {
				p.scrapeMs = append(p.scrapeMs, ms(time.Since(t0)))
			}
			lastScrape = time.Now()
		}
	}
	for _, j := range open {
		checkJob(r, p, observer, srv, j, results, golden, traced)
	}

	// Drain: the backlog is submitted back to back while the observer
	// waits on the oldest unfinished job; the drain ends when the last
	// job is seen finished.
	accepted = make(chan *sjob, len(drain))
	cpuStart, err := procCPU(srv.cmd.Process.Pid)
	if err != nil {
		r.fail("serve: %v", err)
	}
	drainStart := time.Now()
	go func() {
		defer close(accepted)
		for _, j := range drain {
			j.due = time.Now()
			submit(r, p, submitter, srv, j, accepted)
		}
	}()
	for j := range accepted {
		for j.done.IsZero() && !poll(r, observer, srv, j) {
			time.Sleep(drainPollPause)
		}
	}
	cpuEnd, err := procCPU(srv.cmd.Process.Pid)
	if err != nil {
		r.fail("serve: %v", err)
	}
	p.drainCPU = cpuEnd - cpuStart
	var drainEnd time.Time
	for _, j := range drain {
		if j.done.After(drainEnd) {
			drainEnd = j.done
		}
	}
	p.drainWall = drainEnd.Sub(drainStart)
	for _, j := range drain {
		checkJob(r, p, observer, srv, j, results, golden, traced)
	}

	if code, body, err := get(observer, srv.base+"/metrics"); err == nil && code == http.StatusOK {
		p.evicted = counterSum(body, serve.MetricEvicted)
		p.rejected = counterSum(body, serve.MetricRejected)
	} else {
		r.fail("serve: final /metrics scrape: %d %v", code, err)
	}
	rss, err := peakRSSMiB(srv.cmd.Process.Pid)
	if err != nil {
		r.fail("serve: %v", err)
	}
	p.rssMiB = rss
	return p
}

// poll fetches a job's status and reports whether the job has ended
// (or could not be observed, which is recorded as a failure).
func poll(r *run, c *http.Client, srv *server, j *sjob) bool {
	if j.lastPoll.IsZero() {
		j.lastPoll = time.Now()
	}
	code, body, err := get(c, srv.base+"/api/jobs/"+j.id)
	var st serve.Status
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(body, &st)
	}
	if err != nil || code != http.StatusOK {
		r.fail("serve: status of %s: %d %s %v", j.id, code, bytes.TrimSpace(body), err)
		j.done, j.unseen = time.Now(), true
		return true
	}
	now := time.Now()
	if !st.State.Terminal() {
		j.lastPoll = now
		return false
	}
	j.done, j.gap, j.state, j.wallMs = now, now.Sub(j.lastPoll), st.State, st.WallMs
	return true
}

// submit POSTs one job and hands an accepted job to the observer.
func submit(r *run, p *servePass, c *http.Client, srv *server, j *sjob, accepted chan<- *sjob) {
	body, _ := json.Marshal(j.spec)
	j.sent = time.Now()
	p.lateMs = append(p.lateMs, ms(j.sent.Sub(j.due)))
	r.attempt()
	resp, err := c.Post(srv.base+"/api/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		r.fail("serve: POST: %v", err)
		return
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	p.submitMs = append(p.submitMs, ms(time.Since(j.sent)))
	r.spans.record("bench", "serve.POST /api/jobs", 0, j.sent, time.Since(j.sent), nil)
	code := resp.StatusCode
	if err != nil || (code != http.StatusAccepted && code != http.StatusOK) {
		r.fail("serve: POST %s: %d %s %v", body, code, bytes.TrimSpace(reply), err)
		return
	}
	var st serve.Status
	if err := json.Unmarshal(reply, &st); err != nil {
		r.fail("serve: POST reply: %v", err)
		return
	}
	j.id = st.ID
	if j.dup {
		p.dups++
		if code == http.StatusOK {
			p.hits++
		}
	}
	if st.State.Terminal() {
		j.done, j.state, j.wallMs = time.Now(), st.State, st.WallMs
	}
	accepted <- j
}

// checkJob verifies a finished job: it must be done, a duplicate's
// result must equal its first copy's bytes, and the golden spec's CSV
// must equal the fixture.
func checkJob(r *run, p *servePass, c *http.Client, srv *server, j *sjob, results map[string][]byte, golden []byte, traced bool) {
	if j.id == "" || j.unseen {
		return // not accepted, or its status was unreadable: already a failure
	}
	if j.state != serve.StateDone {
		r.fail("serve: job %s ended %s", j.id, j.state)
		return
	}
	code, body, err := get(c, srv.base+"/api/jobs/"+j.id+"/result")
	if err != nil || code != http.StatusOK {
		r.fail("serve: result of %s: %d %v", j.id, code, err)
		return
	}
	if first, ok := results[j.id]; ok {
		if !bytes.Equal(first, body) {
			r.fail("serve: result of %s differs from its first copy", j.id)
		}
	} else {
		results[j.id] = body
	}
	var res serve.Result
	if err := json.Unmarshal(body, &res); err != nil {
		r.fail("serve: result of %s: %v", j.id, err)
		return
	}
	if j.drain {
		p.drainTicks += res.Ticks
	}
	if j.golden {
		code, csv, err := get(c, srv.base+"/api/jobs/"+j.id+"/result?format=csv")
		if err != nil || code != http.StatusOK || !bytes.Equal(csv, golden) {
			r.fail("serve: golden spec CSV differs from testdata/golden_pm_ammp.csv (%d bytes vs %d, status %d, %v)", len(csv), len(golden), code, err)
		}
	}
	if j.wallMs > 0 && !j.dup && !j.drain {
		p.runMs = append(p.runMs, j.wallMs)
	}
	if traced && !j.dup {
		code, body, err := get(c, srv.base+"/api/trace/"+j.id)
		var ts struct {
			Spans []struct {
				Name      string    `json:"name"`
				Start     time.Time `json:"start"`
				WallDurUS float64   `json:"wall_dur_us"`
			} `json:"spans"`
		}
		if err != nil || code != http.StatusOK || json.Unmarshal(body, &ts) != nil {
			r.fail("serve: trace of %s: %d %v", j.id, code, err)
			return
		}
		for _, s := range ts.Spans {
			if s.Name == "queue-wait" && !j.drain {
				p.queueMs = append(p.queueMs, s.WallDurUS/1000)
			}
			r.spans.record("program", "serve."+s.Name, 0, s.Start, time.Duration(s.WallDurUS*float64(time.Microsecond)), nil)
		}
	}
}

// counterSum adds every sample of one metric family in a Prometheus
// text exposition.
func counterSum(expo []byte, family string) float64 {
	var sum float64
	sc := bufio.NewScanner(bytes.NewReader(expo))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if rest != "" && rest[0] != '{' && rest[0] != ' ' {
			continue
		}
		fields := strings.Fields(line)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			sum += v
		}
	}
	return sum
}

// Package obs is the live telemetry plane: a stdlib-only observability
// layer the long-running pipelines (samfig campaigns, samsim sweeps)
// expose while they run. It has three faces:
//
//   - Tracker: run-lifecycle accounting fed by the worker pool's
//     SweepObserver hooks (internal/runner) — job spans with queue-wait
//     and run-duration histograms, memo hit/miss attribution, worker
//     occupancy — all recorded into an internal/stats registry guarded
//     by the tracker's own mutex.
//   - Server (server.go): an HTTP endpoint serving /metrics (Prometheus
//     text exposition rendered live from registry snapshots), /progress
//     (per-sweep JSON with ETA), /healthz, and /debug/pprof.
//   - a structured JSONL event log: every job span is appended to
//     Config.Log as one Event per transition (enqueue/start/finish/fail,
//     plus stall and summary records), exact enough that replaying the
//     log reproduces the registry's histograms and memo counters
//     bit-for-bit (TestEventLogReconciles).
//
// Observation is strictly one-way: nothing here feeds back into
// scheduling or simulation, so figures stay byte-identical with the
// plane attached — the same contract the memo cache pins.
package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"

	"sam/internal/runner"
	"sam/internal/stats"
)

// Instrument names the tracker registers. The obscheck validator and the
// golden exposition test pin their rendered (sam_obs_*) forms.
const (
	cEnqueued = "obs.jobs.enqueued"
	cStarted  = "obs.jobs.started"
	cFinished = "obs.jobs.finished"
	cFailed   = "obs.jobs.failed"
	cStalls   = "obs.stalls"
	cMemoPfx  = "obs.memo." // + memo.Outcome.String(): miss/hit/disk-hit/dedup

	hQueueNS = "obs.job.queue_ns"
	hRunNS   = "obs.job.run_ns"

	gInflight   = "obs.jobs.inflight"
	gQueued     = "obs.jobs.queued"
	gStalled    = "obs.jobs.stalled"
	gWorkersMax = "obs.workers.max"
)

// jobLatencyBounds are the queue/run histogram bucket upper bounds in
// nanoseconds: 1ms, 10ms, 100ms, 1s, 10s, 60s (+Inf implicit).
var jobLatencyBounds = []uint64{1e6, 1e7, 1e8, 1e9, 1e10, 6e10}

// Config configures a Tracker. The zero value is valid: no event log,
// wall-clock time, default watchdog thresholds.
type Config struct {
	// Log, when non-nil, receives the JSONL event stream (one Event per
	// line). Writes happen under the tracker's lock in job-transition
	// order; the first write error is kept and returned by Close.
	Log io.Writer
	// Clock overrides time.Now — injectable for watchdog tests.
	Clock func() time.Time
	// StallFactor scales the stall threshold: a running job is stalled
	// once its duration exceeds StallFactor x the median completed run
	// duration. <= 0 means 8.
	StallFactor float64
	// StallFloor is the minimum stall threshold, so early jobs (no
	// median yet) and fast sweeps don't false-positive. <= 0 means 30s.
	StallFloor time.Duration
}

// jobState is one job's lifecycle position.
type jobState uint8

const (
	jobQueued jobState = iota
	jobRunning
	jobDone
	jobFailed
)

// job is one sweep item's span.
type job struct {
	enq, start, end time.Time
	worker          int
	state           jobState
	memo            string
	stalled         bool
}

// sweepScope accumulates every Map/Grid call sharing one label (nested
// sweeps reuse their figure's label); each call appends a block of jobs
// at its base offset, so job indices in the event log are scope-wide.
type sweepScope struct {
	label  string
	jobs   []job
	done   int
	failed int
}

// Tracker is the run-lifecycle accountant. All methods are goroutine-safe
// (one mutex guards the registry, the scopes, and the event log), which is
// what lets worker goroutines feed it directly and HTTP scrapes snapshot
// it concurrently.
type Tracker struct {
	cfg Config

	mu        sync.Mutex
	reg       *stats.Registry
	start     time.Time
	scopes    map[string]*sweepScope
	order     []string
	durs      []time.Duration // completed run durations (median source)
	inflight  int
	queuedN   int
	maxWorker int // highest observed pool worker slot + 1
	logErr    error
}

// NewTracker builds a tracker.
func NewTracker(cfg Config) *Tracker {
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.StallFactor <= 0 {
		cfg.StallFactor = 8
	}
	if cfg.StallFloor <= 0 {
		cfg.StallFloor = 30 * time.Second
	}
	t := &Tracker{
		cfg:    cfg,
		reg:    stats.NewRegistry(),
		scopes: make(map[string]*sweepScope),
	}
	t.start = cfg.Clock()
	// Register the fixed-name instruments up front so even an idle scrape
	// exposes the full family set.
	for _, c := range []string{cEnqueued, cStarted, cFinished, cFailed, cStalls} {
		t.reg.Counter(c)
	}
	t.reg.Histogram(hQueueNS, jobLatencyBounds...)
	t.reg.Histogram(hRunNS, jobLatencyBounds...)
	for _, g := range []string{gInflight, gQueued, gStalled, gWorkersMax} {
		t.reg.Gauge(g)
	}
	return t
}

// Event is one JSONL log record. Ev selects the shape:
//
//	enqueue  sweep, jobs, base        — a Map/Grid call enqueued jobs
//	start    sweep, job, worker       — job began executing
//	finish   sweep, job, worker, queue_ns, run_ns, memo
//	fail     finish fields + err
//	annotate sweep, job, key, value   — non-memo in-flight attribution
//	stall    sweep, job, run_ns, threshold_ns, median_ns
//	summary  summary                  — final totals, written by Close
type Event struct {
	T           int64         `json:"t_ns"`
	Ev          string        `json:"ev"`
	Sweep       string        `json:"sweep,omitempty"`
	Job         int           `json:"job"`
	Worker      int           `json:"worker"`
	Jobs        int           `json:"jobs,omitempty"`
	Base        int           `json:"base,omitempty"`
	QueueNS     int64         `json:"queue_ns,omitempty"`
	RunNS       int64         `json:"run_ns,omitempty"`
	Memo        string        `json:"memo,omitempty"`
	Key         string        `json:"key,omitempty"`
	Value       string        `json:"value,omitempty"`
	Err         string        `json:"err,omitempty"`
	ThresholdNS int64         `json:"threshold_ns,omitempty"`
	MedianNS    int64         `json:"median_ns,omitempty"`
	Summary     *SummaryEvent `json:"summary,omitempty"`
}

// SweepSummary is one sweep's final tally inside the summary event.
type SweepSummary struct {
	Sweep  string `json:"sweep"`
	Jobs   int    `json:"jobs"`
	Done   int    `json:"done"`
	Failed int    `json:"failed"`
}

// SummaryEvent closes the event log: per-sweep tallies plus the final
// counter snapshot (the reconciliation test's right-hand side).
type SummaryEvent struct {
	Sweeps   []SweepSummary    `json:"sweeps"`
	Counters map[string]uint64 `json:"counters"`
}

// writeEvent appends one record to the log. Caller holds t.mu.
func (t *Tracker) writeEvent(e *Event) {
	if t.cfg.Log == nil || t.logErr != nil {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		t.logErr = err
		return
	}
	b = append(b, '\n')
	if _, err := t.cfg.Log.Write(b); err != nil {
		t.logErr = err
	}
}

// Hooks returns the worker-pool observer feeding this tracker under the
// given sweep label — the value for runner.Options.Observer / core
// Par.Observer. One tracker serves any number of labels concurrently.
func (t *Tracker) Hooks(label string) runner.SweepObserver {
	return scopedObserver{t: t, label: label}
}

type scopedObserver struct {
	t     *Tracker
	label string
}

func (o scopedObserver) SweepStarted(total int) runner.SweepSpan {
	return o.t.sweepStarted(o.label, total)
}

// sweepStarted opens one Map/Grid call's block of jobs.
func (t *Tracker) sweepStarted(label string, total int) runner.SweepSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.cfg.Clock()
	s := t.scopes[label]
	if s == nil {
		s = &sweepScope{label: label}
		t.scopes[label] = s
		t.order = append(t.order, label)
	}
	base := len(s.jobs)
	for i := 0; i < total; i++ {
		s.jobs = append(s.jobs, job{enq: now})
	}
	t.queuedN += total
	t.reg.Counter(cEnqueued).Add(uint64(total))
	t.writeEvent(&Event{T: now.UnixNano(), Ev: "enqueue", Sweep: label, Jobs: total, Base: base})
	return &span{t: t, s: s, base: base}
}

// span is one Map/Grid call's SweepSpan.
type span struct {
	t    *Tracker
	s    *sweepScope
	base int
}

func (sp *span) JobStarted(i, worker int) {
	t := sp.t
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.cfg.Clock()
	j := &sp.s.jobs[sp.base+i]
	j.start = now
	j.worker = worker
	j.state = jobRunning
	t.queuedN--
	t.inflight++
	if worker+1 > t.maxWorker {
		t.maxWorker = worker + 1
	}
	t.reg.Counter(cStarted).Inc()
	t.writeEvent(&Event{T: now.UnixNano(), Ev: "start", Sweep: sp.s.label, Job: sp.base + i, Worker: worker})
}

func (sp *span) JobAnnotate(i int, key, value string) {
	t := sp.t
	t.mu.Lock()
	defer t.mu.Unlock()
	j := &sp.s.jobs[sp.base+i]
	if key == "memo" {
		j.memo = value
		t.reg.Counter(cMemoPfx + value).Inc()
		return
	}
	t.writeEvent(&Event{
		T: t.cfg.Clock().UnixNano(), Ev: "annotate",
		Sweep: sp.s.label, Job: sp.base + i, Worker: j.worker, Key: key, Value: value,
	})
}

func (sp *span) JobFinished(i, worker int, err error) {
	t := sp.t
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.cfg.Clock()
	j := &sp.s.jobs[sp.base+i]
	j.end = now
	queue := j.start.Sub(j.enq)
	run := now.Sub(j.start)
	t.inflight--
	t.durs = append(t.durs, run)
	// The histogram observations and the logged durations are the same
	// values — replaying the log reproduces the registry exactly.
	t.reg.Histogram(hQueueNS).Observe(uint64(queue))
	t.reg.Histogram(hRunNS).Observe(uint64(run))
	e := &Event{
		T: now.UnixNano(), Ev: "finish", Sweep: sp.s.label, Job: sp.base + i, Worker: worker,
		QueueNS: int64(queue), RunNS: int64(run), Memo: j.memo,
	}
	if err != nil {
		j.state = jobFailed
		sp.s.failed++
		t.reg.Counter(cFailed).Inc()
		e.Ev = "fail"
		e.Err = err.Error()
	} else {
		j.state = jobDone
		sp.s.done++
		t.reg.Counter(cFinished).Inc()
	}
	t.writeEvent(e)
}

// Single opens a one-job span (for tools whose unit of work is a single
// replay or query rather than a sweep) and returns its finish callback.
func (t *Tracker) Single(label string) func(err error) {
	sp := t.Hooks(label).SweepStarted(1)
	sp.JobStarted(0, 0)
	return func(err error) { sp.JobFinished(0, 0, err) }
}

// medianRunLocked returns the median completed run duration (0 with no
// completions). Caller holds t.mu.
func (t *Tracker) medianRunLocked() time.Duration {
	n := len(t.durs)
	if n == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), t.durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[n/2]
}

// stallThresholdLocked computes the current watchdog threshold:
// max(StallFloor, StallFactor x median completed run). Caller holds t.mu.
func (t *Tracker) stallThresholdLocked() (time.Duration, time.Duration) {
	med := t.medianRunLocked()
	thr := t.cfg.StallFloor
	if med > 0 {
		if scaled := time.Duration(t.cfg.StallFactor * float64(med)); scaled > thr {
			thr = scaled
		}
	}
	return thr, med
}

// CheckStalls runs one watchdog pass: every running job past the
// threshold is marked stalled (once — with a stall event and counter
// increment), and the stalled gauge is set to the count of currently
// running stalled jobs. Returns that count. Watch calls this on a
// ticker; tests call it directly with an injected clock.
func (t *Tracker) CheckStalls() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.cfg.Clock()
	thr, med := t.stallThresholdLocked()
	stalled := 0
	for _, label := range t.order {
		s := t.scopes[label]
		for i := range s.jobs {
			j := &s.jobs[i]
			if j.state != jobRunning {
				continue
			}
			run := now.Sub(j.start)
			if run <= thr {
				continue
			}
			stalled++
			if !j.stalled {
				j.stalled = true
				t.reg.Counter(cStalls).Inc()
				t.writeEvent(&Event{
					T: now.UnixNano(), Ev: "stall", Sweep: label, Job: i, Worker: j.worker,
					RunNS: int64(run), ThresholdNS: int64(thr), MedianNS: int64(med),
				})
			}
		}
	}
	t.reg.Gauge(gStalled).Set(float64(stalled))
	return stalled
}

// Watch runs CheckStalls every interval on a background goroutine until
// the returned stop function is called.
func (t *Tracker) Watch(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				t.CheckStalls()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// Snapshot freezes the tracker's registry, refreshing the derived gauges
// (inflight, queued, worker high-water) first. Safe to call concurrently
// with job callbacks.
func (t *Tracker) Snapshot() *stats.Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reg.Gauge(gInflight).Set(float64(t.inflight))
	t.reg.Gauge(gQueued).Set(float64(t.queuedN))
	t.reg.Gauge(gWorkersMax).Set(float64(t.maxWorker))
	return t.reg.Snapshot()
}

// SweepProgress is one sweep's live state in the /progress report.
type SweepProgress struct {
	Sweep       string `json:"sweep"`
	Total       int    `json:"total"`
	Queued      int    `json:"queued"`
	Running     int    `json:"running"`
	Done        int    `json:"done"`
	Failed      int    `json:"failed"`
	MedianRunNS int64  `json:"median_run_ns"`
	// ETANS estimates time to finish the sweep's remaining jobs:
	// remaining x (tracker-wide median completed run) / observed worker
	// high-water. 0 until a median exists.
	ETANS int64 `json:"eta_ns"`
}

// Report is the /progress JSON document.
type Report struct {
	UptimeNS int64           `json:"uptime_ns"`
	Workers  int             `json:"workers"`
	Inflight int             `json:"inflight"`
	Stalled  int             `json:"stalled"`
	Sweeps   []SweepProgress `json:"sweeps"`
}

// Progress builds the live per-sweep report.
func (t *Tracker) Progress() Report {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.cfg.Clock()
	med := t.medianRunLocked()
	r := Report{
		UptimeNS: int64(now.Sub(t.start)),
		Workers:  t.maxWorker,
		Inflight: t.inflight,
	}
	for _, label := range t.order {
		s := t.scopes[label]
		p := SweepProgress{Sweep: label, Total: len(s.jobs), Done: s.done, Failed: s.failed, MedianRunNS: int64(med)}
		for i := range s.jobs {
			switch s.jobs[i].state {
			case jobQueued:
				p.Queued++
			case jobRunning:
				p.Running++
				if s.jobs[i].stalled {
					r.Stalled++
				}
			}
		}
		if remaining := p.Queued + p.Running; remaining > 0 && med > 0 {
			workers := t.maxWorker
			if workers < 1 {
				workers = 1
			}
			p.ETANS = int64(med) * int64(remaining) / int64(workers)
		}
		r.Sweeps = append(r.Sweeps, p)
	}
	return r
}

// Close writes the summary event and returns the first event-log write
// error, if any. The tracker remains usable (Close is about the log).
func (t *Tracker) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := &SummaryEvent{Counters: t.reg.Snapshot().Counters}
	for _, label := range t.order {
		s := t.scopes[label]
		sum.Sweeps = append(sum.Sweeps, SweepSummary{
			Sweep: label, Jobs: len(s.jobs), Done: s.done, Failed: s.failed,
		})
	}
	t.writeEvent(&Event{T: t.cfg.Clock().UnixNano(), Ev: "summary", Summary: sum})
	return t.logErr
}

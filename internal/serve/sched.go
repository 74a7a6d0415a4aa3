package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"sam/internal/runner"
	"sam/internal/sim"
)

// Job states a client can observe.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Admission rejections the HTTP layer maps onto status codes.
var (
	// ErrDraining: the daemon received SIGTERM and stopped admitting (503).
	ErrDraining = errors.New("daemon is draining; not accepting jobs")
	// ErrQueueFull: the global queue cap is reached (503 + Retry-After).
	ErrQueueFull = errors.New("job queue is full")
	// ErrQuota: the tenant is at its active-job quota (429).
	ErrQuota = errors.New("tenant active-job quota exceeded")
)

// classOf maps a wire priority to its dispatch class index (0 strongest).
func classOf(priority string) int {
	switch priority {
	case PriorityHigh:
		return 0
	case PriorityLow:
		return 2
	default:
		return 1
	}
}

const numClasses = 3

// jobResult is one completed job's payload, as served by GET
// /jobs/{id}/result. Followers share their leader's, so it must be
// immutable once published — exec builds it and nothing mutates it after.
type jobResult struct {
	// ContentType: "application/json" for bench/sweep/reliability payloads,
	// "text/plain; charset=utf-8" for figure tables.
	ContentType string
	Body        []byte
	// Run is a bench job's result, shared with the run memo and every job
	// it served. The payload is its stable encoding, made on each fetch,
	// so jobs hold no copy of their own.
	Run *sim.QueryResult
}

// payload is the bytes GET /jobs/{id}/result serves.
func (r jobResult) payload() ([]byte, error) {
	if r.Run != nil {
		return sim.EncodeResult(r.Run)
	}
	return r.Body, nil
}

// job is one accepted submission's full lifecycle record. All fields are
// guarded by the owning sched's mutex; done is closed exactly once when
// the job reaches a terminal state, after every other field is final.
type job struct {
	id     string
	key    string
	tenant string
	class  int
	kind   string
	label  string
	req    *SubmitRequest

	state    string
	enqueued time.Time
	started  time.Time
	finished time.Time
	memo     string // cache attribution: miss/hit/disk-hit/dedup
	worker   int
	result   jobResult
	errMsg   string

	// leaderID is set on followers: jobs deduplicated onto an identical
	// in-flight submission. Followers never occupy a queue slot or worker;
	// they complete when their leader does.
	leaderID  string
	followers []*job

	// cancel interrupts the job's run context (set while running).
	cancel context.CancelFunc
	// sp is the job's telemetry span (a one-job sweep in the obs tracker);
	// nil when the daemon runs without a tracker.
	sp runner.SweepSpan

	done chan struct{}
}

// terminal reports whether the job has reached a final state.
func (j *job) terminal() bool {
	switch j.state {
	case StateDone, StateFailed, StateCanceled:
		return true
	}
	return false
}

// schedConfig sizes the scheduler.
type schedConfig struct {
	// Workers is the dispatch concurrency (jobs running at once).
	Workers int
	// QueueCap bounds queued leaders across all classes (followers and
	// instantly-served cache hits don't consume slots).
	QueueCap int
	// TenantQuota bounds one tenant's non-terminal jobs, followers
	// included. 0 = unlimited.
	TenantQuota int
	// MaxQueueWait is the anti-starvation bound: a job queued at least
	// this long is dispatched before any fresher job of any class.
	MaxQueueWait time.Duration
	// Clock overrides time.Now — injectable for the starvation tests.
	Clock func() time.Time
	// Observer, when non-nil, receives a one-job span per accepted job
	// (the obs tracker's Hooks under the daemon's job label).
	Observer runner.SweepObserver
	// Exec runs one leader job. The context is canceled on forced drain.
	Exec func(ctx context.Context, j *job) (jobResult, string, error)
}

// sched is the session-scoped job scheduler: per-tenant admission quotas,
// three strict priority classes with a clock-bounded aging promotion, and
// content-addressed dedup (identical submissions attach to the in-flight
// leader instead of queueing twice).
type sched struct {
	cfg schedConfig

	mu   sync.Mutex
	cond *sync.Cond

	seq          int
	jobs         map[string]*job
	order        []string // submission order, for listing
	queues       [numClasses][]*job
	queuedN      int
	activeByKey  map[string]*job // in-flight leader per content key
	tenantActive map[string]int

	baseCtx   context.Context
	baseStop  context.CancelFunc
	draining  bool
	stopped   bool
	wg        sync.WaitGroup
	completed []time.Duration // run durations, for ETA estimates
}

// newSched builds and starts the worker pool.
func newSched(cfg schedConfig) *sched {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.QueueCap < 1 {
		cfg.QueueCap = 256
	}
	if cfg.MaxQueueWait <= 0 {
		cfg.MaxQueueWait = 30 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	s := &sched{
		cfg:          cfg,
		jobs:         make(map[string]*job),
		activeByKey:  make(map[string]*job),
		tenantActive: make(map[string]int),
	}
	s.cond = sync.NewCond(&s.mu)
	s.baseCtx, s.baseStop = context.WithCancel(context.Background())
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	return s
}

// newJob allocates a job record under s.mu.
func (s *sched) newJobLocked(req *SubmitRequest, key, label string) *job {
	s.seq++
	j := &job{
		id:       fmt.Sprintf("j-%06d", s.seq),
		key:      key,
		tenant:   req.Tenant,
		class:    classOf(req.Priority),
		kind:     req.Kind,
		label:    label,
		req:      req,
		state:    StateQueued,
		enqueued: s.cfg.Clock(),
		worker:   -1,
		done:     make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if s.cfg.Observer != nil {
		j.sp = s.cfg.Observer.SweepStarted(1)
	}
	return j
}

// Submit admits one parsed submission: quota check, then content-address
// dedup against in-flight leaders, then queue-cap check and enqueue.
// cached, when non-nil, is probed first, outside the lock since it may
// read disk — a job whose result it already holds is served instantly
// without occupying a queue slot.
func (s *sched) Submit(req *SubmitRequest, cached func(*SubmitRequest) (jobResult, string, bool)) (*job, error) {
	key := req.Key()
	label := jobLabel(req)
	var res jobResult
	var outcome string
	var hit bool
	if cached != nil {
		res, outcome, hit = cached(req)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	if s.cfg.TenantQuota > 0 && s.tenantActive[req.Tenant] >= s.cfg.TenantQuota {
		return nil, ErrQuota
	}

	// Instant path: the job's result is already cached. The job is born
	// terminal; its span records a zero-length run attributed to the cache
	// tier that served it.
	if leader := s.activeByKey[key]; leader == nil && hit {
		j := s.newJobLocked(req, key, label)
		j.state = StateDone
		j.memo = outcome
		now := s.cfg.Clock()
		j.started, j.finished = now, now
		j.result = res
		if j.sp != nil {
			j.sp.JobStarted(0, 0)
			j.sp.JobAnnotate(0, "memo", outcome)
			j.sp.JobFinished(0, 0, nil)
		}
		close(j.done)
		return j, nil
	}

	// Dedup path: identical work is already queued or running — attach as
	// a follower. Followers count against their tenant's quota (they are
	// live submissions the client polls) but never occupy a queue slot.
	if leader := s.activeByKey[key]; leader != nil {
		j := s.newJobLocked(req, key, label)
		j.leaderID = leader.id
		j.state = leader.state // queued or running, mirroring the leader
		if leader.state == StateRunning {
			j.started = j.enqueued // joined mid-run: no queue wait of its own
		}
		leader.followers = append(leader.followers, j)
		s.tenantActive[req.Tenant]++
		return j, nil
	}

	if s.queuedN >= s.cfg.QueueCap {
		return nil, ErrQueueFull
	}
	j := s.newJobLocked(req, key, label)
	s.activeByKey[key] = j
	s.tenantActive[req.Tenant]++
	s.queues[j.class] = append(s.queues[j.class], j)
	s.queuedN++
	s.cond.Signal()
	return j, nil
}

// jobLabel renders a short human description for listings and logs.
func jobLabel(req *SubmitRequest) string {
	switch req.Kind {
	case KindBench:
		return fmt.Sprintf("bench %s/%s", req.Bench.Design, req.Bench.Query)
	case KindFigure:
		return "figure " + req.Figure.ID
	case KindSweep:
		return fmt.Sprintf("sweep %s %dx%d", req.Sweep.Query,
			len(req.Sweep.Selectivities), len(req.Sweep.Projectivities))
	case KindReliability:
		return "reliability campaign"
	}
	return req.Kind
}

// Get returns a job by ID.
func (s *sched) Get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// worker is one dispatch loop: pick, execute, complete, repeat.
func (s *sched) worker(i int) {
	defer s.wg.Done()
	for {
		j, ctx := s.next(i)
		if j == nil {
			return
		}
		res, memoOut, err := s.cfg.Exec(ctx, j)
		if j.cancel != nil {
			j.cancel()
		}
		s.complete(j, res, memoOut, err)
	}
}

// next blocks until a job is dispatchable (or the pool stops), removes it
// from its queue, and marks it running. Dispatch order is strict priority
// (high before normal before low, FIFO within a class) — except that any
// job queued at least MaxQueueWait is promoted ahead of every class,
// oldest first, so a flood of high-priority work can delay low-priority
// work by at most the bound.
func (s *sched) next(worker int) (*job, context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.stopped {
			return nil, nil
		}
		if j := s.pickLocked(); j != nil {
			now := s.cfg.Clock()
			j.state = StateRunning
			j.started = now
			j.worker = worker
			for _, f := range j.followers {
				f.state = StateRunning
				f.started = now
			}
			ctx, cancel := context.WithCancel(s.baseCtx)
			j.cancel = cancel
			if j.sp != nil {
				j.sp.JobStarted(0, worker)
			}
			return j, ctx
		}
		s.cond.Wait()
	}
}

// pickLocked chooses the next queued job. Caller holds s.mu.
func (s *sched) pickLocked() *job {
	var pick *job
	pickClass := -1
	// Aged jobs first: the oldest job past the wait bound wins regardless
	// of class.
	now := s.cfg.Clock()
	for c := 0; c < numClasses; c++ {
		if len(s.queues[c]) == 0 {
			continue
		}
		head := s.queues[c][0] // FIFO per class ⇒ head is the class's oldest
		if now.Sub(head.enqueued) >= s.cfg.MaxQueueWait {
			if pick == nil || head.enqueued.Before(pick.enqueued) {
				pick, pickClass = head, c
			}
		}
	}
	// Otherwise strict priority.
	if pick == nil {
		for c := 0; c < numClasses; c++ {
			if len(s.queues[c]) > 0 {
				pick, pickClass = s.queues[c][0], c
				break
			}
		}
	}
	if pick == nil {
		return nil
	}
	s.queues[pickClass] = s.queues[pickClass][1:]
	s.queuedN--
	return pick
}

// complete publishes a leader's terminal state and fans it out to every
// follower (their result is the leader's, attributed "dedup").
func (s *sched) complete(j *job, res jobResult, memoOut string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.cfg.Clock()
	j.finished = now
	j.memo = memoOut
	if err != nil {
		if errors.Is(err, context.Canceled) {
			j.state = StateCanceled
		} else {
			j.state = StateFailed
		}
		j.errMsg = err.Error()
	} else {
		j.state = StateDone
		j.result = res
		s.completed = append(s.completed, now.Sub(j.started))
	}
	if j.sp != nil {
		if memoOut != "" && err == nil {
			j.sp.JobAnnotate(0, "memo", memoOut)
		}
		j.sp.JobFinished(0, j.worker, err)
	}
	s.retireLocked(j)
	close(j.done)

	for _, f := range j.followers {
		f.finished = now
		f.state = j.state
		f.errMsg = j.errMsg
		if err == nil {
			f.result = res
			f.memo = "dedup"
		}
		if f.sp != nil {
			// A follower's span starts when it would otherwise have run —
			// now — so its queue histogram records the real wait for the
			// shared result and its run duration is zero.
			f.sp.JobStarted(0, j.worker)
			if err == nil {
				f.sp.JobAnnotate(0, "memo", "dedup")
			}
			f.sp.JobFinished(0, j.worker, err)
		}
		s.retireLocked(f)
		close(f.done)
	}
	j.followers = nil
	s.cond.Broadcast() // wake the drain waiter
}

// retireLocked releases a job's admission accounting. Caller holds s.mu.
func (s *sched) retireLocked(j *job) {
	if n := s.tenantActive[j.tenant]; n > 1 {
		s.tenantActive[j.tenant] = n - 1
	} else {
		delete(s.tenantActive, j.tenant)
	}
	if s.activeByKey[j.key] == j {
		delete(s.activeByKey, j.key)
	}
}

// cancelQueuedLocked cancels every still-queued leader (and its
// followers). Each gets a synthetic start+finish span so the event log
// reconciles (obscheck requires every started job to finish) and the
// summary reflects the cancellation as a failed job. Caller holds s.mu.
func (s *sched) cancelQueuedLocked() {
	now := s.cfg.Clock()
	cancelOne := func(j *job) {
		j.state = StateCanceled
		j.started = now
		j.finished = now
		j.errMsg = context.Canceled.Error()
		if j.sp != nil {
			j.sp.JobStarted(0, 0)
			j.sp.JobFinished(0, 0, context.Canceled)
		}
		s.retireLocked(j)
		close(j.done)
	}
	for c := 0; c < numClasses; c++ {
		for _, j := range s.queues[c] {
			for _, f := range j.followers {
				cancelOne(f)
			}
			j.followers = nil
			cancelOne(j)
		}
		s.queues[c] = nil
	}
	s.queuedN = 0
}

// activeLocked counts non-terminal jobs. Caller holds s.mu.
func (s *sched) activeLocked() int {
	n := 0
	for _, id := range s.order {
		if !s.jobs[id].terminal() {
			n++
		}
	}
	return n
}

// Drain stops admissions, then waits for every accepted job to reach a
// terminal state. While ctx lives, running and queued jobs finish
// normally (graceful). Once ctx is done, queued jobs are canceled
// outright and running jobs' contexts are canceled (sweeps stop at the
// next cell boundary); Drain still waits for the workers to surface
// those cancellations — every accepted job is terminal when it returns.
func (s *sched) Drain(ctx context.Context) {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	wake := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer wake()

	s.mu.Lock()
	for s.activeLocked() > 0 && ctx.Err() == nil {
		s.cond.Wait()
	}
	if ctx.Err() != nil {
		s.cancelQueuedLocked()
		s.baseStop() // cancels every running job's context
		for s.activeLocked() > 0 {
			s.cond.Wait()
		}
	}
	s.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.baseStop()
}

// medianRunLocked estimates one job's run duration from completions so
// far. Caller holds s.mu.
func (s *sched) medianRunLocked() time.Duration {
	n := len(s.completed)
	if n == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), s.completed...)
	sort.Slice(sorted, func(i, k int) bool { return sorted[i] < sorted[k] })
	return sorted[n/2]
}

// JobStatus is the GET /jobs/{id} document.
type JobStatus struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	Label    string `json:"label"`
	Tenant   string `json:"tenant"`
	Priority string `json:"priority"`
	State    string `json:"state"`
	// Memo attributes where the result came from. A bench job reports its
	// run's run-memo outcome: "miss" (simulated), "hit"/"disk-hit" (served
	// from the memory/disk tier). A figure, sweep or reliability job
	// reports "hit" when none of its cells simulated and "miss" otherwise.
	// "dedup" means the job shared an identical in-flight submission.
	Memo string `json:"memo,omitempty"`
	// DedupOf names the leader job this submission attached to.
	DedupOf string `json:"dedup_of,omitempty"`
	QueueNS int64  `json:"queue_ns,omitempty"`
	RunNS   int64  `json:"run_ns,omitempty"`
	// ETANS estimates time to completion for queued/running jobs, from the
	// median completed run so far (0 until one exists).
	ETANS int64  `json:"eta_ns,omitempty"`
	Err   string `json:"err,omitempty"`
}

// Status snapshots one job for polling clients.
func (s *sched) Status(j *job) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.cfg.Clock()
	st := JobStatus{
		ID:       j.id,
		Kind:     j.kind,
		Label:    j.label,
		Tenant:   j.tenant,
		Priority: [numClasses]string{PriorityHigh, PriorityNormal, PriorityLow}[j.class],
		State:    j.state,
		Memo:     j.memo,
		DedupOf:  j.leaderID,
		Err:      j.errMsg,
	}
	med := s.medianRunLocked()
	switch j.state {
	case StateQueued:
		st.QueueNS = int64(now.Sub(j.enqueued))
		if med > 0 {
			// Rough position-aware bound: jobs ahead of it / workers, +1 for
			// its own run.
			ahead := 0
			for c := 0; c <= j.class; c++ {
				for _, q := range s.queues[c] {
					if q == j {
						break
					}
					ahead++
				}
			}
			st.ETANS = int64(med) * int64(ahead/s.cfg.Workers+1)
		}
	case StateRunning:
		st.QueueNS = int64(j.started.Sub(j.enqueued))
		st.RunNS = int64(now.Sub(j.started))
		if med > 0 {
			if rem := int64(med) - st.RunNS; rem > 0 {
				st.ETANS = rem
			}
		}
	default:
		st.QueueNS = int64(j.started.Sub(j.enqueued))
		st.RunNS = int64(j.finished.Sub(j.started))
	}
	return st
}

// List snapshots every job in submission order, newest last.
func (s *sched) List() []JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		out = append(out, s.Status(j))
	}
	return out
}

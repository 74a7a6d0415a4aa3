package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"sam/internal/core"
	"sam/internal/design"
	"sam/internal/imdb"
	"sam/internal/serve"
	"sam/internal/sim"
)

const (
	// samdRate is the fixed offered load in jobs per second. Misses arrive
	// every 1/(0.15 × 50) ≈ 133 ms and take about 47 ms, so one worker is
	// about a third busy and a miss never queues behind another.
	samdRate = 50.0
	// samdWorkers is the daemon's dispatch width. One worker leaves the
	// second P to the HTTP path; with both simulating, a result-cache hit
	// waits for a preemption.
	samdWorkers = 1
	// Every job is one query on one design, fault-free; only the table seed
	// varies. A fixed cost per miss keeps job_ms_p99 on a dense part of the
	// latency distribution.
	samdDesign = design.SAMEn
	samdQuery  = "Qs4"
	// samdRepeatFrac of jobs repeat one of the last samdRecentKeys fresh
	// keys (result-cache hits and in-flight dedup); the rest are fresh
	// table seeds.
	samdRepeatFrac = 0.85
	samdRecentKeys = 64
	// samdSample fresh jobs are re-derived through core after the window.
	samdSample = 32
	samdSetups = 101
	// samdMaxInFlight bounds the generator's outstanding jobs.
	samdMaxInFlight = 512
	samdPollMin     = time.Millisecond
	samdPollMax     = 2 * time.Millisecond
)

// samdJob is one scheduled submission.
type samdJob struct {
	key   int // index of the fresh job whose submission this is
	kind  design.Kind
	query core.BenchQuery
	w     core.Workload
	body  []byte
}

// samdSchedule draws n jobs from the seed.
func samdSchedule(seed int64, n int) ([]samdJob, error) {
	rng := rand.New(rand.NewSource(seed))
	query, _ := core.BenchQueryByName(samdQuery)
	jobs := make([]samdJob, n)
	var fresh []int
	for i := range jobs {
		// Fresh jobs are spread evenly through the schedule, so misses
		// arrive at a steady rate whatever the seed.
		freshDue := math.Floor(float64(i+1)*(1-samdRepeatFrac)) > math.Floor(float64(i)*(1-samdRepeatFrac))
		if len(fresh) > 0 && !freshDue {
			recent := fresh[max(0, len(fresh)-samdRecentKeys):]
			jobs[i] = jobs[recent[rng.Intn(len(recent))]]
			continue
		}
		j := samdJob{key: i, kind: samdDesign, query: query, w: core.SmallWorkload()}
		j.w.Seed += uint64(seed)<<32 + uint64(i) + 1
		tableSeed := j.w.Seed
		req := serve.SubmitRequest{
			Kind:     serve.KindBench,
			Tenant:   fmt.Sprintf("tenant%d", i%2),
			Workload: &serve.WorkloadReq{Small: true, Seed: &tableSeed},
			Bench:    &serve.BenchReq{Design: j.kind.String(), Query: j.query.Name},
		}
		var err error
		if j.body, err = json.Marshal(req); err != nil {
			return nil, err
		}
		jobs[i] = j
		fresh = append(fresh, i)
	}
	return jobs, nil
}

// samdServer is an in-process daemon on a loopback listener.
type samdServer struct {
	d    *serve.Daemon
	srv  *http.Server
	done chan error
	base string
}

func startDaemon(workers int, client *http.Client) (*samdServer, error) {
	d := serve.NewDaemon(serve.Config{Workers: workers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &samdServer{d: d, srv: &http.Server{Handler: d.Handler()}, done: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { s.done <- s.srv.Serve(ln) }()
	resp, err := client.Get(s.base + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		return nil, errors.Join(err, s.stop())
	}
	return s, nil
}

// stop drains the daemon and closes the listener, waiting for both.
func (s *samdServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	derr := s.d.Drain(ctx)
	serr := s.srv.Shutdown(ctx)
	if err := <-s.done; !errors.Is(err, http.ErrServerClosed) {
		serr = errors.Join(serr, err)
	}
	return errors.Join(derr, serr)
}

// samdOut is one job's observed outcome.
type samdOut struct {
	due, sent, done time.Time
	submit          time.Duration
	status          serve.JobStatus
	body            []byte
	refused         bool
	err             error
}

// latencyMS is the job's latency, counted from when it was due.
func (o *samdOut) latencyMS() float64 { return ms(o.done.Sub(o.due)) }

// do submits one job, polls it to completion and fetches its result.
func (s *samdServer) do(client *http.Client, j *samdJob, o *samdOut) {
	o.sent = time.Now()
	resp, err := client.Post(s.base+"/jobs", "application/json", bytes.NewReader(j.body))
	if err != nil {
		o.err = err
		return
	}
	var sr serve.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	o.submit = time.Since(o.sent)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		o.refused = true
		return
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
		o.err = fmt.Errorf("submit: %s", resp.Status)
		return
	case err != nil:
		o.err = fmt.Errorf("submit: %v", err)
		return
	}
	st := sr.Job
	// Poll with doubling waits, capped at 2 ms: each poll costs the daemon
	// CPU, and a longer wait would add up to its length to a ~50 ms miss.
	for wait := samdPollMin; st.State != serve.StateDone; wait = min(2*wait, samdPollMax) {
		if st.State == serve.StateFailed || st.State == serve.StateCanceled {
			o.err = fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Err)
			return
		}
		time.Sleep(wait)
		if err := getJSON(client, s.base+"/jobs/"+st.ID, &st); err != nil {
			o.err = err
			return
		}
	}
	o.status = st
	resp, err = client.Get(s.base + "/jobs/" + st.ID + "/result")
	if err != nil {
		o.err = err
		return
	}
	o.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Now()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("result: %s", resp.Status)
	}
	o.err = err
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// openLoop sends jobs[i] at start + i/samdRate whatever the state of
// earlier jobs, and waits for every job to finish. onHalf, when set, runs
// when the generator reaches the schedule's midpoint.
func (s *samdServer) openLoop(client *http.Client, jobs []samdJob, outs []samdOut, onHalf func()) time.Time {
	start := time.Now().Add(10 * time.Millisecond)
	sem := make(chan struct{}, samdMaxInFlight)
	var wg sync.WaitGroup
	for i := range jobs {
		if onHalf != nil && i == len(jobs)/2 {
			onHalf()
		}
		due := start.Add(time.Duration(float64(i) / samdRate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		outs[i].due = due
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			s.do(client, &jobs[i], &outs[i])
		}(i)
	}
	wg.Wait()
	return start
}

// lagMS is how late the generator sent each job, in ms.
func lagMS(outs []samdOut) []float64 {
	lag := make([]float64, 0, len(outs))
	for i := range outs {
		if !outs[i].sent.IsZero() {
			lag = append(lag, ms(outs[i].sent.Sub(outs[i].due)))
		}
	}
	return lag
}

// scrapeCounters reads the daemon's /metrics counters (name → value).
func scrapeCounters(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

func runSamd(b *bench) error {
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: b.workers, MaxIdleConnsPerHost: b.workers}}
	defer client.CloseIdleConnections()

	// Set-up: start the daemon until it answers /healthz. Repeated so its
	// median is steady; the last daemon serves the run.
	var setup []float64
	var srv *samdServer
	for i := 0; i < samdSetups; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return err
			}
		}
		t := time.Now()
		var err error
		if srv, err = startDaemon(samdWorkers, client); err != nil {
			return err
		}
		setup = append(setup, time.Since(t).Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = srv.stop()
		}
	}()

	jobs, err := samdSchedule(b.seed, int(b.window.Seconds()*samdRate))
	if err != nil {
		return err
	}
	outs := make([]samdOut, len(jobs))
	var prof *cpuProfile
	var rtBase rtStats
	var onHalf func()
	if b.traced {
		onHalf = func() {
			if prof, err = startProfile(); err == nil {
				rtBase = readRT()
			}
		}
	}
	cpu0 := cpuNow()
	start := srv.openLoop(client, jobs, outs, onHalf)
	cpu := (cpuNow() - cpu0).Seconds()
	if err != nil {
		return err
	}
	var counters map[string]float64
	if b.traced {
		if counters, err = scrapeCounters(client, srv.base); err != nil {
			return err
		}
	}
	stopped = true
	if err := srv.stop(); err != nil {
		return err
	}

	// Outcomes: refused and failed jobs fail; repeats of a key must return
	// the same bytes as the key's first result.
	b.attempted += len(jobs)
	bodies := map[int][]byte{}
	var jobMS []float64
	var last time.Time
	for i := range outs {
		o := &outs[i]
		switch {
		case o.refused:
			b.fail(1, "samd job %d refused", i)
			continue
		case o.err != nil:
			b.fail(1, "samd job %d: %v", i, o.err)
			continue
		}
		jobMS = append(jobMS, o.latencyMS())
		if o.done.After(last) {
			last = o.done
		}
		if first, ok := bodies[jobs[i].key]; !ok {
			bodies[jobs[i].key] = o.body
		} else if !bytes.Equal(first, o.body) {
			b.fail(1, "samd job %d: result differs from an earlier result for the same key", i)
		}
	}
	if len(jobMS) == 0 {
		return fmt.Errorf("no job completed")
	}
	window := last.Sub(start).Seconds()

	// Every fresh key was simulated once; count its simulated requests.
	var reqs uint64
	for key, body := range bodies {
		if jobs[key].key != key {
			continue
		}
		r, err := sim.DecodeResult(body)
		if err != nil {
			b.fail(1, "samd key %d: %v", key, err)
			continue
		}
		reqs += r.Stats.MemRequests
	}
	ledger, err := b.samdRederive(jobs, bodies)
	if err != nil {
		return err
	}
	if !b.traced {
		b.setE2E(setup, cpu, float64(reqs)/cpu/1e6, jobMS, float64(len(jobMS))/window)
		return nil
	}

	shares, err := prof.stop()
	if err != nil {
		return err
	}
	b.startLedger()
	b.setRT(rtBase, len(jobs)-len(jobs)/2)
	b.setShares(shares)
	ledger.report(b)
	b.samdServeLedger(outs, counters)
	// Tracing overhead: result-cache hits, which touch no simulator, in
	// the profiled second half against the unprofiled first half.
	half := len(outs) / 2
	var before, after []float64
	for i := range outs {
		if outs[i].err != nil || outs[i].refused || outs[i].status.Memo != "hit" {
			continue
		}
		if i < half {
			before = append(before, outs[i].latencyMS())
		} else {
			after = append(after, outs[i].latencyMS())
		}
	}
	b.setL("trace.overhead_frac", median(after)/median(before)-1)
	b.setL("gen.lag_ms_p99", tailPct(lagMS(outs), 0.99))
	if err := b.commonLedger(); err != nil {
		return err
	}
	var buildUS []float64
	w := core.SmallWorkload()
	for i := 0; i < 15; i++ {
		t := time.Now()
		s := sim.NewSystem(design.New(design.SAMEn, design.Options{}))
		s.AddTable(imdb.NewTable(imdb.Ta(w.TaRecords), w.Seed), false)
		s.AddTable(imdb.NewTable(imdb.Tb(w.TbRecords), w.Seed+1), false)
		buildUS = append(buildUS, float64(time.Since(t))/1e3)
	}
	b.setL("sim.build_us", median(buildUS))
	return nil
}

// samdLedger is what re-deriving the sample measured.
type samdLedger struct {
	runMS                []float64
	rNS, rReq, wNS, wReq float64
	counts               simCounts
}

func (l *samdLedger) report(b *bench) {
	b.setL("sim.run_ms_p50", median(l.runMS))
	b.setL("sim.run_ms_p99", tailPct(l.runMS, 0.99))
	if l.rReq > 0 {
		b.setL("sim.host_ns_per_req.read", l.rNS/l.rReq)
	}
	if l.wReq > 0 {
		b.setL("sim.host_ns_per_req.write", l.wNS/l.wReq)
	}
	b.setCounts(&l.counts)
}

// samdRederive re-runs the first samdSample completed fresh jobs through
// core.RunOneFaulted + sim.EncodeResult, outside the timed window; the
// bytes must equal what the daemon returned.
func (b *bench) samdRederive(jobs []samdJob, bodies map[int][]byte) (*samdLedger, error) {
	l := &samdLedger{}
	n := 0
	for i := range jobs {
		j := &jobs[i]
		body, ok := bodies[i]
		if j.key != i || !ok {
			continue
		}
		if n++; n > samdSample {
			break
		}
		t := time.Now()
		r, err := core.RunOneFaulted(j.kind, design.Options{}, j.w, j.query, nil)
		dt := time.Since(t)
		if err != nil {
			b.fail(1, "samd re-derive job %d: %v", i, err)
			continue
		}
		want, err := sim.EncodeResult(r)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(want, body) {
			b.fail(1, "samd job %d (%v %s): daemon result differs from core.RunOneFaulted", i, j.kind, j.query.Name)
		}
		l.runMS = append(l.runMS, ms(dt))
		if j.query.IsWrite {
			l.wNS, l.wReq = l.wNS+float64(dt), l.wReq+float64(r.Stats.MemRequests)
		} else {
			l.rNS, l.rReq = l.rNS+float64(dt), l.rReq+float64(r.Stats.MemRequests)
		}
		if err := l.counts.addRun(r.Stats); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// samdServeLedger reports the daemon's submit, queue and run times, its
// cache outcomes, and the run-level memo counters from /metrics.
func (b *bench) samdServeLedger(outs []samdOut, counters map[string]float64) {
	var submit, queue, run []float64
	var hits, dedups, refused float64
	for i := range outs {
		o := &outs[i]
		if o.refused {
			refused++
			continue
		}
		if o.err != nil {
			continue
		}
		submit = append(submit, ms(o.submit))
		switch o.status.Memo {
		case "hit", "disk-hit":
			hits++
		case "dedup":
			dedups++
		case "miss":
			queue = append(queue, float64(o.status.QueueNS)/1e6)
			run = append(run, float64(o.status.RunNS)/1e6)
		}
	}
	n := float64(len(outs))
	b.setL("serve.submit_ms_p50", median(submit))
	b.setL("serve.submit_ms_p99", tailPct(submit, 0.99))
	b.setL("serve.queue_ms_p50", median(queue))
	b.setL("serve.queue_ms_p99", tailPct(queue, 0.99))
	b.setL("serve.run_ms_p50", median(run))
	b.setL("serve.run_ms_p99", tailPct(run, 0.99))
	b.setL("serve.result_hit_ratio", hits/n)
	b.setL("serve.dedup_ratio", dedups/n)
	b.setL("serve.refused", refused)

	c := func(name string) float64 { return counters["sam_memo_"+name+"_total"] }
	lookups := c("hits") + c("disk_hits") + c("misses") + c("inflight_dedup")
	b.setL("memo.lookups", lookups)
	b.setL("memo.inflight_dedup", c("inflight_dedup"))
	if lookups > 0 {
		b.setL("memo.hit_ratio", (c("hits")+c("disk_hits"))/lookups)
	}
}

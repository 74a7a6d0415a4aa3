package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sam/internal/core"
	"sam/internal/obs"
	"sam/internal/sim"
)

// tinyWorkload mirrors internal/core's test workload: big enough to
// exercise every design, small enough for CI.
func tinyWorkload() core.Workload {
	return core.Workload{TaRecords: 512, TbRecords: 2048, Seed: 0xBEEF}
}

// tinyWorkloadJSON is the submission fragment selecting tinyWorkload.
const tinyWorkloadJSON = `{"ta":512,"tb":2048,"seed":48879}`

func startDaemon(t *testing.T, cfg Config) (*Daemon, *httptest.Server) {
	t.Helper()
	d := NewDaemon(cfg)
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(ts.Close)
	return d, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func submitOK(t *testing.T, ts *httptest.Server, body string) JobStatus {
	t.Helper()
	code, b := postJob(t, ts, body)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit %s: status %d: %s", body, code, b)
	}
	var sr SubmitResponse
	if err := json.Unmarshal(b, &sr); err != nil {
		t.Fatalf("submit response: %v: %s", err, b)
	}
	return sr.Job
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func pollTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobStatus{}
}

func getResult(t *testing.T, ts *httptest.Server, id string) (string, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: status %d: %s", id, resp.StatusCode, b)
	}
	return resp.Header.Get("Content-Type"), b
}

// TestSubmitValidationHTTP pins the 4xx surface: every malformed or
// hostile submission is a clean 400, never an accepted job.
func TestSubmitValidationHTTP(t *testing.T) {
	d, ts := startDaemon(t, Config{Workers: 1})
	defer d.Drain(context.Background())
	cases := []struct {
		name, body string
	}{
		{"empty", ``},
		{"not json", `hello`},
		{"missing tenant", `{"kind":"bench","bench":{"design":"baseline","query":"Q1"}}`},
		{"bad tenant chars", `{"kind":"bench","tenant":"a b","bench":{"design":"baseline","query":"Q1"}}`},
		{"unknown field", `{"kind":"bench","tenant":"t","bench":{"design":"baseline","query":"Q1"},"bogus":1}`},
		{"trailing garbage", `{"kind":"figure","tenant":"t","figure":{"id":"fig12"}} extra`},
		{"unknown kind", `{"kind":"magic","tenant":"t"}`},
		{"kind/payload mismatch", `{"kind":"bench","tenant":"t","figure":{"id":"fig12"}}`},
		{"two payloads", `{"kind":"bench","tenant":"t","bench":{"design":"baseline","query":"Q1"},"figure":{"id":"fig12"}}`},
		{"unknown design", `{"kind":"bench","tenant":"t","bench":{"design":"TURBO-RAM","query":"Q1"}}`},
		{"unknown query", `{"kind":"bench","tenant":"t","bench":{"design":"baseline","query":"Q99"}}`},
		{"bad gran", `{"kind":"bench","tenant":"t","bench":{"design":"baseline","query":"Q1","gran":5}}`},
		{"nan rate literal", `{"kind":"bench","tenant":"t","bench":{"design":"baseline","query":"Q1","fault_rate":NaN}}`},
		{"inf rate overflow", `{"kind":"bench","tenant":"t","bench":{"design":"baseline","query":"Q1","fault_rate":1e999}}`},
		{"rate above one", `{"kind":"bench","tenant":"t","bench":{"design":"baseline","query":"Q1","fault_rate":1.5}}`},
		{"negative seed", `{"kind":"bench","tenant":"t","workload":{"seed":-1},"bench":{"design":"baseline","query":"Q1"}}`},
		{"oversized table", fmt.Sprintf(`{"kind":"bench","tenant":"t","workload":{"ta":%d},"bench":{"design":"baseline","query":"Q1"}}`, 1<<23)},
		{"unknown figure", `{"kind":"figure","tenant":"t","figure":{"id":"fig99"}}`},
		{"oversized sweep grid", `{"kind":"sweep","tenant":"t","sweep":{"query":"arith","selectivities":[0.01,0.02,0.03,0.04,0.05,0.06,0.07,0.08,0.09,0.1,0.11,0.12,0.13,0.14,0.15,0.16,0.17],"projectivities":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17]}}`},
		{"zero selectivity", `{"kind":"sweep","tenant":"t","sweep":{"query":"arith","selectivities":[0],"projectivities":[1]}}`},
		{"record size not a power of two", `{"kind":"sweep","tenant":"t","sweep":{"query":"arith","selectivities":[1],"projectivities":[1],"record_bytes":12}}`},
		{"record size off the stripe", `{"kind":"sweep","tenant":"t","sweep":{"query":"arith","selectivities":[1],"projectivities":[1],"record_bytes":40}}`},
		{"record size over a row", `{"kind":"sweep","tenant":"t","sweep":{"query":"arith","selectivities":[1],"projectivities":[1],"record_bytes":2048}}`},
		{"record size at the old cap", `{"kind":"sweep","tenant":"t","sweep":{"query":"arith","selectivities":[1],"projectivities":[1],"record_bytes":65536}}`},
		{"bad reliability rate", `{"kind":"reliability","tenant":"t","reliability":{"rates":[0]}}`},
		{"reliability retries over cap", `{"kind":"reliability","tenant":"t","reliability":{"max_retries":99}}`},
	}
	for _, tc := range cases {
		code, body := postJob(t, ts, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status = %d (%s), want 400", tc.name, code, body)
		}
	}
	if resp, err := http.Get(ts.URL + "/jobs/j-999999"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job id: status = %d, want 404", resp.StatusCode)
		}
	}
}

// benchBody builds a bench submission for design d and query q.
func benchBody(tenant, d, q string) string {
	return fmt.Sprintf(`{"kind":"bench","tenant":%q,"workload":%s,"bench":{"design":%q,"query":%q}}`,
		tenant, tinyWorkloadJSON, d, q)
}

// TestConcurrentClientsDeterministic is the tentpole differential: N
// concurrent clients submitting overlapping job sets in different orders
// observe byte-identical results — identical to each other, to a
// single-worker daemon, and to the batch API the CLIs use — while dedup
// and the run memo ensure each unique job computes exactly once.
func TestConcurrentClientsDeterministic(t *testing.T) {
	designs := []string{"baseline", "SAM-en", "GS-DRAM"}
	queries := []string{"Q1", "Q3"}
	type jobSpec struct{ design, query string }
	var specs []jobSpec
	for _, d := range designs {
		for _, q := range queries {
			specs = append(specs, jobSpec{d, q})
		}
	}

	runDaemon := func(workers, clients int) map[jobSpec][]byte {
		d, ts := startDaemon(t, Config{Workers: workers, InnerWorkers: 1})
		results := make([]map[jobSpec][]byte, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				got := make(map[jobSpec][]byte)
				ids := make(map[jobSpec]string)
				// Each client walks the specs rotated by its index, so
				// arrival order differs per client.
				for i := range specs {
					s := specs[(i+c)%len(specs)]
					code, b := postJob(t, ts, benchBody(fmt.Sprintf("client%d", c), s.design, s.query))
					if code != http.StatusAccepted && code != http.StatusOK {
						t.Errorf("client %d submit: %d %s", c, code, b)
						return
					}
					var sr SubmitResponse
					if err := json.Unmarshal(b, &sr); err != nil {
						t.Errorf("client %d: %v", c, err)
						return
					}
					ids[s] = sr.Job.ID
				}
				for s, id := range ids {
					if st := pollTerminal(t, ts, id); st.State != StateDone {
						t.Errorf("client %d job %s: state %q err %q", c, id, st.State, st.Err)
						return
					}
					_, body := getResult(t, ts, id)
					got[s] = body
				}
				results[c] = got
			}(c)
		}
		wg.Wait()
		if t.Failed() {
			t.Fatal("client failure")
		}

		// Every client saw identical bytes.
		for c := 1; c < clients; c++ {
			for _, s := range specs {
				if !bytes.Equal(results[0][s], results[c][s]) {
					t.Fatalf("client 0 and client %d disagree on %v", c, s)
				}
			}
		}

		// Dedup is observable: each unique job simulated exactly once.
		if got := d.exec.runMemo.Counters().Misses; got != uint64(len(specs)) {
			t.Fatalf("run-memo misses = %d, want %d (one compute per unique job)", got, len(specs))
		}
		missByLabel := map[string]int{}
		for _, st := range d.sched.List() {
			if st.Memo == "miss" {
				missByLabel[st.Label]++
			}
		}
		for label, n := range missByLabel {
			if n != 1 {
				t.Fatalf("label %q computed %d times, want 1", label, n)
			}
		}
		d.Drain(context.Background())
		return results[0]
	}

	wide := runDaemon(4, 4)
	narrow := runDaemon(1, 2)

	// Worker-count and client-count invariance.
	for _, s := range specs {
		if !bytes.Equal(wide[s], narrow[s]) {
			t.Fatalf("results differ between 4-worker and 1-worker daemons on %v", s)
		}
	}

	// Differential against the batch API the CLIs drive.
	w := tinyWorkload()
	for _, s := range specs {
		kind, ok := core.KindByName(s.design)
		if !ok {
			t.Fatalf("unknown design %q", s.design)
		}
		q, ok := core.BenchQueryByName(s.query)
		if !ok {
			t.Fatalf("unknown query %q", s.query)
		}
		r, err := core.RunSpec{Design: kind, Workload: w, Query: q}.Run()
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.EncodeResult(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wide[s], want) {
			t.Fatalf("daemon result for %v differs from core.RunSpec.Run:\ndaemon: %s\nbatch:  %s", s, wide[s], want)
		}
	}
}

// TestFigureJobMatchesBatchCLI pins the figure payload byte-identical to
// the table samfig prints (minus the banner line) — the same comparison
// the CI samd-smoke job performs over a real socket.
func TestFigureJobMatchesBatchCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("full fig12 grid skipped in short mode")
	}
	d, ts := startDaemon(t, Config{Workers: 2, InnerWorkers: 4})
	defer d.Drain(context.Background())

	body := fmt.Sprintf(`{"kind":"figure","tenant":"ci","workload":%s,"figure":{"id":"fig12"}}`, tinyWorkloadJSON)
	st := submitOK(t, ts, body)
	if got := pollTerminal(t, ts, st.ID); got.State != StateDone {
		t.Fatalf("figure job: state %q err %q", got.State, got.Err)
	}
	ct, got := getResult(t, ts, st.ID)
	if !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("figure content type = %q", ct)
	}

	fig, err := core.Fig12(context.Background(), tinyWorkload(), core.Par{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := fig.Table().String(); string(got) != want {
		t.Fatalf("daemon fig12 differs from core.Fig12:\n--- daemon ---\n%s\n--- batch ---\n%s", got, want)
	}
}

// TestInstantResultCacheHit: resubmitting a completed bench job is served
// at admission from the run memo (200, terminal, attributed "hit")
// without occupying a queue slot.
func TestInstantResultCacheHit(t *testing.T) {
	d, ts := startDaemon(t, Config{Workers: 1})
	defer d.Drain(context.Background())

	body := benchBody("alice", "baseline", "Q2")
	first := submitOK(t, ts, body)
	if st := pollTerminal(t, ts, first.ID); st.State != StateDone {
		t.Fatalf("first run: %+v", st)
	}

	code, b := postJob(t, ts, benchBody("bob", "baseline", "Q2")) // different tenant, same work
	if code != http.StatusOK {
		t.Fatalf("repeat submit: status %d (%s), want 200 instant serve", code, b)
	}
	var sr SubmitResponse
	if err := json.Unmarshal(b, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Job.State != StateDone || sr.Job.Memo != "hit" {
		t.Fatalf("repeat job = %+v, want done/hit", sr.Job)
	}
	_, b1 := getResult(t, ts, first.ID)
	_, b2 := getResult(t, ts, sr.Job.ID)
	if !bytes.Equal(b1, b2) {
		t.Fatal("instant-served result differs from computed result")
	}
}

// TestCompoundJobRebuildsFromCellHits: a repeated figure job goes to a
// worker and rebuilds its table from run-memo hits, attributed "hit",
// and a bench job for one of its cells is then served at admission.
func TestCompoundJobRebuildsFromCellHits(t *testing.T) {
	d, ts := startDaemon(t, Config{Workers: 1, InnerWorkers: 2})
	defer d.Drain(context.Background())

	body := fmt.Sprintf(`{"kind":"figure","tenant":"ci","workload":%s,"figure":{"id":"fig12"}}`, tinyWorkloadJSON)
	first := pollTerminal(t, ts, submitOK(t, ts, body).ID)
	if first.State != StateDone || first.Memo != "miss" {
		t.Fatalf("first figure job = %+v, want done/miss", first)
	}
	misses := d.exec.runMemo.Counters().Misses

	code, b := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("repeat figure submit: status %d (%s), want 202 (compound jobs always run)", code, b)
	}
	var sr SubmitResponse
	if err := json.Unmarshal(b, &sr); err != nil {
		t.Fatal(err)
	}
	second := pollTerminal(t, ts, sr.Job.ID)
	if second.State != StateDone || second.Memo != "hit" {
		t.Fatalf("repeat figure job = %+v, want done/hit", second)
	}
	if got := d.exec.runMemo.Counters().Misses; got != misses {
		t.Fatalf("repeat figure job simulated %d cells, want 0", got-misses)
	}
	_, b1 := getResult(t, ts, first.ID)
	_, b2 := getResult(t, ts, second.ID)
	if !bytes.Equal(b1, b2) {
		t.Fatal("rebuilt figure differs from the computed one")
	}

	if code, b := postJob(t, ts, benchBody("t", "SAM-en", "Q3")); code != http.StatusOK {
		t.Fatalf("bench job for a fig12 cell: status %d (%s), want 200 instant serve", code, b)
	}
}

// TestDaemonDrainEventLog runs the full lifecycle with the JSONL event
// log attached and SIGTERM semantics (forced via an expired context):
// every accepted job reaches a terminal state, no worker goroutines
// leak, and the log reconciles — every started job finishes, and the
// final record is the summary (the same invariants scripts/obscheck
// enforces on the file the CI smoke job captures).
func TestDaemonDrainEventLog(t *testing.T) {
	base := runtime.NumGoroutine()
	var log bytes.Buffer
	d, ts := startDaemon(t, Config{Workers: 1, EventLog: &log})

	var ids []string
	for i, q := range []string{"Q1", "Q2", "Q4", "Q5"} {
		st := submitOK(t, ts, benchBody(fmt.Sprintf("t%d", i), "baseline", q))
		ids = append(ids, st.ID)
	}
	// Expired grace: whatever is still queued is canceled, whatever is
	// running is interrupted; either way every job must end terminal.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := d.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		st := getStatus(t, ts, id)
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
		default:
			t.Fatalf("after drain job %s state = %q, not terminal", id, st.State)
		}
	}

	// Log reconciliation.
	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	if len(lines) == 0 {
		t.Fatal("empty event log")
	}
	type ev struct {
		Ev      string `json:"ev"`
		Sweep   string `json:"sweep"`
		Job     int    `json:"job"`
		Summary *struct {
			Sweeps []struct {
				Sweep  string `json:"sweep"`
				Jobs   int    `json:"jobs"`
				Done   int    `json:"done"`
				Failed int    `json:"failed"`
			} `json:"sweeps"`
		} `json:"summary"`
	}
	starts := map[string]int{}
	ends := map[string]int{}
	var last ev
	for i, line := range lines {
		var e ev
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("log line %d: %v: %s", i, err, line)
		}
		switch e.Ev {
		case "start":
			starts[fmt.Sprintf("%s/%d", e.Sweep, e.Job)]++
		case "finish", "fail":
			ends[fmt.Sprintf("%s/%d", e.Sweep, e.Job)]++
		}
		last = e
	}
	if last.Ev != "summary" || last.Summary == nil {
		t.Fatalf("last event = %q, want summary", last.Ev)
	}
	for k, n := range starts {
		if ends[k] != n {
			t.Fatalf("job %s: %d starts but %d ends", k, n, ends[k])
		}
	}
	for _, s := range last.Summary.Sweeps {
		if s.Done+s.Failed != s.Jobs {
			t.Fatalf("summary sweep %s: done %d + failed %d != jobs %d", s.Sweep, s.Done, s.Failed, s.Jobs)
		}
	}

	// No leaked workers: with the HTTP server shut too, the goroutine
	// count returns to the pre-daemon baseline.
	ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d at start, %d after drain", base, runtime.NumGoroutine())
}

// TestTelemetryEndpoints: the obs plane rides the daemon's own mux, with
// the run memo's instruments visible next to the job counters.
func TestTelemetryEndpoints(t *testing.T) {
	d, ts := startDaemon(t, Config{Workers: 1})
	defer d.Drain(context.Background())

	st := submitOK(t, ts, benchBody("t", "baseline", "Q1"))
	pollTerminal(t, ts, st.ID)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"sam_obs_jobs_enqueued", "sam_obs_jobs_finished", "sam_memo_misses"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	resp, err = http.Get(ts.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("/progress: %v", err)
	}
	resp.Body.Close()
	found := false
	for _, s := range rep.Sweeps {
		if s.Sweep == "samd" && s.Done >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("/progress has no completed samd jobs: %+v", rep)
	}
}

// TestSweepJobCancelled checks that a sweep job cancelled mid-grid (a
// forced drain) fails with the context's error alone, and that an
// uncancelled job lists its points in request order.
func TestSweepJobCancelled(t *testing.T) {
	req := &SubmitRequest{Kind: KindSweep, Sweep: &SweepReq{
		Query: "arith", Selectivities: []float64{0.25, 0.5}, Projectivities: []int{4, 8}, Records: 256,
	}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	par := core.Par{Workers: 2, Progress: func(done, total int) { cancel() }}
	if _, err := computeSweep(ctx, req, par); err != context.Canceled {
		t.Fatalf("cancelled sweep job returned %v, want context.Canceled itself", err)
	}
	res, err := computeSweep(context.Background(), req, core.Par{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var out []sweepPointOut
	if err := json.Unmarshal(res.Body, &out); err != nil {
		t.Fatal(err)
	}
	want := [][2]float64{{0.25, 4}, {0.25, 8}, {0.5, 4}, {0.5, 8}}
	if len(out) != len(want) {
		t.Fatalf("%d points, want %d", len(out), len(want))
	}
	for i, p := range out {
		if p.Selectivity != want[i][0] || float64(p.Projectivity) != want[i][1] || len(p.Speedups) != 4 {
			t.Fatalf("point %d: %+v, want selectivity %v projectivity %v with 4 speedups", i, p, want[i][0], want[i][1])
		}
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"os"
	"testing"
	"time"

	"sam/internal/core"
)

// TestTailPctRule pins the percentile rule: a reported tail has at least
// minBeyond samples above it and never reads below the median.
func TestTailPctRule(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		n    int
		want float64
	}{{1, 1}, {4, 3}, {21, 11}, {100, 90}, {1000, 990}, {4000, 3960}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		got := tailPct(xs, 0.99)
		if got != tc.want {
			t.Errorf("n=%d: p99 = %v, want %v", tc.n, got, tc.want)
		}
		beyond := 0
		for _, x := range xs {
			if x > got {
				beyond++
			}
		}
		if tc.n > 2*minBeyond && beyond < minBeyond {
			t.Errorf("n=%d: %d samples beyond p99, want at least %d", tc.n, beyond, minBeyond)
		}
		if got < median(xs) {
			t.Errorf("n=%d: p99 %v is below the median %v", tc.n, got, median(xs))
		}
	}
}

// TestJobMedians pins the per-job reduction: one value per job, the median
// of that job's times over the passes that ran it.
func TestJobMedians(t *testing.T) {
	got := sorted(jobMedians([]map[string]float64{
		{"a": 1, "b": 100},
		{"a": 3, "b": 300, "c": 7},
		{"a": 2, "b": 200},
	}))
	want := []float64{2, 7, 200}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got %v, want %v", got, want)
		}
	}
}

// TestLatencyCountsFromDue pins the open-loop accounting: a job's latency
// runs from when it was due, so a late send counts against the job, and
// the lateness itself is reported for every sent job.
func TestLatencyCountsFromDue(t *testing.T) {
	due := time.Unix(1000, 0)
	late := samdOut{due: due, sent: due.Add(5 * time.Millisecond), done: due.Add(20 * time.Millisecond)}
	if got := late.latencyMS(); got != 20 {
		t.Errorf("latency %v ms, want 20", got)
	}
	if lag := lagMS([]samdOut{late, {due: due}}); len(lag) != 1 || lag[0] != 5 {
		t.Errorf("lag %v, want [5]: only sent jobs have a lag", lag)
	}
}

// TestOpenLoopKeepsSchedule drives a live daemon: every job is due on the
// fixed schedule, is sent no earlier, finishes after it was sent, and every
// repeat of a key returns the bytes of the key's first result.
func TestOpenLoopKeepsSchedule(t *testing.T) {
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	defer client.CloseIdleConnections()
	srv, err := startDaemon(samdWorkers, client)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.stop(); err != nil {
			t.Error(err)
		}
	}()
	jobs, err := samdSchedule(7, 40)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]samdOut, len(jobs))
	start := srv.openLoop(client, jobs, outs, nil)
	first := map[int][]byte{}
	for i := range outs {
		o := &outs[i]
		if o.err != nil || o.refused {
			t.Fatalf("job %d: err %v, refused %v", i, o.err, o.refused)
		}
		if want := start.Add(time.Duration(float64(i) / samdRate * float64(time.Second))); !o.due.Equal(want) {
			t.Errorf("job %d due at %v, want %v", i, o.due.Sub(start), want.Sub(start))
		}
		if o.sent.Before(o.due) || o.done.Before(o.sent) {
			t.Errorf("job %d: due %v, sent %v, done %v out of order", i, o.due, o.sent, o.done)
		}
		if body, ok := first[jobs[i].key]; !ok {
			first[jobs[i].key] = o.body
		} else if !bytes.Equal(body, o.body) {
			t.Errorf("job %d: repeat of key %d returned different bytes", i, jobs[i].key)
		}
	}
}

// TestOutputDigestsStable checks that the digested outputs depend on the
// inputs alone: the Fig. 12 table on any worker count, the htap stream on
// the sharded and the serial engine.
func TestOutputDigestsStable(t *testing.T) {
	w := core.SmallWorkload()
	var tables []string
	for _, workers := range []int{1, 2} {
		fig, err := core.Fig12(context.Background(), w, core.Par{Workers: workers, Memo: core.NewMemo(core.MemoOptions{})})
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, sha([]byte(fig.Table().String())))
	}
	if tables[0] != tables[1] {
		t.Errorf("fig12 table digest: %s with 1 worker, %s with 2", tables[0], tables[1])
	}

	stream := func(shardWorkers int) string {
		b := &bench{metrics: map[string]metric{}}
		orders := &htapOrders{rng: rand.New(rand.NewSource(3))}
		systems, warm, err := b.htapSetup(w, shardWorkers, orders.next())
		if err != nil {
			t.Fatal(err)
		}
		p, err := b.runHTAPPass(systems, orders.next())
		if err != nil {
			t.Fatal(err)
		}
		if b.failed != 0 {
			t.Fatalf("%d htap checks failed", b.failed)
		}
		return sha(warm.encoded, p.encoded)
	}
	if auto, serial := stream(0), stream(1); auto != serial {
		t.Errorf("htap stream digest: %s auto-sharded, %s serial", auto, serial)
	}
}

// TestBenchmarkJSONNamesEveryMetric keeps BENCHMARK.json and the harness in
// step: the same workloads, end-to-end metrics and ledger, with the same
// units.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	b := &bench{metrics: map[string]metric{}, attempted: 1}
	b.setE2E(nil, 0, 0, nil, 0)
	if len(spec.EndToEnd) != len(b.metrics) {
		t.Errorf("%d end-to-end metrics declared, %d reported", len(spec.EndToEnd), len(b.metrics))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := b.metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s) reported as %+v", m.Name, m.Unit, got)
		}
	}
	if len(spec.PerLayer) != len(ledgerMetrics) {
		t.Fatalf("%d per-layer metrics declared, %d in the ledger", len(spec.PerLayer), len(ledgerMetrics))
	}
	for i, m := range spec.PerLayer {
		if l := ledgerMetrics[i]; l.name != m.Name || l.unit != m.Unit {
			t.Errorf("per-layer %d: declared %s (%s), ledger has %s (%s)", i, m.Name, m.Unit, l.name, l.unit)
		}
	}
}

// TestFoldTop checks the profile folding: each layer's flat time over all
// samples.
func TestFoldTop(t *testing.T) {
	const top = `Type: cpu
Showing nodes accounting for 1000ms, 100% of 1000ms total
      flat  flat%   sum%        cum   cum%
     400ms 40.00% 40.00%      500ms 50.00%  sam/internal/cache.(*Cache).set
     300ms 30.00% 70.00%      300ms 30.00%  runtime.mallocgc
     200ms 20.00% 90.00%      900ms 90.00%  sam/internal/mc.(*Controller).ServiceOne
     100ms 10.00%   100%      100ms 10.00%  sort.insertionSort
`
	got := foldTop(top)
	want := map[string]float64{"cache": 0.4, "go": 0.3, "mc": 0.2, "other": 0.1}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("%s share %v, want %v", k, got[k], v)
		}
	}
}

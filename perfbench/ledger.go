package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"sam/internal/cache"
	"sam/internal/runner"
	"sam/internal/sim"
	"sam/internal/sql"
	"sam/internal/stats"
)

// ledgerMetrics is every per-layer metric of the traced run, in report
// order. Each workload reports all of them; one that does not apply to a
// workload reads 0 there (README.md lists where each applies).
var ledgerMetrics = []struct{ name, unit string }{
	{"go.gc_cpu_frac", "frac"}, {"go.alloc_mb_per_op", "MB"}, {"go.gc_cycles", "count"}, {"go.cpu_share", "frac"},
	{"runner.queue_wait_ms_p50", "ms"}, {"runner.busy_frac", "frac"}, {"runner.straggler_s", "s"},
	{"sql.plan_us", "us"},
	{"sim.build_us", "us"}, {"sim.run_ms_p50", "ms"}, {"sim.run_ms_p99", "ms"},
	{"sim.host_ns_per_req.read", "ns"}, {"sim.host_ns_per_req.write", "ns"}, {"sim.cpu_share", "frac"},
	{"sim.shard_epochs", "count"}, {"sim.shard_gain", "x"},
	{"design.cpu_share", "frac"}, {"cache.cpu_share", "frac"},
	{"cache.l1_miss_rate", "frac"}, {"cache.llc_miss_rate", "frac"}, {"cache.llc_dirty_evictions", "count"}, {"cache.strided_inserts", "count"},
	{"mc.cpu_share", "frac"}, {"mc.replay_ns_per_req", "ns"},
	{"mc.row_hit_rate", "frac"}, {"mc.write_drains", "count"}, {"mc.mode_switches", "count"}, {"mc.retries", "count"},
	{"mc.read_latency_cycles_p50", "cycles"}, {"mc.read_latency_cycles_p99", "cycles"},
	{"dram.cpu_share", "frac"}, {"dram.acts", "count"}, {"dram.stride_reads", "count"}, {"dram.refreshes", "count"},
	{"ecc.cpu_share", "frac"}, {"fault.cpu_share", "frac"},
	{"fault.bursts", "count"}, {"fault.corrected_bursts", "count"}, {"fault.dues", "count"}, {"fault.silent_corruptions", "count"},
	{"memo.hit_ratio", "frac"}, {"memo.lookups", "count"}, {"memo.inflight_dedup", "count"}, {"memo.hit_us", "us"},
	{"serve.submit_ms_p50", "ms"}, {"serve.submit_ms_p99", "ms"}, {"serve.queue_ms_p50", "ms"}, {"serve.queue_ms_p99", "ms"},
	{"serve.run_ms_p50", "ms"}, {"serve.run_ms_p99", "ms"},
	{"serve.result_hit_ratio", "frac"}, {"serve.dedup_ratio", "frac"}, {"serve.refused", "count"},
	{"gen.lag_ms_p99", "ms"}, {"trace.overhead_frac", "frac"},
	{"model.gmean_q.RC-NVM-bit", "x"}, {"model.gmean_q.RC-NVM-wd", "x"}, {"model.gmean_q.GS-DRAM", "x"}, {"model.gmean_q.GS-DRAM-ecc", "x"},
	{"model.gmean_q.SAM-sub", "x"}, {"model.gmean_q.SAM-IO", "x"}, {"model.gmean_q.SAM-en", "x"}, {"model.gmean_q.ideal", "x"},
	{"model.gmean_qs.RC-NVM-bit", "x"}, {"model.gmean_qs.RC-NVM-wd", "x"}, {"model.gmean_qs.GS-DRAM", "x"}, {"model.gmean_qs.GS-DRAM-ecc", "x"},
	{"model.gmean_qs.SAM-sub", "x"}, {"model.gmean_qs.SAM-IO", "x"}, {"model.gmean_qs.SAM-en", "x"}, {"model.gmean_qs.ideal", "x"},
	{"model.paper_err.RC-NVM-bit", "frac"}, {"model.paper_err.RC-NVM-wd", "frac"}, {"model.paper_err.GS-DRAM-ecc", "frac"},
	{"model.paper_err.SAM-sub", "frac"}, {"model.paper_err.SAM-IO", "frac"}, {"model.paper_err.SAM-en", "frac"},
	{"model.cycles", "cycles"},
}

// paperGmeanQ is the paper's Fig. 12 Q-class gmean per design, as
// EXPERIMENTS.md quotes it. GS-DRAM and ideal have no paper number.
var paperGmeanQ = map[string]float64{
	"RC-NVM-bit": 2.6, "RC-NVM-wd": 3.4, "GS-DRAM-ecc": 2.7,
	"SAM-sub": 3.8, "SAM-IO": 4.1, "SAM-en": 4.2,
}

// startLedger zeroes every per-layer metric, so a traced run always
// prints the whole ledger.
func (b *bench) startLedger() {
	for _, m := range ledgerMetrics {
		b.set(m.name, 0, m.unit)
	}
}

// setL overwrites one ledger metric, keeping its declared unit.
func (b *bench) setL(name string, v float64) {
	m, ok := b.metrics[name]
	if !ok {
		panic("perfbench: ledger metric not declared: " + name)
	}
	m.Value = v
	b.metrics[name] = m
}

// ---- Go runtime ----

// rtStats is a runtime/metrics reading.
type rtStats struct {
	gcCPU, totalCPU, allocBytes, gcCycles float64
}

func readRT() rtStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return rtStats{val(s[0].Value), val(s[1].Value), val(s[2].Value), val(s[3].Value)}
}

// setRT reports the runtime's share of the interval since base, per op.
func (b *bench) setRT(base rtStats, ops int) {
	now := readRT()
	if cpu := now.totalCPU - base.totalCPU; cpu > 0 {
		b.setL("go.gc_cpu_frac", (now.gcCPU-base.gcCPU)/cpu)
	}
	if ops > 0 {
		b.setL("go.alloc_mb_per_op", (now.allocBytes-base.allocBytes)/float64(ops)/(1<<20))
		b.setL("go.gc_cycles", (now.gcCycles-base.gcCycles)/float64(ops))
	}
}

// ---- CPU profile, folded by package ----

// profileDir holds the traced run's CPU profile; the benchmark runs from
// the checkout root and writes only below it.
const profileDir = ".bench_build/prof"

type cpuProfile struct {
	path string
	f    *os.File
}

func startProfile() (*cpuProfile, error) {
	if err := os.MkdirAll(profileDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(profileDir, fmt.Sprintf("cpu-%d.pprof", os.Getpid()))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{path: path, f: f}, nil
}

// stop ends the profile and folds its flat samples by package with the
// installed `go tool pprof`, then deletes the file.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	defer os.Remove(p.path)
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-unit=ms", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", p.path)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, errOut.String())
	}
	return foldTop(out.String()), nil
}

// foldTop sums the flat column of `pprof -top -unit=ms` output by owning
// layer and returns each layer's share of all samples: sam/internal/<pkg>
// folds into "<pkg>", runtime.* into "go", everything else into "other".
func foldTop(text string) map[string]float64 {
	byPkg := map[string]float64{}
	var total float64
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[0], "ms") {
			continue
		}
		flat, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			continue
		}
		byPkg[layerOf(strings.Join(f[5:], " "))] += flat
		total += flat
	}
	if total > 0 {
		for k := range byPkg {
			byPkg[k] /= total
		}
	}
	return byPkg
}

// layerOf maps a profiled function name to its layer.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "sam/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") {
		return "go"
	}
	return "other"
}

// setShares reports the folded profile's per-layer CPU shares.
func (b *bench) setShares(shares map[string]float64) {
	for _, l := range []string{"go", "sim", "design", "cache", "mc", "dram", "ecc", "fault"} {
		b.setL(l+".cpu_share", shares[l])
	}
}

// ---- runner: per-cell spans from a Par.Observer ----

// cellClock records one sweep's enqueue time and per-item start/end times,
// and each item's CPU time on its worker thread.
type cellClock struct {
	mu         sync.Mutex
	enqueued   time.Time
	start, end []time.Time
	cpu        []time.Duration
}

func (c *cellClock) SweepStarted(total int) runner.SweepSpan {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enqueued = time.Now()
	c.start = make([]time.Time, total)
	c.end = make([]time.Time, total)
	c.cpu = make([]time.Duration, total)
	return c
}

// JobStarted and JobFinished run on the worker goroutine around the item,
// which stays locked to its OS thread in between, so the thread's CPU
// clock times the item alone. A single-channel Fig. 12 cell runs the serial
// engine and starts no goroutines of its own.
func (c *cellClock) JobStarted(i, _ int) {
	runtime.LockOSThread()
	cpu := threadCPU()
	c.mu.Lock()
	c.start[i] = time.Now()
	c.cpu[i] = cpu
	c.mu.Unlock()
}

func (c *cellClock) JobAnnotate(int, string, string) {}

func (c *cellClock) JobFinished(i, _ int, _ error) {
	cpu := threadCPU()
	runtime.UnlockOSThread()
	c.mu.Lock()
	c.end[i] = time.Now()
	c.cpu[i] = cpu - c.cpu[i]
	c.mu.Unlock()
}

// cellCPUMS maps every finished item's index to its CPU time in ms.
func (c *cellClock) cellCPUMS() map[string]float64 {
	out := make(map[string]float64, len(c.start))
	for i := range c.start {
		if !c.end[i].IsZero() {
			out[strconv.Itoa(i)] = ms(c.cpu[i])
		}
	}
	return out
}

// poolStats derives the worker-pool ledger of one sweep: median queue
// wait, the share of workers×makespan spent running items, and the
// straggler tail (last completion minus the one before it, the stretch
// where a single item holds the sweep open).
func (c *cellClock) poolStats(workers int) (waitMS []float64, busy, straggler float64) {
	var last, prev time.Time
	var run time.Duration
	for i := range c.start {
		waitMS = append(waitMS, ms(c.start[i].Sub(c.enqueued)))
		run += c.end[i].Sub(c.start[i])
		switch e := c.end[i]; {
		case e.After(last):
			prev, last = last, e
		case e.After(prev):
			prev = e
		}
	}
	if span := last.Sub(c.enqueued); span > 0 {
		busy = float64(run) / float64(span) / float64(workers)
	}
	if !prev.IsZero() {
		straggler = last.Sub(prev).Seconds()
	}
	return waitMS, busy, straggler
}

// ---- sql ----

// planUS is the median µs to parse and compile one query of qs.
func planUS(qs []string, params []sql.Params) (float64, error) {
	var us []float64
	for rep := 0; rep < 20; rep++ {
		for i, q := range qs {
			t := time.Now()
			stmt, err := sql.Parse(q)
			if err != nil {
				return 0, err
			}
			if _, err := sql.Compile(stmt, params[i]); err != nil {
				return 0, err
			}
			us = append(us, float64(time.Since(t))/1e3)
		}
	}
	return median(us), nil
}

// ---- exact simulated counts ----

// simCounts accumulates the exact (seed-determined) counters of a fixed
// amount of simulated work.
type simCounts struct {
	l1Acc, l1Miss, llcAcc, llcMiss uint64
	llcDirty, strided              uint64
	rowHits, rowAll                uint64
	drains, modeSwitches, retries  uint64
	acts, strideReads, refs        uint64
	bursts, corrected, dues, sdc   uint64
	cycles                         uint64
	readLat                        *stats.Snapshot
}

// addRun folds one run's statistics in.
func (c *simCounts) addRun(st sim.RunStats) error {
	ctl := st.Controller
	c.rowHits += ctl.RowHits
	c.rowAll += ctl.RowHits + ctl.RowMisses + ctl.RowEmpties
	c.drains += ctl.WriteDrains
	c.modeSwitches += ctl.ModeSwitches
	c.retries += ctl.Retries
	c.acts += st.Device.Acts
	c.strideReads += st.Device.StrideReads
	c.refs += st.Device.Refs
	c.cycles += uint64(st.Cycles)
	if r := st.Reliability; r != nil {
		c.bursts += r.Bursts
		c.corrected += r.CorrectedBursts
		c.dues += r.DUEs
		c.sdc += r.SilentCorruptions
	}
	if st.Metrics == nil {
		return nil
	}
	if c.readLat == nil {
		c.readLat = &stats.Snapshot{}
	}
	// Normal and strided reads share bucket bounds; fold both into "read".
	for _, name := range []string{"mc.lat.read.normal", "mc.lat.read.stride"} {
		if h, ok := st.Metrics.Histograms[name]; ok {
			one := &stats.Snapshot{Histograms: map[string]stats.HistogramSnap{"read": h}}
			if err := c.readLat.Merge(one); err != nil {
				return err
			}
		}
	}
	return nil
}

// addCaches folds the hierarchy's per-level counters (after minus before).
func (c *simCounts) addCaches(before, after []cache.Stats) {
	last := len(after) - 1
	l1 := sub(after[0], before[0])
	llc := sub(after[last], before[last])
	c.l1Acc += l1.Hits + l1.Misses
	c.l1Miss += l1.Misses
	c.llcAcc += llc.Hits + llc.Misses
	c.llcMiss += llc.Misses
	c.llcDirty += llc.DirtyEvictions
	for i := range after {
		c.strided += after[i].StridedLineInserts - before[i].StridedLineInserts
	}
}

func sub(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses,
		DirtyEvictions: a.DirtyEvictions - b.DirtyEvictions,
	}
}

// cacheStats snapshots every level of a system's hierarchy.
func cacheStats(s *sim.System) []cache.Stats {
	out := make([]cache.Stats, s.Hierarchy.Levels())
	for i := range out {
		out[i] = s.Hierarchy.Level(i).Stats
	}
	return out
}

func frac(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// setCounts reports the exact simulated counters.
func (b *bench) setCounts(c *simCounts) {
	b.setL("cache.l1_miss_rate", frac(c.l1Miss, c.l1Acc))
	b.setL("cache.llc_miss_rate", frac(c.llcMiss, c.llcAcc))
	b.setL("cache.llc_dirty_evictions", float64(c.llcDirty))
	b.setL("cache.strided_inserts", float64(c.strided))
	b.setL("mc.row_hit_rate", frac(c.rowHits, c.rowAll))
	b.setL("mc.write_drains", float64(c.drains))
	b.setL("mc.mode_switches", float64(c.modeSwitches))
	b.setL("mc.retries", float64(c.retries))
	if c.readLat != nil {
		h := c.readLat.Histograms["read"]
		b.setL("mc.read_latency_cycles_p50", float64(h.Quantile(0.50)))
		b.setL("mc.read_latency_cycles_p99", float64(h.Quantile(0.99)))
	}
	b.setL("dram.acts", float64(c.acts))
	b.setL("dram.stride_reads", float64(c.strideReads))
	b.setL("dram.refreshes", float64(c.refs))
	b.setL("fault.bursts", float64(c.bursts))
	b.setL("fault.corrected_bursts", float64(c.corrected))
	b.setL("fault.dues", float64(c.dues))
	b.setL("fault.silent_corruptions", float64(c.sdc))
	b.setL("model.cycles", float64(c.cycles))
}

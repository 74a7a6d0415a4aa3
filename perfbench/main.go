// Command perfbench is the repository's end-to-end benchmark. It times what
// users run — the Fig. 12 regeneration, warm multi-channel HTAP systems and
// samd jobs — checks every simulated output, and in a traced run prints a
// per-layer ledger. See README.md for the workloads and metrics.
//
//	perfbench --workload fig12-cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
// The exit code is 0 only when every output checked out.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sam/internal/core"
)

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"fig12-cold": runFig12,
	"htap-4ch":   runHTAP,
	"samd-open":  runSamd,
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation's state, shared by the workload functions.
type bench struct {
	seed    int64
	window  time.Duration // --seconds: samd's schedule, the other workloads' pass counts
	traced  bool
	workers int // nproc: the bound on workers, threads and connections

	attempted, failed int
	metrics           map[string]metric
}

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records n failed operations with the reason on standard error.
func (b *bench) fail(n int, format string, args ...any) {
	b.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// workload is the benchmark database at default scale, keyed by the
// workload seed; seed 0 is exactly core.DefaultWorkload (what samfig runs).
func (b *bench) workload() core.Workload {
	w := core.DefaultWorkload()
	w.Seed += uint64(b.seed)
	return w
}

// passes is how many passes of about passWall each make up the timed
// phase: one per passWall of --seconds, and at least two.
func (b *bench) passes(passWall time.Duration) int {
	return max(2, int(math.Round(b.window.Seconds()/passWall.Seconds())))
}

// setE2E fills the end-to-end metrics every workload reports. passCPU is
// CPU seconds per pass and mreqPerCPUS simulated requests per CPU second
// (cpuclock.go says why CPU time).
func (b *bench) setE2E(setup []float64, passCPU, mreqPerCPUS float64, jobMS []float64, jobsPerS float64) {
	b.set("setup_s", median(setup), "s")
	b.set("pass_cpu_s", passCPU, "s")
	b.set("sim_mreq_per_cpu_s", mreqPerCPUS, "Mreq/s")
	b.set("job_ms_p50", median(jobMS), "ms")
	b.set("job_ms_p99", tailPct(jobMS, 0.99), "ms")
	b.set("jobs_per_s", jobsPerS, "1/s")
	b.set("peak_rss_mb", peakRSSMB(), "MB")
	b.set("ok_frac", float64(b.attempted-b.failed)/float64(b.attempted), "frac")
}

func main() {
	name := flag.String("workload", "", "fig12-cold, htap-4ch or samd-open")
	seed := flag.Int64("seed", 0, "workload seed (0 = the default database)")
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	traceFlag := flag.Int("trace", 0, "1 = traced run: print the per-layer ledger instead of the end-to-end metrics")
	flag.Parse()
	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload fig12-cold|htap-4ch|samd-open --seed N --seconds S>=1 --trace 0|1")
		os.Exit(2)
	}
	b := &bench{
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		traced:  *traceFlag == 1,
		workers: runtime.GOMAXPROCS(0),
		metrics: map[string]metric{},
	}
	if err := drive(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(2)
	}
	if b.attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted nothing\n", *name)
		os.Exit(2)
	}
	out := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

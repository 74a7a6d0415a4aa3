// Command samsim runs one SQL query from the paper's dialect against a
// chosen memory design and prints the cycle, traffic, and energy report.
//
// Usage:
//
//	samsim -design SAM-en -query "SELECT SUM(f9) FROM Ta WHERE f10 > 2"
//	samsim -design baseline -bench Q3
//	samsim -design RC-NVM-wd -bench Qs2 -ta 4096
//	samsim -design SAM-en -bench Q3 -compare -workers 2
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"sam/internal/cli"
	"sam/internal/core"
	"sam/internal/design"
	"sam/internal/etrace"
	"sam/internal/fault"
	"sam/internal/mc"
	"sam/internal/runner"
	"sam/internal/sim"
	"sam/internal/sql"
	"sam/internal/stats"
	"sam/internal/trace"
)

func main() {
	designName := flag.String("design", "SAM-en", "memory design to simulate")
	query := flag.String("query", "", "SQL query text (Table 3 dialect)")
	benchName := flag.String("bench", "", "run a named benchmark query (Q1..Q12, Qs1..Qs6) instead of -query")
	taRecords := flag.Int("ta", 0, "records in Ta (0 = default)")
	tbRecords := flag.Int("tb", 0, "records in Tb (0 = default)")
	compare := flag.Bool("compare", false, "also run the baseline and report speedup")
	workers := flag.Int("workers", 0, "max parallel simulations for -compare (0 = GOMAXPROCS)")
	faultRate := flag.Float64("fault-rate", 0, "per-burst transient fault probability (0..1)")
	faultSeed := flag.Uint64("fault-seed", 0, "fault-injection seed (0 = workload seed)")
	faultChips := flag.String("fault-chips", "", "comma-separated dead-chip indices, each as chip or rank:chip (-1 rank = all)")
	faultStuck := flag.String("fault-stuck", "", "comma-separated stuck DQ lines, each as chip:dq:value (value 0 or 1)")
	faultRetries := flag.Int("fault-retries", mc.DefaultConfig().MaxRetries, "read-retry budget before poisoning (0 = poison on first DUE)")
	traceOut := flag.String("trace", "", "dump the memory request trace to this file")
	eventOut := flag.String("trace-out", "", "write a cycle-accurate Chrome/Perfetto trace-event JSON to this file (with -compare, the baseline and the design side by side)")
	traceCSV := flag.String("trace-csv", "", "write the windowed time-series samples as CSV to this file")
	traceWindow := flag.Int64("trace-window", 2048, "sampling window for the trace time series (bus cycles)")
	traceLimit := flag.Int("trace-limit", etrace.DefaultCapacity, "event-ring capacity per design; oldest events drop beyond this")
	statsJSON := flag.String("stats-json", "", "write the full run report as JSON to this file ('-' for stdout)")
	cacheFlags := cli.RegisterCache(flag.CommandLine)
	run := cli.Register("samsim", flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	kind, ok := core.KindByName(*designName)
	if !ok {
		run.Fail(fmt.Errorf("unknown design %q (try %s)", *designName, strings.Join(core.KindNames(), ", ")))
	}
	spec := core.RunSpec{Design: kind, Workload: core.DefaultWorkload()}
	if *taRecords > 0 {
		spec.Workload.TaRecords = *taRecords
	}
	if *tbRecords > 0 {
		spec.Workload.TbRecords = *tbRecords
	}
	switch {
	case *benchName != "":
		if spec.Query, ok = core.BenchQueryByName(*benchName); !ok {
			run.Fail(fmt.Errorf("unknown benchmark query %q", *benchName))
		}
	case *query != "":
		spec.Query = core.BenchQuery{Name: "adhoc", SQL: *query, Params: sql.Params{}}
	default:
		run.Fail(fmt.Errorf("provide -query or -bench"))
	}
	var err error
	spec.Faults, err = buildFaultModel(*faultRate, *faultSeed, *faultChips, *faultStuck, *faultRetries, spec.Workload.Seed)
	if err != nil {
		run.Fail(err)
	}

	// Untraced runs, faulted or not, go through the memo cache; with
	// -cache-dir a repeat of the same run replays from disk instead of
	// simulating.
	cache := cacheFlags.Memo()
	tr := tracing{requests: *traceOut != "", events: *eventOut != "" || *traceCSV != "", window: *traceWindow, limit: *traceLimit}
	kinds := []design.Kind{kind}
	label := "run"
	if *compare && kind != design.Baseline {
		kinds = append(kinds, design.Baseline)
		label = "compare"
	}

	run.Start(cache.StatsSnapshot)
	defer run.Stop()

	// The design and its baseline are independent runs; fan them out on
	// the worker pool.
	type result struct {
		r   *sim.QueryResult
		rec recording
	}
	runs, err := runner.Map(ctx, kinds, runner.Options{Workers: *workers, Observer: run.Plane.Hooks(label)},
		func(ctx context.Context, _ int, k design.Kind) (result, error) {
			t := tr
			if k != kind {
				// The baseline is traced only for the side-by-side event trace.
				t.requests, t.events = false, *eventOut != ""
			}
			s := spec
			s.Design = k
			r, rec, err := runQuery(ctx, cache, s, t)
			if err != nil {
				return result{}, fmt.Errorf("%v: %w", k, err)
			}
			return result{r, rec}, nil
		})
	if err != nil {
		run.Fail(err)
	}
	res, rec := runs[0].r, runs[0].rec
	report(kind.String(), spec.Query, res)
	if len(runs) > 1 {
		base := runs[1].r
		fmt.Printf("\nspeedup vs baseline: %.2fx (baseline %d cycles)\n",
			sim.Speedup(base.Stats, res.Stats), base.Stats.Cycles)
	}
	if *traceOut != "" {
		if err := cli.WriteFile(*traceOut, rec.requests.Write); err != nil {
			run.Fail(err)
		}
		fmt.Printf("trace         %d requests -> %s\n", rec.requests.Len(), *traceOut)
	}
	if *eventOut != "" {
		// One process group per design, the baseline on top.
		var bufs []*etrace.Buffer
		var sps []*etrace.Sampler
		for i := len(runs) - 1; i >= 0; i-- {
			r := runs[i].rec
			bufs, sps = append(bufs, r.events), append(sps, r.samples)
			fmt.Printf("event trace   %s: %d events (%d dropped), %d samples\n",
				r.events.Name, r.events.Len(), r.events.Dropped(), len(r.samples.Samples))
		}
		if err := cli.WriteFile(*eventOut, func(f io.Writer) error { return etrace.WriteChrome(f, bufs, sps) }); err != nil {
			run.Fail(err)
		}
		fmt.Printf("event trace   -> %s\n", *eventOut)
	}
	if *traceCSV != "" {
		if err := cli.WriteFile(*traceCSV, func(f io.Writer) error { return etrace.WriteCSV(f, rec.samples) }); err != nil {
			run.Fail(err)
		}
		fmt.Printf("trace csv     %d samples (window %d cycles) -> %s\n",
			len(rec.samples.Samples), rec.samples.Window, *traceCSV)
	}
	var memoSnap *stats.Snapshot
	if cache != nil {
		if ct := cache.Counters(); ct.Lookups() > 0 {
			memoSnap = cache.StatsSnapshot()
			fmt.Fprintf(os.Stderr, "samsim: memo: %v\n", ct)
		}
	}
	if *statsJSON != "" {
		out := statsReport{
			Design:     kind.String(),
			Query:      spec.Query.Name,
			SQL:        spec.Query.SQL,
			Rows:       res.Rows,
			Aggregates: res.Aggregates,
			Stats:      res.Stats,
			Memo:       memoSnap,
		}
		if err := cli.WriteJSON(*statsJSON, out); err != nil {
			run.Fail(err)
		}
	}
}

// tracing selects what a run records; the zero value records nothing.
type tracing struct {
	requests bool // the memory request trace (-trace)
	events   bool // the event ring and windowed sampler (-trace-out, -trace-csv)
	window   int64
	limit    int
}

// recording is what one traced run captured.
type recording struct {
	requests *trace.Trace
	events   *etrace.Buffer
	samples  *etrace.Sampler
}

// runQuery executes spec. An untraced run goes through the memo cache (a
// nil cache runs uncached). A traced run attaches its recorders to the
// run's system and is never cached.
func runQuery(ctx context.Context, cache *core.Memo, spec core.RunSpec, tr tracing) (*sim.QueryResult, recording, error) {
	if !tr.requests && !tr.events {
		r, _, err := cache.Run(ctx, spec)
		return r, recording{}, err
	}
	var rec recording
	if tr.requests {
		rec.requests = &trace.Trace{}
	}
	if tr.events {
		rec.events = etrace.NewBuffer(tr.limit)
		rec.events.Name = spec.Design.String()
		rec.samples = etrace.NewSampler(tr.window)
		rec.samples.Name = spec.Design.String()
	}
	r, err := spec.Run(func(s *sim.System) {
		if rec.requests != nil {
			s.TraceSink = rec.requests
		}
		if rec.events != nil {
			s.AttachEventTrace(rec.events, rec.samples)
		}
	})
	return r, rec, err
}

// buildFaultModel assembles the run's fault configuration from the -fault-*
// flags (nil when no fault option is set).
func buildFaultModel(rate float64, seed uint64, chips, stuck string, retries int, wseed uint64) (*sim.FaultModel, error) {
	cfg := &sim.FaultModel{Seed: seed, Rate: rate, MaxRetries: retries}
	if cfg.Seed == 0 {
		cfg.Seed = wseed
	}
	if chips != "" {
		for _, tok := range strings.Split(chips, ",") {
			parts := strings.Split(strings.TrimSpace(tok), ":")
			var err error
			cf := fault.ChipFault{Rank: -1}
			switch len(parts) {
			case 1:
				cf.Chip, err = strconv.Atoi(parts[0])
			case 2:
				if cf.Rank, err = strconv.Atoi(parts[0]); err == nil {
					cf.Chip, err = strconv.Atoi(parts[1])
				}
			default:
				err = fmt.Errorf("want chip or rank:chip")
			}
			if err != nil {
				return nil, fmt.Errorf("-fault-chips %q: %v", tok, err)
			}
			cfg.DeadChips = append(cfg.DeadChips, cf)
		}
	}
	if stuck != "" {
		for _, tok := range strings.Split(stuck, ",") {
			parts := strings.Split(strings.TrimSpace(tok), ":")
			if len(parts) != 3 {
				return nil, fmt.Errorf("-fault-stuck %q: want chip:dq:value", tok)
			}
			var sd fault.StuckDQ
			sd.Rank = -1
			var err error
			if sd.Chip, err = strconv.Atoi(parts[0]); err == nil {
				if sd.DQ, err = strconv.Atoi(parts[1]); err == nil {
					var v int
					v, err = strconv.Atoi(parts[2])
					sd.Value = byte(v)
				}
			}
			if err != nil {
				return nil, fmt.Errorf("-fault-stuck %q: %v", tok, err)
			}
			cfg.StuckDQs = append(cfg.StuckDQs, sd)
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Active() {
		return nil, nil
	}
	return cfg, nil
}

// statsReport is the machine-readable form of the run: functional results
// plus the full sim.RunStats, including the per-class latency/occupancy
// histogram snapshot (Stats.Metrics) and per-bank accounting
// (Stats.Device.PerBank, Stats.BankActPreNJ).
type statsReport struct {
	Design     string
	Query      string
	SQL        string
	Rows       int
	Aggregates []float64
	Stats      sim.RunStats
	// Memo is the run's cache instrument snapshot (memo.hits,
	// memo.misses, memo.inflight_dedup counters and the memo.bytes
	// gauge); absent when memoization is disabled or unused.
	Memo *stats.Snapshot `json:",omitempty"`
}

func report(designName string, q core.BenchQuery, r *sim.QueryResult) {
	st := r.Stats
	fmt.Printf("design        %s\n", designName)
	fmt.Printf("query         %s: %s\n", q.Name, q.SQL)
	fmt.Printf("rows          %d\n", r.Rows)
	for i, agg := range r.Aggregates {
		fmt.Printf("aggregate[%d]  %.6g\n", i, agg)
	}
	fmt.Printf("cycles        %d (%.3f ms at 1200 MHz bus)\n", st.Cycles, st.Seconds(1200)*1e3)
	fmt.Printf("mem requests  %d (row-hit rate %.1f%%)\n", st.MemRequests, st.RowHitRate*100)
	fmt.Printf("device        ACT=%d RD=%d WR=%d sRD=%d sWR=%d REF=%d modeSwitch=%d\n",
		st.Device.Acts, st.Device.Reads, st.Device.Writes,
		st.Device.StrideReads, st.Device.StrideWrites, st.Device.Refs, st.Device.ModeSwitches)
	fmt.Printf("energy        %.2f uJ (bg %.1f%%, act %.1f%%, rd/wr %.1f%%, ref %.1f%%)\n",
		st.Energy.Total()/1e3,
		pct(st.Energy.Background, st.Energy.Total()),
		pct(st.Energy.ActPre, st.Energy.Total()),
		pct(st.Energy.RdWr, st.Energy.Total()),
		pct(st.Energy.Refresh, st.Energy.Total()))
	fmt.Printf("avg power     %.0f mW\n", st.PowerMW.Total())
	if rel := st.Reliability; rel != nil {
		fmt.Printf("fault model   %d bursts probed, %d injected, %d corrected (%d symbols), %d DUE, %d silent\n",
			rel.Bursts, rel.Injected, rel.CorrectedBursts, rel.CorrectedSymbols,
			rel.DUEs, rel.SilentCorruptions)
		fmt.Printf("reliability   %d retries, %d poisoned lines\n",
			st.Controller.Retries, st.Controller.Poisoned)
	}
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole * 100
}

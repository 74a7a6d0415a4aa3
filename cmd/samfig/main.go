// Command samfig regenerates the paper's tables and figures (Section 6) as
// plain-text tables or CSV. Every figure's grid of independent simulations
// runs on a bounded worker pool; the emitted tables are byte-identical for
// any -workers value, and Ctrl-C cancels a sweep mid-flight.
//
// Usage:
//
//	samfig -exp all
//	samfig -exp fig12 -ta 16384 -tb 131072
//	samfig -exp fig15a -csv
//	samfig -exp all -small -workers 8 -progress
//	samfig -exp fig12 -cache-dir .samcache   # warm re-runs skip simulation
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"sam/internal/core"
	"sam/internal/memo"
	"sam/internal/obs"
	"sam/internal/prof"
	"sam/internal/sim"
	"sam/internal/stats"
)

// metricEntry is one simulation's statistics inside a figure's metrics
// dump: the figure cell it belongs to plus the full run report.
type metricEntry struct {
	X      string
	Design string
	Stats  sim.RunStats
}

// metricsFile is the on-disk shape of <metrics-dir>/<figID>.json: every
// run's statistics in emission order, plus the merge of all histogram
// snapshots across the figure (a stats.Snapshot.Merge exercise — entries
// arrive in the drivers' fixed aggregation order, so the file is
// byte-identical for any -workers value).
type metricsFile struct {
	Figure  string
	Entries []metricEntry
	Merged  *stats.Snapshot
}

func main() {
	exp := flag.String("exp", "all", "experiment: table1, table2, table3, fig12, fig13, fig14a, fig14b, fig14c, fig15a..fig15i, reliability, all")
	taRecords := flag.Int("ta", 0, "records in the wide table Ta (0 = default)")
	tbRecords := flag.Int("tb", 0, "records in the narrow table Tb (0 = default)")
	sweepRecords := flag.Int("sweep-records", 2048, "table records per Fig.15 sweep point")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	small := flag.Bool("small", false, "use the small (test-scale) workload")
	workers := flag.Int("workers", 0, "max parallel simulations per sweep (0 = GOMAXPROCS, 1 = serial)")
	progress := flag.Bool("progress", false, "report per-sweep progress on stderr")
	metricsDir := flag.String("metrics-dir", "", "dump per-figure run metrics as JSON files into this directory")
	cacheDir := flag.String("cache-dir", "", "persist memoized run results in this directory (warm re-runs skip simulation)")
	noCache := flag.Bool("no-cache", false, "disable run memoization entirely (overrides -cache-dir)")
	relOut := flag.String("reliability-out", "", "write the reliability campaign summary as JSON to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	w := core.DefaultWorkload()
	if *small {
		w = core.SmallWorkload()
	}
	if *taRecords > 0 {
		w.TaRecords = *taRecords
	}
	if *tbRecords > 0 {
		w.TbRecords = *tbRecords
	}

	// fail closes the plane before exiting so an aborted run (a cancelled
	// sweep, a failed figure) still gets its event-log summary; os.Exit
	// skips the deferred Close, and Close is idempotent for the normal
	// path.
	var plane *obs.Plane
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "samfig:", err)
		_ = plane.Close()
		os.Exit(1)
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fail(err)
		}
	}()

	// One memo cache is shared across every figure and sweep of the
	// invocation, so `-exp all` simulates each distinct (design, workload,
	// query) cell once no matter how many figures evaluate it. Figures are
	// byte-identical with the cache on or off; -no-cache recovers the
	// run-everything behaviour, -cache-dir adds the persistent tier.
	var cache *core.Memo
	if !*noCache {
		cache = core.NewMemo(core.MemoOptions{Dir: *cacheDir})
	}

	// The observability plane (nil when both flags are off) serves live
	// /metrics, /progress, and the stall watchdog while figures run, and
	// appends the JSONL run-lifecycle event log.
	plane, err = obsFlags.Start(os.Stderr)
	if err != nil {
		fail(err)
	}
	if cache != nil {
		plane.AddSource(cache.StatsSnapshot)
	}
	defer func() {
		if err := plane.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "samfig: obs:", err)
		}
	}()

	// collected gathers per-run metrics by figure ID, in emission order
	// (the drivers call Par.Metrics from their deterministic aggregation
	// loops, never from workers).
	collected := map[string]*metricsFile{}
	var collectedOrder []string

	// par builds the per-sweep parallelism config; the progress callback
	// rewrites one stderr line per completed simulation of that sweep.
	par := func(name string) core.Par {
		p := core.Par{Workers: *workers, Memo: cache, Observer: plane.Hooks(name)}
		if *progress {
			p.Progress = func(done, total int) {
				fmt.Fprintf(os.Stderr, "\r%s: %d/%d runs", name, done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
		if *metricsDir != "" {
			p.Metrics = func(figID, x, designName string, st sim.RunStats) {
				mf, ok := collected[figID]
				if !ok {
					mf = &metricsFile{Figure: figID, Merged: &stats.Snapshot{}}
					collected[figID] = mf
					collectedOrder = append(collectedOrder, figID)
				}
				mf.Entries = append(mf.Entries, metricEntry{X: x, Design: designName, Stats: st})
				if err := mf.Merged.Merge(st.Metrics); err != nil {
					fail(fmt.Errorf("%s: %w", figID, err))
				}
			}
		}
		return p
	}

	emit := func(title string, tb *stats.Table) {
		fmt.Printf("== %s ==\n", title)
		if *csv {
			fmt.Print(tb.CSV())
		} else {
			fmt.Print(tb.String())
		}
		fmt.Println()
	}

	wants := func(name string) bool {
		return *exp == "all" || *exp == name
	}

	if wants("table1") {
		emit("Table 1: qualitative comparison (+/o/x)", core.Table1())
	}
	if wants("table2") {
		emit("Table 2: simulated system parameters", core.Table2())
	}
	if wants("table3") {
		tb, err := core.Table3()
		if err != nil {
			fail(err)
		}
		emit("Table 3: benchmark queries (parsed and planned)", tb)
	}
	if wants("fig12") {
		fig, err := core.Fig12(ctx, w, par("fig12"))
		if err != nil {
			fail(err)
		}
		emit("Fig 12: speedup vs row-store baseline", fig.Table())
	}
	if wants("fig13") {
		rows, err := core.Fig13(ctx, w, par("fig13"))
		if err != nil {
			fail(err)
		}
		tb := stats.NewTable("category", "design", "bg mW", "rd/wr mW", "act mW", "total mW", "energy eff")
		for _, r := range rows {
			tb.AddRow(r.Category, r.Design,
				fmt.Sprintf("%.0f", r.Background), fmt.Sprintf("%.0f", r.RdWr),
				fmt.Sprintf("%.0f", r.ActPre), fmt.Sprintf("%.0f", r.TotalMW),
				fmt.Sprintf("%.2f", r.EnergyEff))
		}
		emit("Fig 13: power and normalized energy efficiency", tb)
	}
	if wants("fig14a") {
		fig, err := core.Fig14a(ctx, w, par("fig14a"))
		if err != nil {
			fail(err)
		}
		emit("Fig 14a: substrate swap (all-query gmean speedup)", fig.Table())
	}
	if wants("fig14b") {
		fig, err := core.Fig14b(ctx, w, par("fig14b"))
		if err != nil {
			fail(err)
		}
		emit("Fig 14b: strided granularity sweep (Q-query gmean)", fig.Table())
	}
	if wants("fig14c") {
		emit("Fig 14c: area and storage overhead", core.Fig14c().Table())
	}
	if wants("reliability") {
		camp := core.DefaultReliabilityCampaign()
		results, err := core.RunReliability(ctx, camp, par("reliability"))
		if err != nil {
			fail(err)
		}
		tb := stats.NewTable("design", "bits", "scheme", "model", "rate",
			"bursts", "injected", "corrected", "DUE", "silent", "retries", "poisoned")
		for _, r := range results {
			rate := "-"
			if r.Model == core.ModelTransient {
				rate = fmt.Sprintf("%g", r.Rate)
			}
			tb.AddRow(r.Design, fmt.Sprintf("%d", r.Bits), r.Scheme, r.Model, rate,
				fmt.Sprintf("%d", r.Counters.Bursts), fmt.Sprintf("%d", r.Counters.Injected),
				fmt.Sprintf("%d", r.Counters.CorrectedBursts), fmt.Sprintf("%d", r.Counters.DUEs),
				fmt.Sprintf("%d", r.Counters.SilentCorruptions),
				fmt.Sprintf("%d", r.Retries), fmt.Sprintf("%d", r.Poisoned))
		}
		emit("Reliability: fault campaign (chipkill at the burst boundary)", tb)
		if *relOut != "" {
			summary := struct {
				Seed     uint64                   `json:"seed"`
				TotalSDC uint64                   `json:"total_sdc"`
				Cells    []core.ReliabilityResult `json:"cells"`
			}{camp.Seed, core.TotalSDC(results), results}
			enc, err := json.MarshalIndent(summary, "", "  ")
			if err != nil {
				fail(err)
			}
			enc = append(enc, '\n')
			if err := os.WriteFile(*relOut, enc, 0o644); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "samfig: wrote %s (%d cells)\n", *relOut, len(results))
		}
		if n := core.TotalSDC(results); n != 0 {
			fail(fmt.Errorf("reliability campaign took %d silent data corruptions", n))
		}
	}

	type sweep struct {
		name string
		run  func() (*core.Figure, error)
	}
	sweeps := []sweep{
		{"fig15a", func() (*core.Figure, error) {
			return core.Fig15SelectivitySweep(ctx, core.Arithmetic, 8, *sweepRecords, par("fig15a"))
		}},
		{"fig15b", func() (*core.Figure, error) {
			return core.Fig15SelectivitySweep(ctx, core.Arithmetic, 64, *sweepRecords, par("fig15b"))
		}},
		{"fig15c", func() (*core.Figure, error) {
			return core.Fig15SelectivitySweep(ctx, core.Arithmetic, 128, *sweepRecords, par("fig15c"))
		}},
		{"fig15d", func() (*core.Figure, error) {
			return core.Fig15ProjectivitySweep(ctx, core.Arithmetic, 0.10, *sweepRecords, par("fig15d"))
		}},
		{"fig15e", func() (*core.Figure, error) {
			return core.Fig15ProjectivitySweep(ctx, core.Arithmetic, 0.50, *sweepRecords, par("fig15e"))
		}},
		{"fig15f", func() (*core.Figure, error) {
			return core.Fig15ProjectivitySweep(ctx, core.Arithmetic, 1.00, *sweepRecords, par("fig15f"))
		}},
		{"fig15g", func() (*core.Figure, error) {
			return core.Fig15SelectivitySweep(ctx, core.Aggregate, 8, *sweepRecords, par("fig15g"))
		}},
		{"fig15h", func() (*core.Figure, error) {
			return core.Fig15ProjectivitySweep(ctx, core.Aggregate, 1.00, *sweepRecords, par("fig15h"))
		}},
		{"fig15i", func() (*core.Figure, error) {
			return core.Fig15RecordSizeSweep(ctx, *sweepRecords, par("fig15i"))
		}},
	}
	titles := map[string]string{
		"fig15a": "Fig 15a: arithmetic, speedup vs selectivity (8 fields)",
		"fig15b": "Fig 15b: arithmetic, speedup vs selectivity (64 fields)",
		"fig15c": "Fig 15c: arithmetic, speedup vs selectivity (all fields)",
		"fig15d": "Fig 15d: arithmetic, speedup vs projectivity (10% selected)",
		"fig15e": "Fig 15e: arithmetic, speedup vs projectivity (50% selected)",
		"fig15f": "Fig 15f: arithmetic, speedup vs projectivity (100% selected)",
		"fig15g": "Fig 15g: aggregate, speedup vs selectivity (8 fields)",
		"fig15h": "Fig 15h: aggregate, speedup vs projectivity (100% selected)",
		"fig15i": "Fig 15i: speedup vs record size (100%/100%)",
	}
	ranAny := false
	for _, sw := range sweeps {
		if wants(sw.name) || (*exp == "fig15" && strings.HasPrefix(sw.name, "fig15")) {
			fig, err := sw.run()
			if err != nil {
				fail(err)
			}
			emit(titles[sw.name], fig.Table())
			ranAny = true
		}
	}
	known := map[string]bool{
		"all": true, "table1": true, "table2": true, "table3": true,
		"fig12": true, "fig13": true, "fig14a": true, "fig14b": true, "fig14c": true, "fig15": true,
		"reliability": true,
	}
	for _, sw := range sweeps {
		known[sw.name] = true
	}
	if !known[*exp] && !ranAny {
		fail(fmt.Errorf("unknown experiment %q", *exp))
	}

	if *metricsDir != "" {
		if err := os.MkdirAll(*metricsDir, 0o755); err != nil {
			fail(err)
		}
		for _, figID := range collectedOrder {
			enc, err := json.MarshalIndent(collected[figID], "", "  ")
			if err != nil {
				fail(err)
			}
			enc = append(enc, '\n')
			path := filepath.Join(*metricsDir, figID+".json")
			if err := os.WriteFile(path, enc, 0o644); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "samfig: wrote %s (%d runs)\n", path, len(collected[figID].Entries))
		}
		// The memo instruments land in their own file, not the per-figure
		// dumps — those stay byte-identical with the cache on or off.
		if cache != nil {
			dump := struct {
				Schema   string          `json:"schema"`
				Counters memo.Counters   `json:"counters"`
				Stats    *stats.Snapshot `json:"stats"`
			}{memo.SchemaVersion, cache.Counters(), cache.StatsSnapshot()}
			enc, err := json.MarshalIndent(dump, "", "  ")
			if err != nil {
				fail(err)
			}
			enc = append(enc, '\n')
			path := filepath.Join(*metricsDir, "memo.json")
			if err := os.WriteFile(path, enc, 0o644); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "samfig: wrote %s\n", path)
		}
	}
	if cache != nil {
		fmt.Fprintf(os.Stderr, "samfig: memo: %v\n", cache.Counters())
	}
}

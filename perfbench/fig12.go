package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"sam/internal/cache"
	"sam/internal/core"
	"sam/internal/design"
	"sam/internal/imdb"
	"sam/internal/runner"
	"sam/internal/sim"
	"sam/internal/sql"
)

const (
	// fig12Setups is how many times set-up is timed; it takes well under a
	// millisecond, so many samples keep its median steady.
	fig12Setups = 101
	// fig12PassWall sets the measured pass count, one per fig12PassWall of
	// --seconds (bench.passes). A pass takes 10–12 s on a 2-vCPU host.
	fig12PassWall = 6 * time.Second
)

// fig12Kinds is the Fig. 12 grid's columns: the baseline plus every
// evaluated design.
func fig12Kinds() []design.Kind {
	return append([]design.Kind{design.Baseline}, design.AllEvaluated()...)
}

// fig12Pass is one cold regeneration of the full Fig. 12 grid, exactly as
// `samfig -exp fig12` runs it: nproc workers and a fresh in-memory memo, so
// every cell builds and simulates a fresh system.
type fig12Pass struct {
	cpu   float64 // process CPU seconds
	fig   *core.Figure
	reqs  uint64 // simulated memory requests over every cell
	clock *cellClock
	memo  *core.Memo
}

func (b *bench) fig12Pass(w core.Workload) (*fig12Pass, error) {
	p := &fig12Pass{clock: &cellClock{}, memo: core.NewMemo(core.MemoOptions{})}
	par := core.Par{
		Workers:  b.workers,
		Memo:     p.memo,
		Observer: p.clock,
		Metrics:  func(_, _, _ string, st sim.RunStats) { p.reqs += st.MemRequests },
	}
	cpu := cpuNow()
	fig, err := core.Fig12(context.Background(), w, par)
	p.cpu = (cpuNow() - cpu).Seconds()
	p.fig = fig
	return p, err
}

func runFig12(b *bench) error {
	w := b.workload()
	kinds := fig12Kinds()
	cells := len(core.Benchmark()) * len(kinds)

	// Set-up is the per-cell construction a pass repeats: one system per
	// grid column, tables loaded. Repeated so its median is steady.
	var setup []float64
	for i := 0; i < fig12Setups; i++ {
		t := time.Now()
		for _, k := range kinds {
			core.NewSystem(k, design.Options{}, w, false)
		}
		setup = append(setup, time.Since(t).Seconds())
	}

	// Pass 0 warms the process up (the first pass costs about a tenth more
	// CPU) and is checked but not measured. In the traced run pass 1 is the
	// untraced reference, and the profile covers the passes after it.
	measured := 1
	if b.traced {
		measured = 2
	}
	var (
		passes     []*fig12Pass
		reference  float64
		prof       *cpuProfile
		rtBase     rtStats
		firstTable string
	)
	for n := 0; n < measured+b.passes(fig12PassWall); n++ {
		if n == measured {
			if b.traced {
				var err error
				if prof, err = startProfile(); err != nil {
					return err
				}
				rtBase = readRT()
			}
		}
		p, err := b.fig12Pass(w)
		b.attempted += cells
		if err != nil {
			b.fail(cells, "fig12 pass %d: %v", n, err)
			continue
		}
		table := p.fig.Table().String()
		if n == 0 {
			firstTable = table
			b.checkDigest("fig12 table", sha([]byte(table)), fig12TableSHA, cells)
		} else if table != firstTable {
			b.fail(cells, "fig12 pass %d: table differs from pass 0", n)
		}
		switch {
		case n >= measured:
			passes = append(passes, p)
		case n == measured-1 && b.traced:
			reference = p.cpu
		}
	}
	if len(passes) == 0 {
		return fmt.Errorf("no pass succeeded")
	}

	if !b.traced {
		// Every pass simulates the same requests.
		var cpu []float64
		var byCell []map[string]float64
		for _, p := range passes {
			cpu = append(cpu, p.cpu)
			byCell = append(byCell, p.clock.cellCPUMS())
		}
		pass := median(cpu)
		b.setE2E(setup, pass, float64(passes[0].reqs)/pass/1e6, jobMedians(byCell), float64(cells)/pass)
		return nil
	}

	shares, err := prof.stop()
	if err != nil {
		return err
	}
	b.startLedger()
	b.setRT(rtBase, len(passes))
	b.setShares(shares)
	var cpu, waits, busy, straggle []float64
	for _, p := range passes {
		cpu = append(cpu, p.cpu)
		wt, bz, st := p.clock.poolStats(b.workers)
		waits = append(waits, wt...)
		busy = append(busy, bz)
		straggle = append(straggle, st)
	}
	b.setL("runner.queue_wait_ms_p50", median(waits))
	b.setL("runner.busy_frac", median(busy))
	b.setL("runner.straggler_s", median(straggle))
	b.setL("trace.overhead_frac", median(cpu)/reference-1)

	last := passes[len(passes)-1]
	mc := last.memo.Counters()
	b.setL("memo.hit_ratio", mc.HitRate())
	b.setL("memo.lookups", float64(mc.Lookups()))
	b.setL("memo.inflight_dedup", float64(mc.InflightDedup))
	for _, k := range design.AllEvaluated() {
		q, _ := last.fig.Value("Gmean-Q", k.String())
		qs, _ := last.fig.Value("Gmean-Qs", k.String())
		b.setL("model.gmean_q."+k.String(), q)
		b.setL("model.gmean_qs."+k.String(), qs)
		if ref, ok := paperGmeanQ[k.String()]; ok {
			b.setL("model.paper_err."+k.String(), math.Abs(q-ref)/ref)
		}
	}
	if err := b.commonLedger(); err != nil {
		return err
	}
	return b.fig12Ledger(w, last.fig)
}

// ledgerCell is one grid cell run through the layers' own entry points.
type ledgerCell struct {
	q       core.BenchQuery
	k       design.Kind
	build   time.Duration
	run     time.Duration
	res     *sim.QueryResult
	before  []cache.Stats
	after   []cache.Stats
	cellErr error
}

// fig12Ledger re-runs every Fig. 12 cell outside core: design.New,
// sim.NewSystem and AddTable (timed as sim.build_us), then core.RunOn
// (timed as sim.run_ms), reading each hierarchy's counters. The speedups
// must equal the figure's cell for cell.
func (b *bench) fig12Ledger(w core.Workload, fig *core.Figure) error {
	kinds := fig12Kinds()
	qs := core.Benchmark()
	type item struct {
		q core.BenchQuery
		k design.Kind
	}
	var items []item
	for _, q := range qs {
		for _, k := range kinds {
			items = append(items, item{q, k})
		}
	}
	cellsOut, err := runner.Map(context.Background(), items, runner.Options{Workers: b.workers},
		func(_ context.Context, _ int, it item) (*ledgerCell, error) {
			c := &ledgerCell{q: it.q, k: it.k}
			colStore := it.k == design.Ideal && it.q.Class == core.ClassQ
			t := time.Now()
			s := sim.NewSystem(design.New(it.k, design.Options{}))
			s.AddTable(imdb.NewTable(imdb.Ta(w.TaRecords), w.Seed), colStore)
			s.AddTable(imdb.NewTable(imdb.Tb(w.TbRecords), w.Seed+1), colStore)
			c.build = time.Since(t)
			c.before = cacheStats(s)
			t = time.Now()
			c.res, c.cellErr = core.RunOn(s, it.q)
			c.run = time.Since(t)
			c.after = cacheStats(s)
			return c, nil
		})
	if err != nil {
		return err
	}
	b.attempted += len(items)
	counts := &simCounts{}
	var buildUS, runMS []float64
	var readNS, readReqs, writeNS, writeReqs float64
	for _, c := range cellsOut {
		if c.cellErr != nil {
			b.fail(1, "ledger %s on %v: %v", c.q.Name, c.k, c.cellErr)
			continue
		}
		buildUS = append(buildUS, float64(c.build)/1e3)
		runMS = append(runMS, ms(c.run))
		if c.q.IsWrite {
			writeNS += float64(c.run)
			writeReqs += float64(c.res.Stats.MemRequests)
		} else {
			readNS += float64(c.run)
			readReqs += float64(c.res.Stats.MemRequests)
		}
		counts.addCaches(c.before, c.after)
		if err := counts.addRun(c.res.Stats); err != nil {
			return err
		}
	}
	// Cross-check every speedup against the figure.
	for qi, q := range qs {
		base := cellsOut[qi*len(kinds)]
		for ki, k := range kinds[1:] {
			c := cellsOut[qi*len(kinds)+ki+1]
			if c.cellErr != nil || base.cellErr != nil {
				continue
			}
			want, _ := fig.Value(q.Name, k.String())
			if got := sim.Speedup(base.res.Stats, c.res.Stats); got != want {
				b.fail(1, "ledger %s on %v: speedup %v, figure says %v", q.Name, k, got, want)
			}
		}
	}
	b.setCounts(counts)
	b.setL("sim.build_us", median(buildUS))
	b.setL("sim.run_ms_p50", median(runMS))
	b.setL("sim.run_ms_p99", tailPct(runMS, 0.99))
	if readReqs > 0 {
		b.setL("sim.host_ns_per_req.read", readNS/readReqs)
	}
	if writeReqs > 0 {
		b.setL("sim.host_ns_per_req.write", writeNS/writeReqs)
	}
	return nil
}

// commonLedger measures the layers every workload calls the same way:
// sql planning of the Table 3 queries and one memo hit.
func (b *bench) commonLedger() error {
	var texts []string
	var params []sql.Params
	for _, q := range core.Benchmark() {
		texts = append(texts, q.SQL)
		params = append(params, q.Params)
	}
	us, err := planUS(texts, params)
	if err != nil {
		return err
	}
	b.setL("sql.plan_us", us)
	hit, err := memoHitUS()
	if err != nil {
		return err
	}
	b.setL("memo.hit_us", hit)
	return nil
}

// memoHitUS is the median µs of a core.Memo.RunOne served from memory.
func memoHitUS() (float64, error) {
	m := core.NewMemo(core.MemoOptions{})
	q, _ := core.BenchQueryByName("Qs2")
	w := core.SmallWorkload()
	if _, err := m.RunOne(design.Baseline, design.Options{}, w, q); err != nil {
		return 0, err
	}
	var us []float64
	for i := 0; i < 101; i++ {
		t := time.Now()
		if _, err := m.RunOne(design.Baseline, design.Options{}, w, q); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t))/1e3)
	}
	return median(us), nil
}

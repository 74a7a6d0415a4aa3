// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 6) at bench scale. Each benchmark reports the relevant headline
// number as a custom metric (speedup, gmean, overhead) in addition to
// wall-clock cost, so `go test -bench` doubles as a results harness.
package sam_test

import (
	"context"
	"fmt"
	"testing"

	"sam/internal/core"
	"sam/internal/design"
	"sam/internal/dram"
	"sam/internal/etrace"
	"sam/internal/imdb"
	"sam/internal/sim"
	"sam/internal/stats"
)

// benchWorkload keeps bench iterations in the tens of milliseconds.
func benchWorkload() core.Workload {
	return core.Workload{TaRecords: 1 << 10, TbRecords: 8 << 10, Seed: 0xBE7C4}
}

// BenchmarkTable1Matrix regenerates the qualitative comparison (Table 1).
func BenchmarkTable1Matrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if core.Table1().String() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2Parameters regenerates the system parameter dump (Table 2).
func BenchmarkTable2Parameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if core.Table2().String() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable3Planning parses and plans the whole benchmark query set
// (Table 3).
func BenchmarkTable3Planning(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchQuerySpeedup runs one benchmark query on one design and reports the
// speedup over the row-store baseline.
func benchQuerySpeedup(b *testing.B, kind design.Kind, queryName string) {
	var q core.BenchQuery
	for _, c := range core.Benchmark() {
		if c.Name == queryName {
			q = c
		}
	}
	w := benchWorkload()
	var speedup float64
	for i := 0; i < b.N; i++ {
		rs, err := core.RunComparison(context.Background(), []design.Kind{kind}, design.Options{}, w, q, core.Par{})
		if err != nil {
			b.Fatal(err)
		}
		speedup = rs[0].Speedup
	}
	b.ReportMetric(speedup, "speedup")
}

// BenchmarkFig12 covers the headline per-query speedups: a representative
// column-preferring scan (Q3), update (Q11), and row-preferring scan (Qs2)
// for each evaluated design.
func BenchmarkFig12(b *testing.B) {
	for _, kind := range design.AllEvaluated() {
		for _, qn := range []string{"Q3", "Q11", "Qs2"} {
			b.Run(fmt.Sprintf("%s/%s", kind, qn), func(b *testing.B) {
				benchQuerySpeedup(b, kind, qn)
			})
		}
	}
}

// BenchmarkFig12GmeanQ reproduces the Q-query geometric means per design.
func BenchmarkFig12GmeanQ(b *testing.B) {
	w := benchWorkload()
	for _, kind := range []design.Kind{design.SAMEn, design.SAMIO, design.SAMSub, design.GSDRAMecc, design.RCNVMWd} {
		b.Run(kind.String(), func(b *testing.B) {
			var gmean float64
			for i := 0; i < b.N; i++ {
				var sp []float64
				for _, q := range core.Benchmark() {
					if q.Class != core.ClassQ {
						continue
					}
					rs, err := core.RunComparison(context.Background(), []design.Kind{kind}, design.Options{}, w, q, core.Par{})
					if err != nil {
						b.Fatal(err)
					}
					sp = append(sp, rs[0].Speedup)
				}
				gmean = stats.Gmean(sp)
			}
			b.ReportMetric(gmean, "gmean-speedup")
		})
	}
}

// BenchmarkFig12Grid regenerates the whole Fig. 12 grid at SmallWorkload,
// as `samfig -exp fig12 -small` does, with a fresh in-memory memo per
// iteration, so every cell simulates and designs that share a query's
// front end share one simulation of it (BenchmarkFig12GmeanQ's per-design
// comparisons never do).
func BenchmarkFig12Grid(b *testing.B) {
	b.ReportAllocs()
	var gmean float64
	for i := 0; i < b.N; i++ {
		fig, err := core.Fig12(context.Background(), core.SmallWorkload(), core.Par{Memo: core.NewMemo(core.MemoOptions{})})
		if err != nil {
			b.Fatal(err)
		}
		gmean, _ = fig.Value("Gmean-Q", design.SAMEn.String())
	}
	b.ReportMetric(gmean, "SAM-en-gmean-Q")
}

// BenchmarkFig13Power reproduces the power/energy study for the read-Q
// category on the designs Fig. 13 contrasts hardest: baseline vs SAM-IO vs
// SAM-en.
func BenchmarkFig13Power(b *testing.B) {
	w := benchWorkload()
	q := core.Benchmark()[2] // Q3
	for _, kind := range []design.Kind{design.Baseline, design.SAMIO, design.SAMEn, design.RCNVMWd} {
		b.Run(kind.String(), func(b *testing.B) {
			var mw, eff float64
			base, err := core.RunSpec{Design: design.Baseline, Workload: w, Query: q}.Run()
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				r, err := core.RunSpec{Design: kind, Workload: w, Query: q}.Run()
				if err != nil {
					b.Fatal(err)
				}
				mw = r.Stats.PowerMW.Total()
				eff = base.Stats.Energy.Total() / r.Stats.Energy.Total()
			}
			b.ReportMetric(mw, "mW")
			b.ReportMetric(eff, "energy-eff")
		})
	}
}

// BenchmarkFig14aSubstrate reproduces the substrate swap for SAM-en and
// RC-NVM-wd on both technologies (Q3 as the probe query).
func BenchmarkFig14aSubstrate(b *testing.B) {
	w := benchWorkload()
	q := core.Benchmark()[2]
	for _, kind := range []design.Kind{design.SAMEn, design.RCNVMWd} {
		for _, sub := range []design.Substrate{design.DRAM, design.NVM} {
			b.Run(fmt.Sprintf("%s/%s", kind, sub), func(b *testing.B) {
				var speedup float64
				base, err := core.RunSpec{Design: design.Baseline, Workload: w, Query: q}.Run()
				if err != nil {
					b.Fatal(err)
				}
				opts := design.Options{Substrate: sub, SubstrateSet: true}
				for i := 0; i < b.N; i++ {
					r, err := core.RunSpec{Design: kind, Options: opts, Workload: w, Query: q}.Run()
					if err != nil {
						b.Fatal(err)
					}
					speedup = sim.Speedup(base.Stats, r.Stats)
				}
				b.ReportMetric(speedup, "speedup")
			})
		}
	}
}

// BenchmarkFig14bGranularity reproduces the 16/8/4-bit granularity sweep
// for SAM-en.
func BenchmarkFig14bGranularity(b *testing.B) {
	w := benchWorkload()
	q := core.Benchmark()[2]
	for _, g := range []design.Granularity{design.Gran16, design.Gran8, design.Gran4} {
		b.Run(fmt.Sprintf("%d-bit", g.BitsPerChip), func(b *testing.B) {
			var speedup float64
			base, err := core.RunSpec{Design: design.Baseline, Workload: w, Query: q}.Run()
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				r, err := core.RunSpec{Design: design.SAMEn, Options: design.Options{Gran: g}, Workload: w, Query: q}.Run()
				if err != nil {
					b.Fatal(err)
				}
				speedup = sim.Speedup(base.Stats, r.Stats)
			}
			b.ReportMetric(speedup, "speedup")
		})
	}
}

// BenchmarkFig14cArea regenerates the analytical area model.
func BenchmarkFig14cArea(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		fig := core.Fig14c()
		var ok bool
		v, ok = fig.Value("area", "SAM-sub")
		if !ok {
			b.Fatal("missing cell")
		}
	}
	b.ReportMetric(v, "sam-sub-area")
}

// BenchmarkFig15ArithSelectivity reproduces one selectivity sweep point per
// end of the axis (panels a-c).
func BenchmarkFig15ArithSelectivity(b *testing.B) {
	for _, sel := range []float64{0.10, 1.0} {
		b.Run(fmt.Sprintf("sel%.0f%%", sel*100), func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				vals, err := core.RunSweepPoint(context.Background(), core.SweepPoint{Query: core.Arithmetic, Selectivity: sel, Projected: 8}, 512, core.Par{})
				if err != nil {
					b.Fatal(err)
				}
				v = vals["SAM-en"]
			}
			b.ReportMetric(v, "sam-en-speedup")
		})
	}
}

// BenchmarkFig15ArithProjectivity reproduces the projectivity axis (panels
// d-f) at its ends.
func BenchmarkFig15ArithProjectivity(b *testing.B) {
	for _, proj := range []int{2, 64} {
		b.Run(fmt.Sprintf("proj%d", proj), func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				vals, err := core.RunSweepPoint(context.Background(), core.SweepPoint{Query: core.Arithmetic, Selectivity: 0.5, Projected: proj}, 512, core.Par{})
				if err != nil {
					b.Fatal(err)
				}
				v = vals["SAM-en"]
			}
			b.ReportMetric(v, "sam-en-speedup")
		})
	}
}

// BenchmarkFig15Aggregate reproduces the aggregate-query panels (g, h).
func BenchmarkFig15Aggregate(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		vals, err := core.RunSweepPoint(context.Background(), core.SweepPoint{Query: core.Aggregate, Selectivity: 0.5, Projected: 8}, 512, core.Par{})
		if err != nil {
			b.Fatal(err)
		}
		v = vals["RC-NVM-wd"]
	}
	b.ReportMetric(v, "rc-nvm-wd-speedup")
}

// BenchmarkFig15RecordSize reproduces panel (i) at both ends of the record
// size axis.
func BenchmarkFig15RecordSize(b *testing.B) {
	for _, rb := range []int{64, 1024} {
		b.Run(fmt.Sprintf("%dB", rb), func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				fields := rb / imdb.FieldBytes
				vals, err := core.RunSweepPoint(context.Background(), core.SweepPoint{Query: core.Arithmetic, Selectivity: 1, Projected: fields, RecordBytes: rb}, 512, core.Par{})
				if err != nil {
					b.Fatal(err)
				}
				v = vals["RC-NVM-wd"]
			}
			b.ReportMetric(v, "rc-nvm-wd-speedup")
		})
	}
}

// BenchmarkAblationModeSwitch quantifies the tRTR mode-switch cost the
// paper argues is negligible (Section 5.3): SAM-en with the default 2-cycle
// switch vs an 8-cycle switch.
func BenchmarkAblationModeSwitch(b *testing.B) {
	w := benchWorkload()
	q := core.Benchmark()[0] // Q1: three different lanes -> some switching
	for _, trtr := range []int{2, 8} {
		b.Run(fmt.Sprintf("tRTR%d", trtr), func(b *testing.B) {
			var speedup float64
			base, err := core.RunSpec{Design: design.Baseline, Workload: w, Query: q}.Run()
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				d := design.New(design.SAMEn, design.Options{})
				d.Mem.Timing.TRTR = trtr
				s := sim.NewSystem(d)
				s.AddTable(imdb.NewTable(imdb.Ta(w.TaRecords), w.Seed), false)
				s.AddTable(imdb.NewTable(imdb.Tb(w.TbRecords), w.Seed+1), false)
				r, err := s.RunQuery(q.SQL, q.Params)
				if err != nil {
					b.Fatal(err)
				}
				speedup = sim.Speedup(base.Stats, r.Stats)
			}
			b.ReportMetric(speedup, "speedup")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// memory requests per wall-second for a Q3 scan on SAM-en.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w := benchWorkload()
	q := core.Benchmark()[2]
	b.ReportAllocs()
	var reqs uint64
	for i := 0; i < b.N; i++ {
		r, err := core.RunSpec{Design: design.SAMEn, Workload: w, Query: q}.Run()
		if err != nil {
			b.Fatal(err)
		}
		reqs = r.Stats.MemRequests
	}
	b.ReportMetric(float64(reqs), "sim-requests")
}

// BenchmarkSimulatorThroughputFaulted is BenchmarkSimulatorThroughput with
// the fault plane live: every data burst pays chipkill encode, transient
// injection, and decode. The ratio to the fault-free ns/op is the cost of
// fault injection — the zero-alloc codec work keeps it within ~2x.
func BenchmarkSimulatorThroughputFaulted(b *testing.B) {
	w := benchWorkload()
	q := core.Benchmark()[2]
	fm := &sim.FaultModel{Seed: 0xF00D, Rate: 0.01}
	b.ReportAllocs()
	var reqs uint64
	for i := 0; i < b.N; i++ {
		r, err := core.RunSpec{Design: design.SAMEn, Workload: w, Query: q, Faults: fm}.Run()
		if err != nil {
			b.Fatal(err)
		}
		reqs = r.Stats.MemRequests
	}
	b.ReportMetric(float64(reqs), "sim-requests")
}

// BenchmarkExtensionDDR5 runs SAM-en's headline query on the DDR5-4800
// extension config (beyond the paper's evaluation).
func BenchmarkExtensionDDR5(b *testing.B) {
	w := benchWorkload()
	q := core.Benchmark()[2]
	var speedup float64
	for i := 0; i < b.N; i++ {
		mkSys := func(kind design.Kind) *sim.System {
			d := design.New(kind, design.Options{})
			d.Mem.Timing = dram.DDR5_4800().Timing
			d.Mem.Geometry = dram.DDR5_4800().Geometry
			d.Mem.ClockMHz = dram.DDR5_4800().ClockMHz
			s := sim.NewSystem(d)
			s.AddTable(imdb.NewTable(imdb.Ta(w.TaRecords), w.Seed), false)
			s.AddTable(imdb.NewTable(imdb.Tb(w.TbRecords), w.Seed+1), false)
			return s
		}
		base, err := mkSys(design.Baseline).RunQuery(q.SQL, q.Params)
		if err != nil {
			b.Fatal(err)
		}
		r, err := mkSys(design.SAMEn).RunQuery(q.SQL, q.Params)
		if err != nil {
			b.Fatal(err)
		}
		speedup = sim.Speedup(base.Stats, r.Stats)
	}
	b.ReportMetric(speedup, "speedup")
}

// BenchmarkExtensionMultiChannel scales the channel count (beyond the
// paper's single-channel setup) on the baseline scan — the orthodox way to
// buy strided bandwidth with hardware instead of SAM.
func BenchmarkExtensionMultiChannel(b *testing.B) {
	w := benchWorkload()
	q := core.Benchmark()[2]
	for _, channels := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("ch%d", channels), func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				d := design.New(design.Baseline, design.Options{})
				d.Mem.Geometry.Channels = channels
				s := sim.NewSystem(d)
				s.AddTable(imdb.NewTable(imdb.Ta(w.TaRecords), w.Seed), false)
				s.AddTable(imdb.NewTable(imdb.Tb(w.TbRecords), w.Seed+1), false)
				r, err := s.RunQuery(q.SQL, q.Params)
				if err != nil {
					b.Fatal(err)
				}
				cycles = float64(r.Stats.Cycles)
			}
			b.ReportMetric(cycles, "cycles")
		})
	}
}

// BenchmarkWarmQueryMix measures one query on a warm system: each op runs
// one pass of a mixed read/update query set on two long-lived 4-channel
// systems (baseline, SAM-en) at SmallWorkload with transient faults at
// 1e-3, after an untimed warm-up pass. What it times grows with what a
// pass touches, not with the systems' history: fault-free bursts, clean
// cache sets and never-updated fields cost next to nothing.
func BenchmarkWarmQueryMix(b *testing.B) {
	w := core.SmallWorkload()
	var mix []core.BenchQuery
	for _, name := range []string{"Q1", "Q3", "Q4", "Q9", "Q11", "Q12", "Qs2", "Qs4"} {
		q, ok := core.BenchQueryByName(name)
		if !ok {
			b.Fatalf("unknown query %s", name)
		}
		mix = append(mix, q)
	}
	var systems []*sim.System
	for _, k := range []design.Kind{design.Baseline, design.SAMEn} {
		d := design.New(k, design.Options{})
		d.Mem.Geometry.Channels = 4
		s := sim.NewSystem(d)
		s.AddTable(imdb.NewTable(imdb.Ta(w.TaRecords), w.Seed), false)
		s.AddTable(imdb.NewTable(imdb.Tb(w.TbRecords), w.Seed+1), false)
		s.Faults = &sim.FaultModel{Seed: w.Seed, Rate: 1e-3, MaxRetries: 3}
		systems = append(systems, s)
	}
	var reqs uint64
	pass := func() {
		reqs = 0
		for _, s := range systems {
			for _, q := range mix {
				r, err := core.RunOn(s, q)
				if err != nil {
					b.Fatal(err)
				}
				reqs += r.Stats.MemRequests
			}
		}
	}
	pass()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.ReportMetric(float64(reqs), "sim-requests")
}

// BenchmarkSimulatorThroughputSampled is BenchmarkSimulatorThroughput with
// the event ring and windowed sampler attached: every request lifecycle
// and DRAM command is traced and every window boundary snapshots the
// controller. The allocs/op gate in scripts/alloc_budget.txt holds the
// sampled path to per-run construction costs — recordSample must not
// allocate per sample (it reuses the system's scratch DeviceStats).
func BenchmarkSimulatorThroughputSampled(b *testing.B) {
	w := benchWorkload()
	q := core.Benchmark()[2]
	b.ReportAllocs()
	var samples int
	for i := 0; i < b.N; i++ {
		d := design.New(design.SAMEn, design.Options{})
		s := sim.NewSystem(d)
		sp := etrace.NewSampler(256)
		s.AttachEventTrace(etrace.NewBuffer(0), sp)
		s.AddTable(imdb.NewTable(imdb.Ta(w.TaRecords), w.Seed), false)
		s.AddTable(imdb.NewTable(imdb.Tb(w.TbRecords), w.Seed+1), false)
		if _, err := s.RunQuery(q.SQL, q.Params); err != nil {
			b.Fatal(err)
		}
		samples = len(sp.Samples)
	}
	b.ReportMetric(float64(samples), "samples")
}

// BenchmarkFig15AggregateProjectivity covers panel (h): the aggregate query
// at full selectivity across the projectivity axis ends.
func BenchmarkFig15AggregateProjectivity(b *testing.B) {
	for _, proj := range []int{4, 64} {
		b.Run(fmt.Sprintf("proj%d", proj), func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				vals, err := core.RunSweepPoint(context.Background(), core.SweepPoint{Query: core.Aggregate, Selectivity: 1.0, Projected: proj}, 512, core.Par{})
				if err != nil {
					b.Fatal(err)
				}
				v = vals["SAM-en"]
			}
			b.ReportMetric(v, "sam-en-speedup")
		})
	}
}

// BenchmarkSweepParallelism contrasts the same Fig. 15 selectivity sweep
// run serially (-workers=1) and on the full worker pool (-workers=0 =
// GOMAXPROCS): the ratio of the two wall-clock times is the speedup the
// runner subsystem buys on an embarrassingly parallel sweep grid.
func BenchmarkSweepParallelism(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			par := core.Par{Workers: bc.workers}
			for i := 0; i < b.N; i++ {
				fig, err := core.Fig15SelectivitySweep(context.Background(), core.Arithmetic, 8, 512, par)
				if err != nil {
					b.Fatal(err)
				}
				if len(fig.Cells) == 0 {
					b.Fatal("empty sweep")
				}
			}
		})
	}
}

// BenchmarkComparisonParallelism is the same contrast on the Fig. 12 cell
// grid: one query across every evaluated design plus the baseline.
func BenchmarkComparisonParallelism(b *testing.B) {
	w := benchWorkload()
	q := core.Benchmark()[2] // Q3
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			par := core.Par{Workers: bc.workers}
			for i := 0; i < b.N; i++ {
				rs, err := core.RunComparison(context.Background(), design.AllEvaluated(), design.Options{}, w, q, par)
				if err != nil {
					b.Fatal(err)
				}
				if len(rs) == 0 {
					b.Fatal("no results")
				}
			}
		})
	}
}

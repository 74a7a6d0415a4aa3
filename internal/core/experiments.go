package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"sam/internal/area"
	"sam/internal/design"
	"sam/internal/imdb"
	"sam/internal/runner"
	"sam/internal/sim"
	"sam/internal/sql"
	"sam/internal/stats"
)

// This file regenerates every table and figure of the paper's evaluation
// (Section 6). Each Fig* function returns both the rendered table and the
// raw series so tests and benches can assert on shapes.
//
// Every driver fans its grid of independent (query, design, sweep-point)
// simulations out over the bounded worker pool in internal/runner: each
// simulation owns a fresh sim.System (goroutine-confined for the whole
// run), so the grid is embarrassingly parallel, and results are
// aggregated in a fixed order so the emitted tables are byte-identical
// for any Par.Workers value.

// Cell is one (x, design) measurement of a figure.
type Cell struct {
	X      string
	Design string
	Value  float64
}

// Figure is a reproduced artifact: rows = x axis, columns = designs.
type Figure struct {
	ID    string
	Cells []Cell
}

// Value looks up one cell.
func (f *Figure) Value(x, designName string) (float64, bool) {
	for _, c := range f.Cells {
		if c.X == x && c.Design == designName {
			return c.Value, true
		}
	}
	return 0, false
}

// Table renders the figure as an aligned text table.
func (f *Figure) Table() *stats.Table {
	var xs []string
	var designs []string
	seenX := map[string]bool{}
	seenD := map[string]bool{}
	for _, c := range f.Cells {
		if !seenX[c.X] {
			seenX[c.X] = true
			xs = append(xs, c.X)
		}
		if !seenD[c.Design] {
			seenD[c.Design] = true
			designs = append(designs, c.Design)
		}
	}
	tb := stats.NewTable(append([]string{f.ID}, designs...)...)
	for _, x := range xs {
		row := []string{x}
		for _, d := range designs {
			if v, ok := f.Value(x, d); ok {
				row = append(row, fmt.Sprintf("%.2f", v))
			} else {
				row = append(row, "-")
			}
		}
		tb.AddRow(row...)
	}
	return tb
}

// Fig12 reproduces the headline speedup comparison: every Table 3 query on
// every design, normalized to the row-store baseline, plus per-class
// geometric means. The whole (query x design) grid — baseline runs
// included — is one flat parallel sweep, in which the designs that share a
// query's front end simulate it once (runShared).
func Fig12(ctx context.Context, w Workload, par Par) (*Figure, error) {
	kinds := design.AllEvaluated()
	queries := Benchmark()
	runKinds := append([]design.Kind{design.Baseline}, kinds...)
	grid, err := runShared(ctx, queries, runKinds, w, par)
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: "fig12"}
	gmQ := map[string][]float64{}
	gmQs := map[string][]float64{}
	var errs []error
	for i, q := range queries {
		base := grid[i][0]
		if par.Metrics != nil {
			par.Metrics("fig12", q.Name, design.Baseline.String(), base.Stats)
		}
		for j, k := range kinds {
			r := grid[i][j+1]
			if err := checkFunctional(q, k, base, r); err != nil {
				errs = append(errs, err)
				continue
			}
			if par.Metrics != nil {
				par.Metrics("fig12", q.Name, k.String(), r.Stats)
			}
			sp := sim.Speedup(base.Stats, r.Stats)
			fig.Cells = append(fig.Cells, Cell{X: q.Name, Design: k.String(), Value: sp})
			if q.Class == ClassQ {
				gmQ[k.String()] = append(gmQ[k.String()], sp)
			} else {
				gmQs[k.String()] = append(gmQs[k.String()], sp)
			}
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	for _, k := range kinds {
		fig.Cells = append(fig.Cells,
			Cell{X: "Gmean-Q", Design: k.String(), Value: stats.Gmean(gmQ[k.String()])},
			Cell{X: "Gmean-Qs", Design: k.String(), Value: stats.Gmean(gmQs[k.String()])})
	}
	return fig, nil
}

// PowerCategory groups queries as Fig. 13 does.
type PowerCategory struct {
	Name    string
	Queries []string
}

// Fig13Categories returns the four categories of Fig. 13.
func Fig13Categories() []PowerCategory {
	return []PowerCategory{
		{Name: "Read(Q1-Q10)", Queries: []string{"Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "Q10"}},
		{Name: "Write(Q11,Q12)", Queries: []string{"Q11", "Q12"}},
		{Name: "Read(Qs1-Qs4)", Queries: []string{"Qs1", "Qs2", "Qs3", "Qs4"}},
		{Name: "Write(Qs5,Qs6)", Queries: []string{"Qs5", "Qs6"}},
	}
}

// Fig13Row is one design's power and energy-efficiency numbers for a
// category.
type Fig13Row struct {
	Category   string
	Design     string
	Background float64 // mW
	RdWr       float64 // mW
	ActPre     float64 // mW
	TotalMW    float64
	// EnergyEff is work-per-energy normalized to the row-store baseline.
	EnergyEff float64
}

// Fig13 reproduces the power/energy-efficiency study. All (design, query)
// runs execute as one parallel grid; the category averages are then
// aggregated sequentially in the paper's order.
func Fig13(ctx context.Context, w Workload, par Par) ([]Fig13Row, error) {
	queries := Benchmark()
	kinds := append([]design.Kind{design.Baseline}, design.AllEvaluated()...)
	grid, err := runner.Grid(ctx, kinds, queries, par.opts(),
		func(ctx context.Context, _, _ int, kind design.Kind, q BenchQuery) (*sim.QueryResult, error) {
			r, _, err := par.Memo.Run(ctx, RunSpec{Design: kind, Workload: w, Query: q})
			if err != nil {
				return nil, fmt.Errorf("fig13 %s %v: %w", q.Name, kind, err)
			}
			return r, nil
		})
	if err != nil {
		return nil, err
	}
	res := map[string]map[string]*sim.QueryResult{} // design -> query -> result
	for i, kind := range kinds {
		byQuery := make(map[string]*sim.QueryResult, len(queries))
		for j, q := range queries {
			byQuery[q.Name] = grid[i][j]
		}
		res[kind.String()] = byQuery
	}
	baseRes := res[design.Baseline.String()]
	var rows []Fig13Row
	for _, cat := range Fig13Categories() {
		for _, kind := range kinds {
			var bg, rw, act, total, energy, baseE float64
			for _, name := range cat.Queries {
				r := res[kind.String()][name]
				p := r.Stats.PowerMW
				bg += p.Background
				rw += p.RdWr
				act += p.ActPre + p.Refresh
				total += p.Background + p.RdWr + p.ActPre + p.Refresh
				energy += r.Stats.Energy.Total()
				baseE += baseRes[name].Stats.Energy.Total()
			}
			n := float64(len(cat.Queries))
			row := Fig13Row{
				Category:   cat.Name,
				Design:     kind.String(),
				Background: bg / n,
				RdWr:       rw / n,
				ActPre:     act / n,
				TotalMW:    total / n,
			}
			if energy > 0 && baseE > 0 {
				row.EnergyEff = baseE / energy
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// figJob is one (query, design, options) simulation of a Fig. 14 sweep.
type figJob struct {
	q    BenchQuery
	kind design.Kind
	opts design.Options
}

// runJobs executes a flat job list on the worker pool.
func runJobs(ctx context.Context, jobs []figJob, w Workload, par Par) ([]*sim.QueryResult, error) {
	return runner.Map(ctx, jobs, par.opts(),
		func(ctx context.Context, _ int, j figJob) (*sim.QueryResult, error) {
			r, _, err := par.Memo.Run(ctx, RunSpec{Design: j.kind, Options: j.opts, Workload: w, Query: j.q})
			if err != nil {
				return nil, fmt.Errorf("%s on %v: %w", j.q.Name, j.kind, err)
			}
			return r, nil
		})
}

// Fig14a reproduces the substrate swap: RC-NVM and SAM designs on both NVM
// and DRAM, all-query geometric mean speedup. Baseline runs (normalization
// is always against the plain DRAM baseline, like the paper) execute once
// per query and share the same pool as the design runs.
func Fig14a(ctx context.Context, w Workload, par Par) (*Figure, error) {
	kinds := []design.Kind{design.RCNVMWd, design.SAMSub, design.SAMIO, design.SAMEn}
	subs := []design.Substrate{design.NVM, design.DRAM}
	queries := Benchmark()
	var jobs []figJob
	for _, q := range queries {
		jobs = append(jobs, figJob{q: q, kind: design.Baseline})
	}
	for _, sub := range subs {
		opts := design.Options{Substrate: sub, SubstrateSet: true}
		for _, q := range queries {
			for _, k := range kinds {
				jobs = append(jobs, figJob{q: q, kind: k, opts: opts})
			}
		}
	}
	res, err := runJobs(ctx, jobs, w, par)
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: "fig14a"}
	nq, nk := len(queries), len(kinds)
	for si, sub := range subs {
		gm := map[string][]float64{}
		for qi := range queries {
			base := res[qi]
			for ki, k := range kinds {
				r := res[nq+si*nq*nk+qi*nk+ki]
				gm[k.String()] = append(gm[k.String()], sim.Speedup(base.Stats, r.Stats))
			}
		}
		for _, k := range kinds {
			fig.Cells = append(fig.Cells, Cell{X: sub.String(), Design: k.String(), Value: stats.Gmean(gm[k.String()])})
		}
	}
	return fig, nil
}

// Fig14b reproduces the strided-granularity sweep (16/8/4 bits per chip)
// for RC-NVM-wd, GS-DRAM-ecc, and SAM-en: Q-query geometric mean.
func Fig14b(ctx context.Context, w Workload, par Par) (*Figure, error) {
	kinds := []design.Kind{design.RCNVMWd, design.GSDRAMecc, design.SAMEn}
	grans := []design.Granularity{design.Gran16, design.Gran8, design.Gran4}
	var queries []BenchQuery
	for _, q := range Benchmark() {
		if q.Class == ClassQ {
			queries = append(queries, q)
		}
	}
	var jobs []figJob
	for _, q := range queries {
		jobs = append(jobs, figJob{q: q, kind: design.Baseline})
	}
	for _, g := range grans {
		for _, q := range queries {
			for _, k := range kinds {
				jobs = append(jobs, figJob{q: q, kind: k, opts: design.Options{Gran: g}})
			}
		}
	}
	res, err := runJobs(ctx, jobs, w, par)
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: "fig14b"}
	nq, nk := len(queries), len(kinds)
	for gi, g := range grans {
		gm := map[string][]float64{}
		for qi := range queries {
			base := res[qi]
			for ki, k := range kinds {
				r := res[nq+gi*nq*nk+qi*nk+ki]
				gm[k.String()] = append(gm[k.String()], sim.Speedup(base.Stats, r.Stats))
			}
		}
		label := fmt.Sprintf("%d-bit", g.BitsPerChip)
		for _, k := range kinds {
			fig.Cells = append(fig.Cells, Cell{X: label, Design: k.String(), Value: stats.Gmean(gm[k.String()])})
		}
	}
	return fig, nil
}

// Fig14c reproduces the area/storage overhead comparison.
func Fig14c() *Figure {
	fig := &Figure{ID: "fig14c"}
	for _, o := range area.All() {
		fig.Cells = append(fig.Cells,
			Cell{X: "area", Design: o.Design, Value: o.Area()},
			Cell{X: "storage", Design: o.Design, Value: o.Storage})
	}
	return fig
}

// SweepQueryKind selects the Fig. 15 query template.
type SweepQueryKind int

// Sweep templates.
const (
	Arithmetic SweepQueryKind = iota // SELECT fi + fj + ... FROM Ta WHERE f0 < x
	Aggregate                        // SELECT AVG(fi), ... FROM Ta WHERE f0 < x
)

// SweepPoint configures one Fig. 15 measurement.
type SweepPoint struct {
	Query       SweepQueryKind
	Selectivity float64 // fraction of records selected
	Projected   int     // number of fields projected
	RecordBytes int     // record size (fields * 8); 0 = Ta default (1KB)
	Records     int     // table size; 0 = workload default
}

// sweepSQL builds the query text for a point, choosing projected fields in
// the paper's "random manner" (deterministic seed).
func sweepSQL(p SweepPoint, tableFields int) string {
	var fields []int
	if p.Projected >= tableFields {
		// Full projectivity: every field, including the predicate column.
		for f := 0; f < tableFields; f++ {
			fields = append(fields, f)
		}
	} else {
		rng := rand.New(rand.NewSource(int64(p.Projected)*131 + 7))
		seen := map[int]bool{0: true} // f0 is the predicate column
		for len(fields) < p.Projected && len(seen) <= tableFields {
			f := 1 + rng.Intn(tableFields-1)
			if !seen[f] {
				seen[f] = true
				fields = append(fields, f)
			}
		}
	}
	var items []string
	switch p.Query {
	case Arithmetic:
		parts := make([]string, len(fields))
		for i, f := range fields {
			parts[i] = fmt.Sprintf("f%d", f)
		}
		items = []string{strings.Join(parts, " + ")}
	case Aggregate:
		for _, f := range fields {
			items = append(items, fmt.Sprintf("AVG(f%d)", f))
		}
	}
	return fmt.Sprintf("SELECT %s FROM T WHERE f0 < x", strings.Join(items, ", "))
}

// sweepTableSeed seeds every Fig. 15 generated table (part of the sweep
// cache key — see sweepRunKey).
const sweepTableSeed uint64 = 0xF15

// SweepDesigns are the Fig. 15 representatives.
func SweepDesigns() []design.Kind {
	return []design.Kind{design.RCNVMWd, design.GSDRAMecc, design.SAMEn}
}

// sweepDesignNames is the deterministic column order of every Fig. 15
// figure: the sweep designs in paper order, then the ideal bound. Iterating
// the RunSweepPoint map in this order (instead of Go's randomized map
// range) is what keeps sweep tables byte-identical across runs and worker
// counts.
func sweepDesignNames() []string {
	names := make([]string, 0, len(SweepDesigns())+1)
	for _, k := range SweepDesigns() {
		names = append(names, k.String())
	}
	return append(names, "ideal")
}

// RunSweepPoint measures all sweep designs (plus ideal) at one point,
// returning speedups over the row-store baseline. The per-design runs
// (baseline and ideal included) execute in parallel on the worker pool.
func RunSweepPoint(ctx context.Context, p SweepPoint, records int, par Par) (map[string]float64, error) {
	speedups, _, err := RunSweepPointStats(ctx, p, records, par)
	return speedups, err
}

// RunSweepPointStats is RunSweepPoint plus the raw per-design run
// statistics (keyed like the speedup map, with an extra "baseline" entry),
// for pipelines that dump per-point metrics alongside the figure values.
func RunSweepPointStats(ctx context.Context, p SweepPoint, records int, par Par) (map[string]float64, map[string]sim.RunStats, error) {
	if p.Records > 0 {
		records = p.Records
	}
	rb := p.RecordBytes
	if rb == 0 {
		rb = 1024
	}
	fields := rb / imdb.FieldBytes
	if fields < 1 {
		return nil, nil, fmt.Errorf("core: record size %dB below one field", rb)
	}
	if p.Projected > fields {
		p.Projected = fields
	}
	if p.Projected < 1 {
		p.Projected = 1
	}
	if fields == 1 {
		p.Projected = 1 // degenerate single-field record: project f0 itself
	}
	schema := imdb.Schema{Name: "T", Fields: fields, Records: records}
	query := sweepSQL(p, fields)
	params := sql.Params{"x": imdb.Percentile(p.Selectivity)}

	sim1 := func(kind design.Kind, colStore bool) (*sim.QueryResult, error) {
		d := design.New(kind, design.Options{})
		s := sim.NewSystem(d)
		s.AddTable(imdb.NewTable(schema, sweepTableSeed), colStore)
		stmt, err := sql.Parse(query)
		if err != nil {
			return nil, err
		}
		plan, err := sql.Compile(stmt, params)
		if err != nil {
			return nil, err
		}
		// Near-total projectivity executes row-wise (whole-record reads),
		// like any engine that prefers a row store for such queries.
		touched := map[int]bool{}
		for _, f := range plan.PredFields {
			touched[f] = true
		}
		for _, f := range plan.ProjFields {
			touched[f] = true
		}
		plan.FullScan = !colStore && len(touched)*10 >= fields*9
		return s.RunPlan(plan)
	}
	run := func(ctx context.Context, kind design.Kind, colStore bool) (*sim.QueryResult, error) {
		key := sweepRunKey(kind, design.Options{}, schema, sweepTableSeed, query, params, colStore)
		r, _, err := par.Memo.do(ctx, key, func() (*sim.QueryResult, error) { return sim1(kind, colStore) })
		return r, err
	}

	type sweepRun struct {
		kind     design.Kind
		colStore bool
	}
	runs := []sweepRun{{design.Baseline, false}}
	for _, k := range SweepDesigns() {
		runs = append(runs, sweepRun{k, false})
	}
	// Ideal: preferred store — the better of row (baseline itself) and
	// column placement.
	runs = append(runs, sweepRun{design.Ideal, true})
	res, err := runner.Map(ctx, runs, par.opts(),
		func(ctx context.Context, _ int, sr sweepRun) (*sim.QueryResult, error) {
			r, err := run(ctx, sr.kind, sr.colStore)
			if err != nil {
				return nil, fmt.Errorf("sweep on %v: %w", sr.kind, err)
			}
			return r, nil
		})
	if err != nil {
		return nil, nil, err
	}
	base := res[0]
	out := map[string]float64{}
	sts := map[string]sim.RunStats{"baseline": base.Stats}
	var errs []error
	for i, k := range SweepDesigns() {
		r := res[i+1]
		if r.Rows != base.Rows || r.ArithChecks != base.ArithChecks {
			errs = append(errs, fmt.Errorf("core: sweep functional mismatch on %v", k))
			continue
		}
		out[k.String()] = sim.Speedup(base.Stats, r.Stats)
		sts[k.String()] = r.Stats
	}
	if len(errs) > 0 {
		return nil, nil, errors.Join(errs...)
	}
	ideal := sim.Speedup(base.Stats, res[len(res)-1].Stats)
	if ideal < 1 {
		ideal = 1
	}
	out["ideal"] = ideal
	sts["ideal"] = res[len(res)-1].Stats
	return out, sts, nil
}

// Fig15Selectivities is the x axis of panels (a)-(c) and (g) — the paper
// sweeps from 10% up.
func Fig15Selectivities() []float64 { return []float64{0.10, 0.20, 0.40, 0.60, 0.80, 1.0} }

// Fig15Projectivities is the x axis of panels (d)-(f) and (h).
func Fig15Projectivities() []int { return []int{1, 2, 4, 8, 16, 32, 64, 96, 127} }

// Fig15RecordSizes is the x axis of panel (i).
func Fig15RecordSizes() []int { return []int{8, 16, 32, 64, 128, 256, 512, 1024} }

// sweepFigure runs one Fig. 15 sweep axis in parallel: points fan out on
// the outer pool (which owns the progress callback), and each point's
// per-design runs fan out on an inner pool with the same worker bound.
func sweepFigure(ctx context.Context, id string, points []SweepPoint, records int, labels func(i int) string, par Par) (*Figure, error) {
	inner := Par{Workers: par.Workers, Memo: par.Memo, Observer: par.Observer} // progress reports whole points only
	type pointResult struct {
		speedups map[string]float64
		stats    map[string]sim.RunStats
	}
	vals, err := runner.Map(ctx, points, par.opts(),
		func(ctx context.Context, _ int, p SweepPoint) (pointResult, error) {
			sp, st, err := RunSweepPointStats(ctx, p, records, inner)
			return pointResult{sp, st}, err
		})
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: id}
	for i := range points {
		x := labels(i)
		if par.Metrics != nil {
			par.Metrics(id, x, "baseline", vals[i].stats["baseline"])
		}
		for _, d := range sweepDesignNames() {
			fig.Cells = append(fig.Cells, Cell{X: x, Design: d, Value: vals[i].speedups[d]})
			if par.Metrics != nil {
				par.Metrics(id, x, d, vals[i].stats[d])
			}
		}
	}
	return fig, nil
}

// Fig15SelectivitySweep runs panels (a)-(c)/(g): speedup vs selectivity at
// fixed projectivity.
func Fig15SelectivitySweep(ctx context.Context, kind SweepQueryKind, projected, records int, par Par) (*Figure, error) {
	name := "fig15-arith-sel"
	if kind == Aggregate {
		name = "fig15-aggr-sel"
	}
	sels := Fig15Selectivities()
	points := make([]SweepPoint, len(sels))
	for i, sel := range sels {
		points[i] = SweepPoint{Query: kind, Selectivity: sel, Projected: projected}
	}
	return sweepFigure(ctx, fmt.Sprintf("%s-p%d", name, projected), points, records,
		func(i int) string { return fmt.Sprintf("%.0f%%", sels[i]*100) }, par)
}

// Fig15ProjectivitySweep runs panels (d)-(f)/(h): speedup vs projectivity
// at fixed selectivity.
func Fig15ProjectivitySweep(ctx context.Context, kind SweepQueryKind, selectivity float64, records int, par Par) (*Figure, error) {
	name := "fig15-arith-proj"
	if kind == Aggregate {
		name = "fig15-aggr-proj"
	}
	projs := Fig15Projectivities()
	points := make([]SweepPoint, len(projs))
	for i, proj := range projs {
		points[i] = SweepPoint{Query: kind, Selectivity: selectivity, Projected: proj}
	}
	return sweepFigure(ctx, fmt.Sprintf("%s-s%.0f", name, selectivity*100), points, records,
		func(i int) string { return fmt.Sprintf("%d", projs[i]) }, par)
}

// Fig15RecordSizeSweep runs panel (i): all fields projected, 100% selected,
// record size varied.
func Fig15RecordSizeSweep(ctx context.Context, records int, par Par) (*Figure, error) {
	sizes := Fig15RecordSizes()
	points := make([]SweepPoint, len(sizes))
	for i, rb := range sizes {
		points[i] = SweepPoint{
			Query: Arithmetic, Selectivity: 1.0, Projected: rb / imdb.FieldBytes, RecordBytes: rb,
		}
	}
	return sweepFigure(ctx, "fig15i", points, records,
		func(i int) string { return fmt.Sprintf("%dB", sizes[i]) }, par)
}

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
	"sam/internal/sim"
	"sam/internal/sql"
	"sam/internal/stats"
)

// This file regenerates every table and figure of the paper's evaluation
// (Section 6). Each Fig* function returns both the rendered table and the
// raw series so tests and benches can assert on shapes.
//
// Every driver builds rows of RunSpecs and hands them to runGrid, which
// fans them out over the bounded worker pool in internal/runner through
// the run memo, sharing front ends between specs that have one: each
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
// geometric means. The grid has one row per query: the baseline, then
// every evaluated design.
func Fig12(ctx context.Context, w Workload, par Par) (*Figure, error) {
	kinds := design.AllEvaluated()
	queries := Benchmark()
	grid, err := runGrid(ctx, queryRows(queries, w, fig12Kinds()), par)
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

// fig12Kinds is a Fig. 12 row's designs: the baseline, then every
// evaluated design.
func fig12Kinds() []design.Kind {
	return append([]design.Kind{design.Baseline}, design.AllEvaluated()...)
}

// queryRows builds one grid row per query, with one default-option spec
// per kind.
func queryRows(queries []BenchQuery, w Workload, kinds []design.Kind) [][]RunSpec {
	rows := make([][]RunSpec, len(queries))
	for i, q := range queries {
		for _, k := range kinds {
			rows[i] = append(rows[i], RunSpec{Design: k, Workload: w, Query: q})
		}
	}
	return rows
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

// Fig13 reproduces the power/energy-efficiency study. It runs Fig. 12's
// grid; the category averages are then aggregated sequentially in the
// paper's order.
func Fig13(ctx context.Context, w Workload, par Par) ([]Fig13Row, error) {
	queries := Benchmark()
	kinds := fig12Kinds()
	grid, err := runGrid(ctx, queryRows(queries, w, kinds), par)
	if err != nil {
		return nil, err
	}
	byName := map[string][]*sim.QueryResult{} // query name -> its row of results
	for qi, q := range queries {
		byName[q.Name] = grid[qi]
	}
	var rows []Fig13Row
	for _, cat := range Fig13Categories() {
		for ki, kind := range kinds {
			var bg, rw, act, total, energy, baseE float64
			for _, name := range cat.Queries {
				r := byName[name][ki]
				p := r.Stats.PowerMW
				bg += p.Background
				rw += p.RdWr
				act += p.ActPre + p.Refresh
				total += p.Background + p.RdWr + p.ActPre + p.Refresh
				energy += r.Stats.Energy.Total()
				baseE += byName[name][0].Stats.Energy.Total()
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

// Fig14a reproduces the substrate swap: RC-NVM and SAM designs on both NVM
// and DRAM, all-query geometric mean speedup. Each query's row holds its
// baseline (normalization is always against the plain DRAM baseline, like
// the paper), then every design on each substrate.
func Fig14a(ctx context.Context, w Workload, par Par) (*Figure, error) {
	kinds := []design.Kind{design.RCNVMWd, design.SAMSub, design.SAMIO, design.SAMEn}
	subs := []design.Substrate{design.NVM, design.DRAM}
	opts := make([]design.Options, len(subs))
	labels := make([]string, len(subs))
	for i, sub := range subs {
		opts[i] = design.Options{Substrate: sub, SubstrateSet: true}
		labels[i] = sub.String()
	}
	return optionSweep(ctx, "fig14a", Benchmark(), kinds, opts, labels, w, par)
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
	opts := make([]design.Options, len(grans))
	labels := make([]string, len(grans))
	for i, g := range grans {
		opts[i] = design.Options{Gran: g}
		labels[i] = fmt.Sprintf("%d-bit", g.BitsPerChip)
	}
	return optionSweep(ctx, "fig14b", queries, kinds, opts, labels, w, par)
}

// optionSweep runs one row per query, the baseline then every kind under
// every option variant, and reports each variant's geometric-mean speedup
// over the queries, labelled by labels.
func optionSweep(ctx context.Context, id string, queries []BenchQuery, kinds []design.Kind, opts []design.Options, labels []string, w Workload, par Par) (*Figure, error) {
	rows := make([][]RunSpec, len(queries))
	for qi, q := range queries {
		rows[qi] = []RunSpec{{Design: design.Baseline, Workload: w, Query: q}}
		for _, o := range opts {
			for _, k := range kinds {
				rows[qi] = append(rows[qi], RunSpec{Design: k, Options: o, Workload: w, Query: q})
			}
		}
	}
	grid, err := runGrid(ctx, rows, par)
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: id}
	for oi := range opts {
		for ki, k := range kinds {
			var sp []float64
			for _, row := range grid {
				sp = append(sp, sim.Speedup(row[0].Stats, row[1+oi*len(kinds)+ki].Stats))
			}
			fig.Cells = append(fig.Cells, Cell{X: labels[oi], Design: k.String(), Value: stats.Gmean(sp)})
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
// memo key — see RunSpec.Key).
const sweepTableSeed uint64 = 0xF15

// SweepDesigns are the Fig. 15 representatives.
func SweepDesigns() []design.Kind {
	return []design.Kind{design.RCNVMWd, design.GSDRAMecc, design.SAMEn}
}

// sweepKinds is a sweep point's row: the baseline, the sweep designs in
// paper order, then the ideal bound. The designs after the baseline are
// also the deterministic column order of every Fig. 15 figure: iterating
// the speedup map in this order (instead of Go's randomized map range) is
// what keeps sweep tables byte-identical across runs and worker counts.
func sweepKinds() []design.Kind {
	return append(append([]design.Kind{design.Baseline}, SweepDesigns()...), design.Ideal)
}

// SweepResult is one Fig. 15 point's outcome.
type SweepResult struct {
	// Speedups maps each sweep design, and "ideal", to its speedup over
	// the row-store baseline.
	Speedups map[string]float64
	// Stats holds every run's statistics, keyed like Speedups plus
	// "baseline".
	Stats map[string]sim.RunStats
}

// specs builds the point's grid row (see sweepKinds). Every run reads its
// own copy of one generated table; ideal runs on its preferred store, the
// column store.
func (p SweepPoint) specs(records int) ([]RunSpec, error) {
	if p.Records > 0 {
		records = p.Records
	}
	rb := p.RecordBytes
	if rb == 0 {
		rb = 1024
	}
	fields := rb / imdb.FieldBytes
	if fields < 1 {
		return nil, fmt.Errorf("core: record size %dB below one field", rb)
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
	table := &imdb.Schema{Name: "T", Fields: fields, Records: records}
	q := BenchQuery{
		Name:   "sweep",
		SQL:    sweepSQL(p, fields),
		Class:  ClassQ,
		Params: sql.Params{"x": imdb.Percentile(p.Selectivity)},
	}
	var row []RunSpec
	for _, k := range sweepKinds() {
		row = append(row, RunSpec{Design: k, Query: q, Table: table})
	}
	return row, nil
}

// sweepResult aggregates one point's row of results (see sweepKinds) into
// speedups over the baseline. Every design, ideal included, must return
// the baseline's functional results; ideal's speedup is at least 1, since
// the row store is also one of its stores.
func sweepResult(q BenchQuery, row []*sim.QueryResult) (SweepResult, error) {
	base := row[0]
	out := SweepResult{Speedups: map[string]float64{}, Stats: map[string]sim.RunStats{"baseline": base.Stats}}
	var errs []error
	for i, k := range sweepKinds()[1:] {
		r := row[i+1]
		if err := checkFunctional(q, k, base, r); err != nil {
			errs = append(errs, err)
			continue
		}
		sp := sim.Speedup(base.Stats, r.Stats)
		if k == design.Ideal && sp < 1 {
			sp = 1
		}
		out.Speedups[k.String()] = sp
		out.Stats[k.String()] = r.Stats
	}
	return out, errors.Join(errs...)
}

// RunSweep measures every point, one grid row each, as one grid. It is
// the runner behind every Fig. 15 panel and samd's sweep jobs.
func RunSweep(ctx context.Context, points []SweepPoint, records int, par Par) ([]SweepResult, error) {
	rows := make([][]RunSpec, len(points))
	for i, p := range points {
		row, err := p.specs(records)
		if err != nil {
			return nil, err
		}
		rows[i] = row
	}
	grid, err := runGrid(ctx, rows, par)
	if err != nil {
		return nil, err
	}
	out := make([]SweepResult, len(points))
	errs := make([]error, len(points))
	for i, row := range grid {
		out[i], errs[i] = sweepResult(rows[i][0].Query, row)
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// RunSweepPoint measures all sweep designs (plus ideal) at one point,
// returning speedups over the row-store baseline.
func RunSweepPoint(ctx context.Context, p SweepPoint, records int, par Par) (map[string]float64, error) {
	res, err := RunSweep(ctx, []SweepPoint{p}, records, par)
	if err != nil {
		return nil, err
	}
	return res[0].Speedups, nil
}

// Fig15Selectivities is the x axis of panels (a)-(c) and (g) — the paper
// sweeps from 10% up.
func Fig15Selectivities() []float64 { return []float64{0.10, 0.20, 0.40, 0.60, 0.80, 1.0} }

// Fig15Projectivities is the x axis of panels (d)-(f) and (h).
func Fig15Projectivities() []int { return []int{1, 2, 4, 8, 16, 32, 64, 96, 127} }

// Fig15RecordSizes is the x axis of panel (i).
func Fig15RecordSizes() []int { return []int{8, 16, 32, 64, 128, 256, 512, 1024} }

// sweepFigure runs one Fig. 15 sweep axis as one grid (RunSweep).
func sweepFigure(ctx context.Context, id string, points []SweepPoint, records int, labels func(i int) string, par Par) (*Figure, error) {
	res, err := RunSweep(ctx, points, records, par)
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: id}
	for i, r := range res {
		x := labels(i)
		if par.Metrics != nil {
			par.Metrics(id, x, "baseline", r.Stats["baseline"])
		}
		for _, k := range sweepKinds()[1:] {
			d := k.String()
			fig.Cells = append(fig.Cells, Cell{X: x, Design: d, Value: r.Speedups[d]})
			if par.Metrics != nil {
				par.Metrics(id, x, d, r.Stats[d])
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

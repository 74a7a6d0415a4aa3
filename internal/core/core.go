// Package core is the library's public face: it wires the Table 3
// benchmark queries, the evaluated designs, and the simulator into
// ready-to-run experiments — the programmatic API behind cmd/samfig, the
// examples, and the bench harness.
package core

import (
	"context"
	"errors"
	"fmt"

	"sam/internal/design"
	"sam/internal/imdb"
	"sam/internal/runner"
	"sam/internal/sim"
	"sam/internal/sql"
)

// QueryClass separates the benchmark's column-preferring (Q) and
// row-preferring (Qs) query sets.
type QueryClass int

// Query classes.
const (
	ClassQ QueryClass = iota
	ClassQs
)

// String names the class.
func (c QueryClass) String() string {
	if c == ClassQs {
		return "Qs"
	}
	return "Q"
}

// BenchQuery is one Table 3 benchmark entry.
type BenchQuery struct {
	Name   string
	SQL    string
	Class  QueryClass
	Params sql.Params
	// IsWrite marks update/insert queries (the Fig. 13 categories).
	IsWrite bool
}

// The Table 3 predicate constants: the categorical predicate field has
// values {0..3}, so "> 2" and "= 3" both select 25%, and "> 3" is the
// mostly-false predicate of Q2.
var (
	sel25     = sql.Params{"x": 2, "y": 2, "z": 3}
	selNever  = sql.Params{"x": 3}
	sel25Pair = sql.Params{
		"x": imdb.SelectivityThreshold(0.5), // f1 > x: 50%
		"y": imdb.Percentile(0.5),           // f9 < y: 50% -> 25% joint
	}
)

// Benchmark returns the full Table 3 query set in paper order.
func Benchmark() []BenchQuery {
	return []BenchQuery{
		{Name: "Q1", SQL: "SELECT f3, f4 FROM Ta WHERE f10 > x", Class: ClassQ, Params: sel25},
		{Name: "Q2", SQL: "SELECT * FROM Tb WHERE f10 > x", Class: ClassQ, Params: selNever},
		{Name: "Q3", SQL: "SELECT SUM(f9) FROM Ta WHERE f10 > x", Class: ClassQ, Params: sel25},
		{Name: "Q4", SQL: "SELECT SUM(f9) FROM Tb WHERE f10 > x", Class: ClassQ, Params: sel25},
		{Name: "Q5", SQL: "SELECT AVG(f1) FROM Ta WHERE f10 > x", Class: ClassQ, Params: sel25},
		{Name: "Q6", SQL: "SELECT AVG(f1) FROM Tb WHERE f10 > x", Class: ClassQ, Params: sel25},
		{Name: "Q7", SQL: "SELECT Ta.f3, Tb.f4 FROM Ta, Tb WHERE Ta.f1 > Tb.f1 AND Ta.f9 = Tb.f9", Class: ClassQ},
		{Name: "Q8", SQL: "SELECT Ta.f3, Tb.f4 FROM Ta, Tb WHERE Ta.f9 = Tb.f9", Class: ClassQ},
		{Name: "Q9", SQL: "SELECT f3, f4 FROM Ta WHERE f1 > x AND f9 < y", Class: ClassQ, Params: sel25Pair},
		{Name: "Q10", SQL: "SELECT f3, f4 FROM Ta WHERE f1 > x AND f2 < y", Class: ClassQ, Params: sel25Pair},
		{Name: "Q11", SQL: "UPDATE Tb SET f3 = x, f4 = y WHERE f10 = z", Class: ClassQ, Params: sel25, IsWrite: true},
		{Name: "Q12", SQL: "UPDATE Tb SET f9 = x WHERE f10 = z", Class: ClassQ, Params: sel25, IsWrite: true},
		{Name: "Qs1", SQL: "SELECT * FROM Ta LIMIT 1024", Class: ClassQs},
		{Name: "Qs2", SQL: "SELECT * FROM Tb LIMIT 1024", Class: ClassQs},
		{Name: "Qs3", SQL: "SELECT * FROM Ta WHERE f10 > x", Class: ClassQs, Params: sel25},
		{Name: "Qs4", SQL: "SELECT * FROM Tb WHERE f10 > x", Class: ClassQs, Params: sel25},
		{Name: "Qs5", SQL: "INSERT INTO Ta VALUES (f0, f1, f2, f3)", Class: ClassQs, IsWrite: true},
		{Name: "Qs6", SQL: "INSERT INTO Tb VALUES (f0, f1, f2, f3)", Class: ClassQs, IsWrite: true},
	}
}

// Workload describes the database scale for a run.
type Workload struct {
	TaRecords int
	TbRecords int
	Seed      uint64
}

// DefaultWorkload keeps both tables several times the LLC, like the
// paper's 10M-record tables dwarf its 8MB LLC, while staying simulable in
// seconds (see DESIGN.md section 7).
func DefaultWorkload() Workload {
	return Workload{TaRecords: 16 << 10, TbRecords: 128 << 10, Seed: 0xDA7ABA5E}
}

// SmallWorkload is the bench/test scale.
func SmallWorkload() Workload {
	return Workload{TaRecords: 2 << 10, TbRecords: 16 << 10, Seed: 0xDA7ABA5E}
}

// RunSpec is one Table 3 run: a design point, the Ta/Tb workload, one
// benchmark query and an optional fault model. It is the one description
// every caller hands to the simulator and to the run memo; its Key is the
// memo key.
type RunSpec struct {
	Design   design.Kind
	Options  design.Options
	Workload Workload
	Query    BenchQuery
	// Faults attaches fault injection: every data burst of the run is
	// adjudicated through the design's chipkill codec with faults drawn
	// from it. Nil or inactive runs fault-free.
	Faults *sim.FaultModel
}

// columnStore reports whether the run uses the column store: the Ideal
// design uses the preferred store per query class, which is the column
// store for Q-class queries. Every other design is a row store.
func (s RunSpec) columnStore() bool {
	return s.Design == design.Ideal && s.Query.Class == ClassQ
}

// Run executes the query on a fresh system. attach hooks see the built
// system before the query runs (tracers, samplers); a hooked run is still
// the same run, cycle for cycle. Qs-class queries execute with
// row-preferring full-record scans (see RunOn).
func (s RunSpec) Run(attach ...func(*sim.System)) (*sim.QueryResult, error) {
	sys := s.system()
	for _, a := range attach {
		a(sys)
	}
	return RunOn(sys, s.Query)
}

// system builds the spec's system: its design with both tables loaded,
// and its fault model attached.
func (s RunSpec) system() *sim.System {
	sys := NewSystem(s.Design, s.Options, s.Workload, s.columnStore())
	sys.Faults = s.Faults
	return sys
}

// NewSystem builds a system for kind with both benchmark tables loaded.
// For the Ideal design, colStore selects the per-query preferred layout.
// It is RunSpec.Run's build step.
func NewSystem(kind design.Kind, opts design.Options, w Workload, colStore bool) *sim.System {
	d := design.New(kind, opts)
	s := sim.NewSystem(d)
	s.AddTable(imdb.NewTable(imdb.Ta(w.TaRecords), w.Seed), colStore)
	s.AddTable(imdb.NewTable(imdb.Tb(w.TbRecords), w.Seed+1), colStore)
	return s
}

// RunOneFaulted runs RunSpec{kind, opts, w, q, fm}.
//
// Deprecated: use RunSpec.Run. Kept only for sam/perfbench.
func RunOneFaulted(kind design.Kind, opts design.Options, w Workload, q BenchQuery, fm *sim.FaultModel) (*sim.QueryResult, error) {
	return RunSpec{Design: kind, Options: opts, Workload: w, Query: q, Faults: fm}.Run()
}

// RunOn executes one benchmark query on an already-built system: it is
// RunSpec.Run's plan step, and applies the Qs full-record scan rule.
func RunOn(s *sim.System, q BenchQuery) (*sim.QueryResult, error) {
	plan, err := compile(q)
	if err != nil {
		return nil, err
	}
	return s.RunPlan(plan)
}

// compile plans q with the Qs full-record scan rule applied.
func compile(q BenchQuery) (*sql.Plan, error) {
	stmt, err := sql.Parse(q.SQL)
	if err != nil {
		return nil, err
	}
	plan, err := sql.Compile(stmt, q.Params)
	if err != nil {
		return nil, err
	}
	plan.FullScan = q.Class == ClassQs && plan.WholeRecord
	return plan, nil
}

// Par configures how the experiment drivers fan their simulation grids
// out over the bounded worker pool (internal/runner). The zero value runs
// with GOMAXPROCS workers and no progress reporting; every driver is
// deterministic for any worker count.
type Par struct {
	// Workers bounds concurrent simulations per sweep level; <= 0 means
	// runtime.GOMAXPROCS(0). Workers = 1 reproduces serial execution.
	Workers int
	// Progress, when non-nil, receives (completed, total) after each
	// simulation of the current sweep finishes. Calls are serialized.
	Progress func(done, total int)
	// Metrics, when non-nil, receives every run's full statistics as the
	// driver aggregates its results. Calls happen in the driver's fixed
	// aggregation order (never from worker goroutines), so the emission
	// sequence is identical for any Workers value — the property the
	// figure pipelines rely on to dump byte-identical metrics files.
	Metrics func(figID, x, designName string, st sim.RunStats)
	// Memo, when non-nil, routes every simulation of the sweep through the
	// content-addressed run cache: identical (design, workload, query,
	// fault) cells — across figures, sweeps, and repeat invocations —
	// simulate once. Results are unchanged run-for-run (the cache returns
	// exactly what the simulation would have produced), so figures are
	// byte-identical with and without it.
	Memo *Memo
	// Observer, when non-nil, receives run-lifecycle callbacks for every
	// sweep the driver fans out: job enqueue/start/finish spans with memo
	// hit/miss attribution — the feed behind the live telemetry plane
	// (internal/obs). Observation never influences scheduling or results;
	// tables stay byte-identical with it attached.
	Observer runner.SweepObserver
}

func (p Par) opts() runner.Options {
	return runner.Options{Workers: p.Workers, OnProgress: p.Progress, Observer: p.Observer}
}

// SpeedupResult is one (query, design) cell of Fig. 12.
type SpeedupResult struct {
	Query   string
	Design  string
	Speedup float64
	Result  *sim.QueryResult
}

// checkFunctional enforces invariant 9: every design must return the same
// functional results as the row-store baseline.
func checkFunctional(q BenchQuery, k design.Kind, base, r *sim.QueryResult) error {
	if r.Rows != base.Rows || r.ProjChecks != base.ProjChecks || r.ArithChecks != base.ArithChecks {
		return fmt.Errorf("%s on %v: functional mismatch (rows %d vs %d)", q.Name, k, r.Rows, base.Rows)
	}
	return nil
}

// RunComparison runs the query on the baseline and every given design,
// returning speedups normalized to the row-store baseline. All runs
// (baseline included) share one bounded worker pool; every run owns a
// fresh system, so nothing is shared between workers. On failure the
// joined error lists every failing design, not just the first.
func RunComparison(ctx context.Context, kinds []design.Kind, opts design.Options, w Workload, q BenchQuery, par Par) ([]SpeedupResult, error) {
	all := append([]design.Kind{design.Baseline}, kinds...)
	runs, err := runner.Map(ctx, all, par.opts(), func(ctx context.Context, _ int, k design.Kind) (*sim.QueryResult, error) {
		r, _, err := par.Memo.Run(ctx, RunSpec{Design: k, Options: opts, Workload: w, Query: q})
		if err != nil {
			return nil, fmt.Errorf("%s on %v: %w", q.Name, k, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	base := runs[0]
	out := make([]SpeedupResult, len(kinds))
	var errs []error
	for i, k := range kinds {
		r := runs[i+1]
		if err := checkFunctional(q, k, base, r); err != nil {
			errs = append(errs, err)
			continue
		}
		out[i] = SpeedupResult{
			Query:   q.Name,
			Design:  k.String(),
			Speedup: sim.Speedup(base.Stats, r.Stats),
			Result:  r,
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return out, nil
}

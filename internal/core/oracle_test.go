package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sam/internal/design"
	"sam/internal/imdb"
	"sam/internal/sim"
	"sam/internal/sql"
)

// refEval is a naive reference evaluator of the SQL dialect: it walks the
// parsed statement record by record over imdb tables, with no plan, no
// batches and no memory system, and folds the same functional result the
// simulator reports. tables is updated in place by UPDATE and INSERT.
func refEval(stmt sql.Stmt, params sql.Params, tables map[string]*imdb.Table) (*sim.QueryResult, error) {
	value := func(op sql.Operand) uint64 {
		if op.IsLit {
			return op.Lit
		}
		return params[op.Param]
	}
	match := func(t *imdb.Table, rec int, where []sql.Predicate) bool {
		for _, w := range where {
			v, want := t.Value(rec, w.Left.Field), value(w.Right)
			if !(w.Op == ">" && v > want || w.Op == "<" && v < want || w.Op == "=" && v == want) {
				return false
			}
		}
		return true
	}
	res := &sim.QueryResult{}
	switch s := stmt.(type) {
	case *sql.UpdateStmt:
		t := tables[s.Table]
		for rec := 0; rec < t.Records(); rec++ {
			if match(t, rec, s.Where) {
				for _, set := range s.Sets {
					t.SetValue(rec, set.Field, value(set.Value))
				}
				res.Rows++
			}
		}
		return res, nil
	case *sql.SelectStmt:
		if len(s.Tables) == 2 {
			return refJoin(s, params, tables)
		}
		return refSelect(s, tables[s.Tables[0]], func(rec int) bool { return match(tables[s.Tables[0]], rec, s.Where) }), nil
	}
	return nil, fmt.Errorf("reference: unsupported statement %T", stmt)
}

// refSelect evaluates a single-table SELECT. The projection check folds,
// per returned record, every distinct column the select list and GROUP BY
// read (all of them for SELECT *); the arithmetic check folds each
// arithmetic item's sum; a grouped aggregate folds each group's key and
// values into the projection check too.
func refSelect(s *sql.SelectStmt, t *imdb.Table, match func(int) bool) *sim.QueryResult {
	res := &sim.QueryResult{}
	star := false
	cols := map[int]bool{}
	var aggs []sql.SelectItem
	var arith [][]sql.ColRef
	if s.GroupBy != nil {
		cols[s.GroupBy.Field] = true
	}
	for _, item := range s.Items {
		switch {
		case item.Star:
			star = true
		case item.Agg != "":
			aggs = append(aggs, item)
		case len(item.Cols) > 1:
			arith = append(arith, item.Cols)
		}
		for _, c := range item.Cols {
			cols[c.Field] = true
		}
	}
	type acc struct {
		sum      float64
		n        int
		min, max uint64
	}
	global := make([]acc, len(aggs))
	groups := map[uint64][]acc{}
	for rec := 0; rec < t.Records() && (s.Limit < 0 || res.Rows < s.Limit); rec++ {
		if !match(rec) {
			continue
		}
		res.Rows++
		if star {
			for f := 0; f < t.Fields(); f++ {
				res.ProjChecks ^= t.Value(rec, f)
			}
			continue
		}
		for f := range cols {
			res.ProjChecks ^= t.Value(rec, f)
		}
		for _, a := range arith {
			var sum uint64
			for _, c := range a {
				sum += t.Value(rec, c.Field)
			}
			res.ArithChecks ^= sum
		}
		accs := global
		if s.GroupBy != nil {
			key := t.Value(rec, s.GroupBy.Field)
			if groups[key] == nil {
				groups[key] = make([]acc, len(aggs))
			}
			accs = groups[key]
		}
		for i, item := range aggs {
			a := &accs[i]
			a.n++
			if len(item.Cols) == 0 { // COUNT(*)
				continue
			}
			v := t.Value(rec, item.Cols[0].Field)
			a.sum += float64(v)
			if a.n == 1 || v < a.min {
				a.min = v
			}
			if a.n == 1 || v > a.max {
				a.max = v
			}
		}
	}
	values := func(accs []acc) []float64 {
		out := make([]float64, len(aggs))
		for i, item := range aggs {
			a := accs[i]
			switch item.Agg {
			case "SUM":
				out[i] = a.sum
			case "AVG":
				if a.n > 0 {
					out[i] = a.sum / float64(a.n)
				}
			case "COUNT":
				out[i] = float64(a.n)
			case "MIN":
				if a.n > 0 {
					out[i] = float64(a.min)
				}
			case "MAX":
				if a.n > 0 {
					out[i] = float64(a.max)
				}
			}
		}
		return out
	}
	if s.GroupBy != nil && len(aggs) > 0 {
		res.Aggregates = make([]float64, len(aggs))
		res.Groups = map[uint64][]float64{}
		for key, accs := range groups {
			res.Groups[key] = values(accs)
			for _, v := range res.Groups[key] {
				res.ProjChecks ^= key ^ uint64(int64(v))
			}
		}
	} else {
		res.Aggregates = values(global)
	}
	return res
}

// refJoin evaluates a two-table equi-join as a nested loop: every pair of
// records that satisfies every column comparison is one row, and the
// projection check folds each side's distinct projected columns. The hash
// join evaluates no single-table filter and no LIMIT, so for a join with
// either the reference requires Compile to refuse it and returns that error.
func refJoin(s *sql.SelectStmt, params sql.Params, tables map[string]*imdb.Table) (*sim.QueryResult, error) {
	refused := s.Limit != -1
	for _, w := range s.Where {
		refused = refused || w.Right.Col == nil
	}
	if refused {
		if _, err := sql.Compile(s, params); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("reference: Compile accepts a join filter or LIMIT the hash join ignores")
	}
	outer, inner := tables[s.Tables[0]], tables[s.Tables[1]]
	proj := map[string]map[int]bool{s.Tables[0]: {}, s.Tables[1]: {}}
	for _, item := range s.Items {
		proj[item.Cols[0].Table][item.Cols[0].Field] = true
	}
	side := func(c sql.ColRef, o, i int) uint64 {
		if c.Table == s.Tables[0] {
			return outer.Value(o, c.Field)
		}
		return inner.Value(i, c.Field)
	}
	res := &sim.QueryResult{}
	for o := 0; o < outer.Records(); o++ {
		for i := 0; i < inner.Records(); i++ {
			ok := true
			for _, w := range s.Where {
				l, r := side(w.Left, o, i), side(*w.Right.Col, o, i)
				if !(w.Op == ">" && l > r || w.Op == "<" && l < r || w.Op == "=" && l == r) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			res.Rows++
			for f := range proj[s.Tables[0]] {
				res.ProjChecks ^= outer.Value(o, f)
			}
			for f := range proj[s.Tables[1]] {
				res.ProjChecks ^= inner.Value(i, f)
			}
		}
	}
	return res, nil
}

// checkOracle compares a simulated result's functional fields with the
// reference evaluator's.
func checkOracle(t *testing.T, what string, got, want *sim.QueryResult) {
	t.Helper()
	if got.Rows != want.Rows || got.ProjChecks != want.ProjChecks || got.ArithChecks != want.ArithChecks {
		t.Errorf("%s: rows %d proj %#x arith %#x, reference rows %d proj %#x arith %#x",
			what, got.Rows, got.ProjChecks, got.ArithChecks, want.Rows, want.ProjChecks, want.ArithChecks)
	}
	if len(got.Aggregates) != 0 || len(want.Aggregates) != 0 {
		if !reflect.DeepEqual(got.Aggregates, want.Aggregates) {
			t.Errorf("%s: aggregates %v, reference %v", what, got.Aggregates, want.Aggregates)
		}
	}
	if !reflect.DeepEqual(got.Groups, want.Groups) {
		t.Errorf("%s: groups %v, reference %v", what, got.Groups, want.Groups)
	}
}

// mustParse parses src or fails the test.
func mustParse(t *testing.T, src string) sql.Stmt {
	t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

// TestReferenceOracleRandomQueries is the differential against the
// reference evaluator: random dialect queries (genQuery) on a generated
// table, each run on the baseline's column-at-a-time plan and on a
// strided design's row-wise plan, must return the reference's rows,
// projection and arithmetic checks, aggregates and groups, and an UPDATE
// must leave the table exactly as the reference leaves it.
func TestReferenceOracleRandomQueries(t *testing.T) {
	trials := 150
	if testing.Short() {
		trials = 30
	}
	rng := rand.New(rand.NewSource(0x0AC1E))
	schema := imdb.Schema{
		Name: "T", Fields: 16, Records: 700,
		Categorical: map[int]uint64{10: 4},
	}
	for trial := 0; trial < trials; trial++ {
		query := genQuery(rng, schema.Fields)
		stmt := mustParse(t, query)
		ref := imdb.NewTable(schema, 0xFEED)
		want, err := refEval(stmt, nil, map[string]*imdb.Table{"T": ref})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []design.Kind{design.Baseline, design.SAMEn} {
			s := sim.NewSystem(design.New(k, design.Options{}))
			s.AddTable(imdb.NewTable(schema, 0xFEED), false)
			plan, err := sql.Compile(stmt, nil)
			if err != nil {
				t.Fatal(err)
			}
			plan.FullScan = k == design.SAMEn && plan.WholeRecord
			got, err := s.RunPlan(plan)
			if err != nil {
				t.Fatalf("%q on %v: %v", query, k, err)
			}
			what := fmt.Sprintf("trial %d %q on %v", trial, query, k)
			checkOracle(t, what, got, want)
			tb, _ := s.Table("T")
			for rec := 0; rec < ref.Records(); rec++ {
				for f := 0; f < ref.Fields(); f++ {
					if tb.Value(rec, f) != ref.Value(rec, f) {
						t.Fatalf("%s: record %d field %d is %d, reference %d", what, rec, f, tb.Value(rec, f), ref.Value(rec, f))
					}
				}
			}
		}
	}
}

// TestReferenceOracleBenchmark runs every Table 3 SELECT and UPDATE,
// joins included, on a small Ta/Tb pair against the reference evaluator.
func TestReferenceOracleBenchmark(t *testing.T) {
	w := Workload{TaRecords: 512, TbRecords: 1024, Seed: SmallWorkload().Seed}
	for _, q := range Benchmark() {
		stmt := mustParse(t, q.SQL)
		if _, ok := stmt.(*sql.InsertStmt); ok {
			continue
		}
		tables := map[string]*imdb.Table{
			"Ta": imdb.NewTable(imdb.Ta(w.TaRecords), w.Seed),
			"Tb": imdb.NewTable(imdb.Tb(w.TbRecords), w.Seed+1),
		}
		want, err := refEval(stmt, q.Params, tables)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		got, err := RunSpec{Design: design.SAMEn, Workload: w, Query: q}.Run()
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		checkOracle(t, q.Name, got, want)
	}
}

// TestReferenceJoinFiltersRefused runs the join forms the hash join does
// not evaluate, a single-table filter and a LIMIT, through the reference:
// it must come back with Compile's refusal.
func TestReferenceJoinFiltersRefused(t *testing.T) {
	tables := map[string]*imdb.Table{
		"Ta": imdb.NewTable(imdb.Ta(16), 1),
		"Tb": imdb.NewTable(imdb.Tb(16), 2),
	}
	for _, q := range []string{
		"SELECT Ta.f3, Tb.f4 FROM Ta, Tb WHERE Ta.f10 = Tb.f10 AND Ta.f10 > 2",
		"SELECT Ta.f3, Tb.f4 FROM Ta, Tb WHERE Ta.f10 = Tb.f10 LIMIT 5",
	} {
		if _, err := refEval(mustParse(t, q), nil, tables); err == nil || strings.HasPrefix(err.Error(), "reference:") {
			t.Errorf("%q: reference error %v, want Compile's refusal", q, err)
		}
	}
}

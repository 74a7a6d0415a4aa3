package sql

import (
	"fmt"
	"sort"
)

// PlanKind classifies compiled plans.
type PlanKind int

// Plan kinds.
const (
	PlanScan PlanKind = iota // projection scan (with optional LIMIT)
	PlanAggregate
	PlanUpdate
	PlanInsert
	PlanJoin
)

// String names the plan kind.
func (k PlanKind) String() string {
	switch k {
	case PlanScan:
		return "scan"
	case PlanAggregate:
		return "aggregate"
	case PlanUpdate:
		return "update"
	case PlanInsert:
		return "insert"
	case PlanJoin:
		return "join"
	default:
		return fmt.Sprintf("PlanKind(%d)", int(k))
	}
}

// CompiledPred is a bound predicate on a single table.
type CompiledPred struct {
	Field int
	Op    string
	Value uint64
}

// Eval applies the predicate.
func (p CompiledPred) Eval(v uint64) bool {
	switch p.Op {
	case ">":
		return v > p.Value
	case "<":
		return v < p.Value
	case "=":
		return v == p.Value
	default:
		panic("sql: unknown operator " + p.Op)
	}
}

// JoinPred compares a field of the outer table with a field of the inner.
type JoinPred struct {
	OuterField, InnerField int
	Op                     string
}

// AggSpec is one aggregate output.
type AggSpec struct {
	Kind  string // SUM, AVG, COUNT, MIN, MAX
	Field int    // -1 for COUNT(*)
}

// Plan is an executable query. Field lists are sorted and deduplicated.
type Plan struct {
	Kind  PlanKind
	Table string

	// PredFields are read for every record; ProjFields only for matches.
	PredFields []int
	ProjFields []int
	// WholeRecord marks SELECT * (every field read on match).
	WholeRecord bool
	// FullScan selects row-preferring execution: read whole records and
	// evaluate predicates from them, instead of the predicate-column scan
	// that fetches matching records afterwards. The harness sets it for the
	// Qs query class.
	FullScan bool
	Preds    []CompiledPred
	Aggs     []AggSpec
	// ArithGroups holds the arithmetic projection column groups (each
	// produces one output value per matching record).
	ArithGroups [][]int
	// GroupBy is the grouping field, or -1 for a global aggregate.
	GroupBy int
	Limit   int // -1 = unlimited

	// Update/Insert.
	Sets         []CompiledSet
	InsertValues []uint64 // resolved INSERT row

	// Join.
	InnerTable      string
	JoinPreds       []JoinPred
	OuterProj       []int
	InnerProj       []int
	OuterPredFields []int
	InnerPredFields []int
}

// CompiledSet is a bound assignment.
type CompiledSet struct {
	Field int
	Value uint64
}

// Params binds named query parameters (the x, y, z of Table 3).
type Params map[string]uint64

func (p Params) resolve(op Operand) (uint64, error) {
	switch {
	case op.IsLit:
		return op.Lit, nil
	case op.Param != "":
		v, ok := p[op.Param]
		if !ok {
			return 0, fmt.Errorf("sql: unbound parameter %q", op.Param)
		}
		return v, nil
	case op.Col != nil:
		return 0, fmt.Errorf("sql: column operand %v where a value is needed", *op.Col)
	default:
		return 0, fmt.Errorf("sql: empty operand")
	}
}

func dedupSorted(xs []int) []int {
	if len(xs) == 0 {
		return xs
	}
	sort.Ints(xs)
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// Compile binds parameters and produces an executable plan.
func Compile(stmt Stmt, params Params) (*Plan, error) {
	switch s := stmt.(type) {
	case *SelectStmt:
		return compileSelect(s, params)
	case *UpdateStmt:
		return compileUpdate(s, params)
	case *InsertStmt:
		return compileInsert(s, params)
	default:
		return nil, fmt.Errorf("sql: unknown statement type %T", stmt)
	}
}

func compileSelect(s *SelectStmt, params Params) (*Plan, error) {
	if len(s.Tables) == 2 {
		return compileJoin(s)
	}
	if len(s.Tables) != 1 {
		return nil, fmt.Errorf("sql: SELECT needs 1 or 2 tables, got %d", len(s.Tables))
	}
	p := &Plan{Kind: PlanScan, Table: s.Tables[0], Limit: s.Limit, GroupBy: -1}
	if s.GroupBy != nil {
		p.GroupBy = s.GroupBy.Field
		p.ProjFields = append(p.ProjFields, s.GroupBy.Field)
	}
	for _, item := range s.Items {
		switch {
		case item.Star:
			p.WholeRecord = true
		case item.Agg == "COUNT" && len(item.Cols) == 0:
			p.Kind = PlanAggregate
			p.Aggs = append(p.Aggs, AggSpec{Kind: item.Agg, Field: -1})
		case item.Agg != "":
			p.Kind = PlanAggregate
			p.Aggs = append(p.Aggs, AggSpec{Kind: item.Agg, Field: item.Cols[0].Field})
			p.ProjFields = append(p.ProjFields, item.Cols[0].Field)
		case len(item.Cols) > 1:
			group := make([]int, len(item.Cols))
			for i, c := range item.Cols {
				group[i] = c.Field
				p.ProjFields = append(p.ProjFields, c.Field)
			}
			p.ArithGroups = append(p.ArithGroups, group)
		default:
			p.ProjFields = append(p.ProjFields, item.Cols[0].Field)
		}
	}
	for _, w := range s.Where {
		v, err := params.resolve(w.Right)
		if err != nil {
			return nil, err
		}
		p.Preds = append(p.Preds, CompiledPred{Field: w.Left.Field, Op: w.Op, Value: v})
		p.PredFields = append(p.PredFields, w.Left.Field)
	}
	p.PredFields = dedupSorted(p.PredFields)
	p.ProjFields = dedupSorted(p.ProjFields)
	return p, nil
}

func compileJoin(s *SelectStmt) (*Plan, error) {
	outer, inner := s.Tables[0], s.Tables[1]
	if s.GroupBy != nil {
		return nil, fmt.Errorf("sql: GROUP BY is not supported on joins")
	}
	if s.Limit != -1 {
		return nil, fmt.Errorf("sql: LIMIT is not supported on joins")
	}
	p := &Plan{Kind: PlanJoin, Table: outer, InnerTable: inner, Limit: -1, GroupBy: -1}
	for _, item := range s.Items {
		if item.Star || item.Agg != "" || len(item.Cols) != 1 {
			return nil, fmt.Errorf("sql: join projections must be plain qualified columns")
		}
		c := item.Cols[0]
		switch c.Table {
		case outer:
			p.OuterProj = append(p.OuterProj, c.Field)
		case inner:
			p.InnerProj = append(p.InnerProj, c.Field)
		default:
			return nil, fmt.Errorf("sql: projection table %q not in FROM", c.Table)
		}
	}
	for _, w := range s.Where {
		if w.Right.Col == nil {
			return nil, fmt.Errorf("sql: single-table filters are not supported on joins")
		}
		l, r := w.Left, *w.Right.Col
		op := w.Op
		if l.Table == inner && r.Table == outer {
			l, r = r, l
			// Flip the comparison direction.
			switch op {
			case ">":
				op = "<"
			case "<":
				op = ">"
			}
		}
		if l.Table != outer || r.Table != inner {
			return nil, fmt.Errorf("sql: join predicate tables %q,%q do not match FROM", l.Table, r.Table)
		}
		p.JoinPreds = append(p.JoinPreds, JoinPred{OuterField: l.Field, InnerField: r.Field, Op: op})
		p.OuterPredFields = append(p.OuterPredFields, l.Field)
		p.InnerPredFields = append(p.InnerPredFields, r.Field)
	}
	p.OuterPredFields = dedupSorted(p.OuterPredFields)
	p.InnerPredFields = dedupSorted(p.InnerPredFields)
	p.OuterProj = dedupSorted(p.OuterProj)
	p.InnerProj = dedupSorted(p.InnerProj)
	return p, nil
}

func compileUpdate(s *UpdateStmt, params Params) (*Plan, error) {
	p := &Plan{Kind: PlanUpdate, Table: s.Table, Limit: -1, GroupBy: -1}
	for _, set := range s.Sets {
		v, err := params.resolve(set.Value)
		if err != nil {
			return nil, err
		}
		p.Sets = append(p.Sets, CompiledSet{Field: set.Field, Value: v})
		p.ProjFields = append(p.ProjFields, set.Field)
	}
	for _, w := range s.Where {
		v, err := params.resolve(w.Right)
		if err != nil {
			return nil, err
		}
		p.Preds = append(p.Preds, CompiledPred{Field: w.Left.Field, Op: w.Op, Value: v})
		p.PredFields = append(p.PredFields, w.Left.Field)
	}
	p.PredFields = dedupSorted(p.PredFields)
	p.ProjFields = dedupSorted(p.ProjFields)
	return p, nil
}

func compileInsert(s *InsertStmt, params Params) (*Plan, error) {
	p := &Plan{Kind: PlanInsert, Table: s.Table, Limit: -1, GroupBy: -1}
	for i, op := range s.Values {
		// The paper writes INSERT INTO Ta VALUES (f0, f1, ..., fp): field
		// names stand for "a value for that field". Columns resolve to a
		// deterministic placeholder; literals and params resolve normally.
		if op.Col != nil {
			p.InsertValues = append(p.InsertValues, uint64(op.Col.Field)*0x9E3779B97F4A7C15+uint64(i))
			continue
		}
		v, err := params.resolve(op)
		if err != nil {
			return nil, err
		}
		p.InsertValues = append(p.InsertValues, v)
	}
	return p, nil
}

// Match evaluates the plan's single-table predicates on field values
// supplied by the lookup function.
func (p *Plan) Match(value func(field int) uint64) bool {
	for _, pred := range p.Preds {
		if !pred.Eval(value(pred.Field)) {
			return false
		}
	}
	return true
}

package sql

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// mustParse parses or panics.
func mustParse(src string) Stmt {
	s, err := Parse(src)
	if err != nil {
		panic(fmt.Sprintf("sql: %v in %q", err, strings.TrimSpace(src)))
	}
	return s
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT f3, f4 FROM Ta WHERE f10 > 42")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokenKind{TokKeyword, TokIdent, TokSymbol, TokIdent, TokKeyword,
		TokIdent, TokKeyword, TokIdent, TokSymbol, TokNumber, TokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d: %+v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Fatalf("token %d kind %v, want %v (%q)", i, toks[i].Kind, k, toks[i].Text)
		}
	}
}

func TestLexRejectsGarbage(t *testing.T) {
	if _, err := Lex("SELECT @ FROM T"); err == nil {
		t.Fatal("lexer accepted @")
	}
}

func TestParseSimpleSelect(t *testing.T) {
	s := mustParse("SELECT f3, f4 FROM Ta WHERE f10 > x").(*SelectStmt)
	if len(s.Items) != 2 || s.Items[0].Cols[0].Field != 3 || s.Items[1].Cols[0].Field != 4 {
		t.Fatalf("items: %+v", s.Items)
	}
	if len(s.Tables) != 1 || s.Tables[0] != "Ta" {
		t.Fatalf("tables: %v", s.Tables)
	}
	if len(s.Where) != 1 || s.Where[0].Left.Field != 10 || s.Where[0].Op != ">" || s.Where[0].Right.Param != "x" {
		t.Fatalf("where: %+v", s.Where)
	}
	if s.Limit != -1 {
		t.Fatal("limit should default to -1")
	}
}

func TestParseStarAndLimit(t *testing.T) {
	s := mustParse("SELECT * FROM Ta LIMIT 1024").(*SelectStmt)
	if !s.Items[0].Star || s.Limit != 1024 {
		t.Fatalf("%+v", s)
	}
}

func TestParseAggregates(t *testing.T) {
	s := mustParse("SELECT SUM(f9) FROM Ta WHERE f10 > x").(*SelectStmt)
	if s.Items[0].Agg != "SUM" || s.Items[0].Cols[0].Field != 9 {
		t.Fatalf("%+v", s.Items)
	}
	s = mustParse("SELECT AVG(f1), AVG(f7) FROM Ta WHERE f0 < x").(*SelectStmt)
	if len(s.Items) != 2 || s.Items[1].Agg != "AVG" || s.Items[1].Cols[0].Field != 7 {
		t.Fatalf("%+v", s.Items)
	}
}

func TestParseArithmetic(t *testing.T) {
	s := mustParse("SELECT f1 + f2 + f5 FROM Ta WHERE f0 < x").(*SelectStmt)
	if len(s.Items) != 1 || len(s.Items[0].Cols) != 3 {
		t.Fatalf("%+v", s.Items)
	}
	if s.Items[0].Cols[2].Field != 5 {
		t.Fatalf("%+v", s.Items[0])
	}
}

func TestParseJoin(t *testing.T) {
	s := mustParse("SELECT Ta.f3, Tb.f4 FROM Ta, Tb WHERE Ta.f1 > Tb.f1 AND Ta.f9 = Tb.f9").(*SelectStmt)
	if len(s.Tables) != 2 {
		t.Fatalf("tables: %v", s.Tables)
	}
	if s.Items[0].Cols[0].Table != "Ta" || s.Items[1].Cols[0].Table != "Tb" {
		t.Fatalf("items: %+v", s.Items)
	}
	if s.Where[1].Right.Col == nil || s.Where[1].Right.Col.Table != "Tb" {
		t.Fatalf("join predicate: %+v", s.Where[1])
	}
}

func TestParseUpdate(t *testing.T) {
	u := mustParse("UPDATE Tb SET f3 = x, f4 = y WHERE f10 = z").(*UpdateStmt)
	if u.Table != "Tb" || len(u.Sets) != 2 || u.Sets[1].Field != 4 {
		t.Fatalf("%+v", u)
	}
	if u.Sets[0].Value.Param != "x" || u.Where[0].Op != "=" {
		t.Fatalf("%+v", u)
	}
}

func TestParseInsert(t *testing.T) {
	i := mustParse("INSERT INTO Tb VALUES (f0, f1, f2)").(*InsertStmt)
	if i.Table != "Tb" || len(i.Values) != 3 {
		t.Fatalf("%+v", i)
	}
	i = mustParse("INSERT INTO Tb VALUES (1, 2, 300)").(*InsertStmt)
	if !i.Values[2].IsLit || i.Values[2].Lit != 300 {
		t.Fatalf("%+v", i)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"DELETE FROM Ta",
		"SELECT FROM Ta",
		"SELECT f1 FROM",
		"SELECT f1 FROM Ta WHERE",
		"SELECT f1 FROM Ta WHERE f2 >",
		"SELECT f1 FROM Ta WHERE q2 > 3",
		"SELECT f1 FROM Ta LIMIT x",
		"UPDATE Ta SET = 3",
		"INSERT INTO Ta VALUES 1, 2",
		"SELECT f1 FROM Ta extra garbage",
		"SELECT SUM(f1 FROM Ta",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("accepted %q", q)
		}
	}
}

func TestCompileScan(t *testing.T) {
	p, err := Compile(mustParse("SELECT f3, f4 FROM Ta WHERE f10 > x AND f10 < y"), Params{"x": 100, "y": 200})
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != PlanScan || p.Table != "Ta" {
		t.Fatalf("%+v", p)
	}
	if !reflect.DeepEqual(p.PredFields, []int{10}) {
		t.Fatalf("pred fields deduped wrong: %v", p.PredFields)
	}
	if !reflect.DeepEqual(p.ProjFields, []int{3, 4}) {
		t.Fatalf("proj fields: %v", p.ProjFields)
	}
	if !p.Match(func(f int) uint64 { return 150 }) {
		t.Fatal("150 should match (100,200)")
	}
	if p.Match(func(f int) uint64 { return 250 }) {
		t.Fatal("250 should fail < 200")
	}
}

func TestCompileUnboundParam(t *testing.T) {
	if _, err := Compile(mustParse("SELECT f1 FROM Ta WHERE f2 > x"), nil); err == nil {
		t.Fatal("unbound parameter accepted")
	}
}

func TestCompileAggregate(t *testing.T) {
	p, err := Compile(mustParse("SELECT AVG(f1) FROM Tb WHERE f10 > x"), Params{"x": 7})
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != PlanAggregate || p.Aggs[0].Kind != "AVG" || p.Aggs[0].Field != 1 {
		t.Fatalf("%+v", p)
	}
}

func TestCompileArithmeticGroups(t *testing.T) {
	p, err := Compile(mustParse("SELECT f1 + f2 + f3 FROM Ta WHERE f0 < x"), Params{"x": 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.ArithGroups) != 1 || !reflect.DeepEqual(p.ArithGroups[0], []int{1, 2, 3}) {
		t.Fatalf("%+v", p.ArithGroups)
	}
}

func TestCompileJoinNormalizesDirection(t *testing.T) {
	// Predicate written inner-first must flip to outer-first with the
	// comparison reversed.
	p, err := Compile(mustParse("SELECT Ta.f3, Tb.f4 FROM Ta, Tb WHERE Tb.f1 < Ta.f1 AND Ta.f9 = Tb.f9"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != PlanJoin || p.InnerTable != "Tb" {
		t.Fatalf("%+v", p)
	}
	if p.JoinPreds[0].Op != ">" || p.JoinPreds[0].OuterField != 1 {
		t.Fatalf("direction not normalized: %+v", p.JoinPreds[0])
	}
}

func TestCompileUpdateAndInsert(t *testing.T) {
	p, err := Compile(mustParse("UPDATE Tb SET f9 = x WHERE f10 = y"), Params{"x": 11, "y": 22})
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != PlanUpdate || p.Sets[0].Value != 11 || p.Preds[0].Value != 22 {
		t.Fatalf("%+v", p)
	}
	ins, err := Compile(mustParse("INSERT INTO Tb VALUES (5, 6)"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ins.Kind != PlanInsert || len(ins.InsertValues) != 2 || ins.InsertValues[1] != 6 {
		t.Fatalf("%+v", ins)
	}
}

func TestPlanKindString(t *testing.T) {
	for k, want := range map[PlanKind]string{
		PlanScan: "scan", PlanAggregate: "aggregate", PlanUpdate: "update",
		PlanInsert: "insert", PlanJoin: "join", PlanKind(42): "PlanKind(42)",
	} {
		if k.String() != want {
			t.Errorf("%d -> %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestPredicateEval(t *testing.T) {
	cases := []struct {
		pred CompiledPred
		v    uint64
		want bool
	}{
		{CompiledPred{Op: ">", Value: 10}, 11, true},
		{CompiledPred{Op: ">", Value: 10}, 10, false},
		{CompiledPred{Op: "<", Value: 10}, 9, true},
		{CompiledPred{Op: "=", Value: 10}, 10, true},
		{CompiledPred{Op: "=", Value: 10}, 11, false},
	}
	for _, c := range cases {
		if c.pred.Eval(c.v) != c.want {
			t.Errorf("%+v eval(%d) != %v", c.pred, c.v, c.want)
		}
	}
}

func TestColRefString(t *testing.T) {
	if (ColRef{Field: 3}).String() != "f3" {
		t.Fatal("unqualified")
	}
	if (ColRef{Table: "Ta", Field: 3}).String() != "Ta.f3" {
		t.Fatal("qualified")
	}
}

func TestParseNewAggregates(t *testing.T) {
	s := mustParse("SELECT COUNT(f1), MIN(f2), MAX(f3) FROM Ta WHERE f0 < x").(*SelectStmt)
	if len(s.Items) != 3 || s.Items[0].Agg != "COUNT" || s.Items[1].Agg != "MIN" || s.Items[2].Agg != "MAX" {
		t.Fatalf("%+v", s.Items)
	}
	star := mustParse("SELECT COUNT(*) FROM Tb").(*SelectStmt)
	if star.Items[0].Agg != "COUNT" || len(star.Items[0].Cols) != 0 {
		t.Fatalf("%+v", star.Items[0])
	}
}

func TestParseGroupBy(t *testing.T) {
	s := mustParse("SELECT COUNT(*), AVG(f1) FROM Tb WHERE f9 > x GROUP BY f10").(*SelectStmt)
	if s.GroupBy == nil || s.GroupBy.Field != 10 {
		t.Fatalf("group by: %+v", s.GroupBy)
	}
	if _, err := Parse("SELECT COUNT(*) FROM Tb GROUP f10"); err == nil {
		t.Fatal("GROUP without BY accepted")
	}
}

func TestCompileGroupBy(t *testing.T) {
	p, err := Compile(mustParse("SELECT COUNT(*), MAX(f3) FROM Tb GROUP BY f10"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.GroupBy != 10 {
		t.Fatalf("GroupBy = %d", p.GroupBy)
	}
	if p.Aggs[0].Field != -1 || p.Aggs[0].Kind != "COUNT" {
		t.Fatalf("count(*) spec: %+v", p.Aggs[0])
	}
	// GROUP BY reads the grouping field for every match.
	found := false
	for _, f := range p.ProjFields {
		if f == 10 {
			found = true
		}
	}
	if !found {
		t.Fatal("grouping field not in projection set")
	}
	// No grouping on joins.
	if _, err := Compile(mustParse("SELECT Ta.f1, Tb.f2 FROM Ta, Tb WHERE Ta.f3 = Tb.f3 GROUP BY f1"), nil); err == nil {
		t.Fatal("GROUP BY on join accepted")
	}
	// Ungrouped plans mark GroupBy = -1.
	scan, _ := Compile(mustParse("SELECT f1 FROM Ta"), nil)
	if scan.GroupBy != -1 {
		t.Fatal("scan GroupBy should be -1")
	}
}

func TestCompileJoinErrors(t *testing.T) {
	bad := []string{
		// Star/aggregate/arithmetic projections in joins.
		"SELECT * FROM Ta, Tb WHERE Ta.f1 = Tb.f1",
		"SELECT SUM(Ta.f1) FROM Ta, Tb WHERE Ta.f1 = Tb.f1",
		// Projection table not in FROM.
		"SELECT Tc.f1, Tb.f2 FROM Ta, Tb WHERE Ta.f1 = Tb.f1",
		// Filter predicate on a table not in FROM.
		"SELECT Ta.f1, Tb.f2 FROM Ta, Tb WHERE Ta.f1 = Tb.f1 AND Tc.f3 > 5",
		// Join predicate across wrong tables.
		"SELECT Ta.f1, Tb.f2 FROM Ta, Tb WHERE Tc.f1 = Td.f1",
		// GROUP BY on a join.
		"SELECT Ta.f1, Tb.f2 FROM Ta, Tb WHERE Ta.f1 = Tb.f1 GROUP BY f1",
	}
	for _, q := range bad {
		stmt, err := Parse(q)
		if err != nil {
			continue // some are parse-time rejections, equally fine
		}
		if _, err := Compile(stmt, Params{"x": 1}); err == nil {
			t.Errorf("compiled %q", q)
		}
	}
	// The hash join evaluates neither a single-table filter nor a LIMIT, so
	// Compile refuses both and names the construct.
	for q, construct := range map[string]string{
		"SELECT Ta.f3, Tb.f4 FROM Ta, Tb WHERE Ta.f10 = Tb.f10 AND Ta.f10 > 2": "single-table filter",
		"SELECT Ta.f3, Tb.f4 FROM Ta, Tb WHERE Tb.f3 > x AND Ta.f10 = Tb.f10":  "single-table filter",
		"SELECT Ta.f3, Tb.f4 FROM Ta, Tb WHERE Ta.f10 = Tb.f10 LIMIT 5":        "LIMIT",
	} {
		if _, err := Compile(mustParse(q), Params{"x": 1}); err == nil || !strings.Contains(err.Error(), construct) {
			t.Errorf("%q: error %v, want one naming the %s", q, err, construct)
		}
	}
	// Three tables.
	if _, err := Compile(mustParse("SELECT f1 FROM Ta, Tb, Tc"), nil); err == nil {
		t.Error("three-table FROM accepted")
	}
}

func TestCompileInsertParamsAndErrors(t *testing.T) {
	p, err := Compile(mustParse("INSERT INTO Tb VALUES (x, 2)"), Params{"x": 77})
	if err != nil {
		t.Fatal(err)
	}
	if p.InsertValues[0] != 77 {
		t.Fatalf("param insert value: %v", p.InsertValues)
	}
	if _, err := Compile(mustParse("INSERT INTO Tb VALUES (y)"), nil); err == nil {
		t.Error("unbound insert parameter accepted")
	}
	// Column placeholders (the paper's f0, f1, ... style) are deterministic.
	a, _ := Compile(mustParse("INSERT INTO Tb VALUES (f0, f1)"), nil)
	b, _ := Compile(mustParse("INSERT INTO Tb VALUES (f0, f1)"), nil)
	for i := range a.InsertValues {
		if a.InsertValues[i] != b.InsertValues[i] {
			t.Fatal("placeholder values nondeterministic")
		}
	}
}

func TestStmtInterfaceCoverage(t *testing.T) {
	// The marker methods exist purely to seal the interface.
	var stmts = []Stmt{&SelectStmt{}, &UpdateStmt{}, &InsertStmt{}}
	for _, s := range stmts {
		s.stmt()
	}
}

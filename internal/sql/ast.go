package sql

import (
	"fmt"
	"strconv"
)

// ColRef names a column, optionally table-qualified (Ta.f3). Fields follow
// the paper's fN convention; Field is the parsed index.
type ColRef struct {
	Table string // empty when unqualified
	Field int
}

// String renders the reference in source form.
func (c ColRef) String() string {
	if c.Table != "" {
		return fmt.Sprintf("%s.f%d", c.Table, c.Field)
	}
	return fmt.Sprintf("f%d", c.Field)
}

// Operand is a predicate right-hand side: a column, a literal, or a named
// parameter bound at plan time.
type Operand struct {
	Col   *ColRef
	Lit   uint64
	IsLit bool
	Param string // non-empty for named parameters (x, y, z)
}

// Predicate is one comparison in a WHERE conjunction.
type Predicate struct {
	Left  ColRef
	Op    string // ">", "<", "="
	Right Operand
}

// SelectItem is one projection: *, an aggregate over a column (or COUNT of
// all), or a sum of columns (the arithmetic query's fi + fj + ... + fk).
type SelectItem struct {
	Star bool
	Agg  string   // "SUM", "AVG", "COUNT", "MIN", "MAX", or "" for plain
	Cols []ColRef // one entry normally; several for arithmetic expressions
}

// SelectStmt is a parsed SELECT.
type SelectStmt struct {
	Items   []SelectItem
	Tables  []string
	Where   []Predicate
	GroupBy *ColRef // nil when absent
	Limit   int     // -1 when absent
}

// SetClause assigns a field in UPDATE.
type SetClause struct {
	Field int
	Value Operand
}

// UpdateStmt is a parsed UPDATE.
type UpdateStmt struct {
	Table string
	Sets  []SetClause
	Where []Predicate
}

// InsertStmt is a parsed INSERT.
type InsertStmt struct {
	Table  string
	Values []Operand
}

// Stmt is any parsed statement.
type Stmt interface{ stmt() }

func (*SelectStmt) stmt() {}
func (*UpdateStmt) stmt() {}
func (*InsertStmt) stmt() {}

// parseFieldName converts "f12" to 12.
func parseFieldName(name string) (int, error) {
	if len(name) < 2 || (name[0] != 'f' && name[0] != 'F') {
		return 0, fmt.Errorf("sql: %q is not a field name (want fN)", name)
	}
	n, err := strconv.Atoi(name[1:])
	if err != nil || n < 0 {
		return 0, fmt.Errorf("sql: bad field index in %q", name)
	}
	return n, nil
}

// Parser consumes a token stream.
type parser struct {
	toks []Token
	pos  int
}

// Parse parses one statement.
func Parse(src string) (Stmt, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var stmt Stmt
	switch {
	case p.peekKeyword("SELECT"):
		stmt, err = p.parseSelect()
	case p.peekKeyword("UPDATE"):
		stmt, err = p.parseUpdate()
	case p.peekKeyword("INSERT"):
		stmt, err = p.parseInsert()
	default:
		return nil, fmt.Errorf("sql: statement must start with SELECT/UPDATE/INSERT, got %q", p.cur().Text)
	}
	if err != nil {
		return nil, err
	}
	if p.cur().Kind != TokEOF {
		return nil, fmt.Errorf("sql: trailing input at %d: %q", p.cur().Pos, p.cur().Text)
	}
	return stmt, nil
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) peekKeyword(kw string) bool {
	t := p.cur()
	return t.Kind == TokKeyword && t.Text == kw
}

func (p *parser) expectKeyword(kw string) error {
	if !p.peekKeyword(kw) {
		return fmt.Errorf("sql: expected %s at %d, got %q", kw, p.cur().Pos, p.cur().Text)
	}
	p.next()
	return nil
}

func (p *parser) acceptSymbol(s string) bool {
	if t := p.cur(); t.Kind == TokSymbol && t.Text == s {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectSymbol(s string) error {
	if !p.acceptSymbol(s) {
		return fmt.Errorf("sql: expected %q at %d, got %q", s, p.cur().Pos, p.cur().Text)
	}
	return nil
}

// parseColRef parses f3 or Ta.f3.
func (p *parser) parseColRef() (ColRef, error) {
	t := p.cur()
	if t.Kind != TokIdent {
		return ColRef{}, fmt.Errorf("sql: expected column at %d, got %q", t.Pos, t.Text)
	}
	p.next()
	if p.acceptSymbol(".") {
		ft := p.next()
		if ft.Kind != TokIdent {
			return ColRef{}, fmt.Errorf("sql: expected field after %q.", t.Text)
		}
		f, err := parseFieldName(ft.Text)
		if err != nil {
			return ColRef{}, err
		}
		return ColRef{Table: t.Text, Field: f}, nil
	}
	f, err := parseFieldName(t.Text)
	if err != nil {
		return ColRef{}, err
	}
	return ColRef{Field: f}, nil
}

// parseOperand parses a predicate/assignment RHS: column, number, or
// parameter name.
func (p *parser) parseOperand() (Operand, error) {
	t := p.cur()
	switch t.Kind {
	case TokNumber:
		p.next()
		v, err := strconv.ParseUint(t.Text, 10, 64)
		if err != nil {
			return Operand{}, fmt.Errorf("sql: bad number %q", t.Text)
		}
		return Operand{Lit: v, IsLit: true}, nil
	case TokIdent:
		// Field name, qualified column, or parameter.
		if _, err := parseFieldName(t.Text); err == nil || p.toks[p.pos+1].Text == "." {
			col, err := p.parseColRef()
			if err != nil {
				return Operand{}, err
			}
			return Operand{Col: &col}, nil
		}
		p.next()
		return Operand{Param: t.Text}, nil
	default:
		return Operand{}, fmt.Errorf("sql: expected operand at %d, got %q", t.Pos, t.Text)
	}
}

func (p *parser) parseWhere() ([]Predicate, error) {
	if !p.peekKeyword("WHERE") {
		return nil, nil
	}
	p.next()
	var preds []Predicate
	for {
		left, err := p.parseColRef()
		if err != nil {
			return nil, err
		}
		op := p.cur()
		if op.Kind != TokSymbol || (op.Text != ">" && op.Text != "<" && op.Text != "=") {
			return nil, fmt.Errorf("sql: expected comparison at %d, got %q", op.Pos, op.Text)
		}
		p.next()
		right, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		preds = append(preds, Predicate{Left: left, Op: op.Text, Right: right})
		if !p.peekKeyword("AND") {
			return preds, nil
		}
		p.next()
	}
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	p.next() // SELECT
	s := &SelectStmt{Limit: -1}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		t := p.next()
		if t.Kind != TokIdent {
			return nil, fmt.Errorf("sql: expected table name at %d, got %q", t.Pos, t.Text)
		}
		s.Tables = append(s.Tables, t.Text)
		if !p.acceptSymbol(",") {
			break
		}
	}
	var err error
	if s.Where, err = p.parseWhere(); err != nil {
		return nil, err
	}
	if p.peekKeyword("GROUP") {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		col, err := p.parseColRef()
		if err != nil {
			return nil, err
		}
		s.GroupBy = &col
	}
	if p.peekKeyword("LIMIT") {
		p.next()
		t := p.next()
		if t.Kind != TokNumber {
			return nil, fmt.Errorf("sql: LIMIT needs a number, got %q", t.Text)
		}
		n, _ := strconv.Atoi(t.Text)
		s.Limit = n
	}
	return s, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.acceptSymbol("*") {
		return SelectItem{Star: true}, nil
	}
	if p.peekKeyword("SUM") || p.peekKeyword("AVG") || p.peekKeyword("COUNT") ||
		p.peekKeyword("MIN") || p.peekKeyword("MAX") {
		agg := p.next().Text
		if err := p.expectSymbol("("); err != nil {
			return SelectItem{}, err
		}
		if agg == "COUNT" && p.acceptSymbol("*") {
			if err := p.expectSymbol(")"); err != nil {
				return SelectItem{}, err
			}
			return SelectItem{Agg: agg}, nil
		}
		col, err := p.parseColRef()
		if err != nil {
			return SelectItem{}, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return SelectItem{}, err
		}
		return SelectItem{Agg: agg, Cols: []ColRef{col}}, nil
	}
	// Plain column or arithmetic sum fi + fj + ... + fk.
	col, err := p.parseColRef()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Cols: []ColRef{col}}
	for p.acceptSymbol("+") {
		c, err := p.parseColRef()
		if err != nil {
			return SelectItem{}, err
		}
		item.Cols = append(item.Cols, c)
	}
	return item, nil
}

func (p *parser) parseUpdate() (*UpdateStmt, error) {
	p.next() // UPDATE
	t := p.next()
	if t.Kind != TokIdent {
		return nil, fmt.Errorf("sql: expected table after UPDATE, got %q", t.Text)
	}
	u := &UpdateStmt{Table: t.Text}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.parseColRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		val, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		u.Sets = append(u.Sets, SetClause{Field: col.Field, Value: val})
		if !p.acceptSymbol(",") {
			break
		}
	}
	var err error
	if u.Where, err = p.parseWhere(); err != nil {
		return nil, err
	}
	return u, nil
}

func (p *parser) parseInsert() (*InsertStmt, error) {
	p.next() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	t := p.next()
	if t.Kind != TokIdent {
		return nil, fmt.Errorf("sql: expected table after INTO, got %q", t.Text)
	}
	ins := &InsertStmt{Table: t.Text}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	for {
		op, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		ins.Values = append(ins.Values, op)
		if p.acceptSymbol(")") {
			break
		}
		if err := p.expectSymbol(","); err != nil {
			return nil, err
		}
	}
	return ins, nil
}

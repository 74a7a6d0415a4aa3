package sql_test

import (
	"fmt"
	"strings"
	"testing"

	"sam/internal/core"
	"sam/internal/sql"
)

// fig15SQL renders the two Fig. 15 sweep templates, arithmetic and
// aggregate, over fields f0..f(n-1), as the sweep driver builds them.
func fig15SQL(n int) []string {
	var sum, avg []string
	for f := 0; f < n; f++ {
		sum = append(sum, fmt.Sprintf("f%d", f))
		avg = append(avg, fmt.Sprintf("AVG(f%d)", f))
	}
	return []string{
		fmt.Sprintf("SELECT %s FROM T WHERE f0 < x", strings.Join(sum, " + ")),
		fmt.Sprintf("SELECT %s FROM T WHERE f0 < x", strings.Join(avg, ", ")),
	}
}

// FuzzParse feeds arbitrary text to the parser and planner, seeded with
// every Table 3 query, the Fig. 15 templates and the join forms Compile
// refuses (a single-table filter, a LIMIT): SQL is an input surface
// (samdb accepts any text), so neither step may panic, whatever it is
// given.
func FuzzParse(f *testing.F) {
	for _, q := range core.Benchmark() {
		f.Add(q.SQL)
	}
	for _, n := range []int{1, 8, 128} {
		for _, s := range fig15SQL(n) {
			f.Add(s)
		}
	}
	f.Add("SELECT Ta.f3, Tb.f4 FROM Ta, Tb WHERE Ta.f10 = Tb.f10 AND Ta.f10 > 2")
	f.Add("SELECT Ta.f3, Tb.f4 FROM Ta, Tb WHERE Ta.f10 = Tb.f10 LIMIT 5")
	params := sql.Params{"x": 2, "y": 2, "z": 3}
	f.Fuzz(func(t *testing.T, src string) {
		if stmt, err := sql.Parse(src); err == nil {
			sql.Compile(stmt, params) // an error is fine; a panic is not
		}
	})
}

package core

import (
	"fmt"

	"sam/internal/design"
	"sam/internal/dram"
	"sam/internal/stats"
)

// Table1 reproduces the qualitative design comparison (Table 1). Marks
// follow the paper: "+" good/unmodified, "o" fair/slightly modified,
// "x" poor/modified.
func Table1() *stats.Table {
	kinds := []design.Kind{
		design.RCNVMBit, design.RCNVMWd, design.GSDRAM,
		design.SAMSub, design.SAMIO, design.SAMEn,
	}
	header := []string{"aspect"}
	for _, k := range kinds {
		header = append(header, k.String())
	}
	tb := stats.NewTable(header...)

	mark := func(vals ...string) []string { return vals }
	rows := []struct {
		aspect string
		marks  []string
	}{
		// System support: every design needs alignment, ISA, sector cache.
		{"database alignment", mark("o", "o", "o", "o", "o", "o")},
		{"ISA extension", mark("o", "o", "o", "o", "o", "o")},
		{"sector/MDA cache", mark("o", "o", "o", "o", "o", "o")},
		// Interface.
		{"memory controller", mark("+", "+", "x", "+", "+", "+")},
		{"command interface", mark("+", "+", "x", "+", "+", "+")},
		{"critical-word-first", mark("+", "+", "x", "+", "x", "+")},
		// Memory device.
		{"performance", mark("x", "x", "+", "o", "+", "+")},
		{"power consumption", mark("o", "o", "+", "+", "o", "+")},
		{"area overhead", mark("x", "x", "+", "o", "+", "+")},
		{"reliability", mark("+", "+", "x", "+", "+", "+")},
		{"mode switch delay", mark("o", "o", "+", "o", "o", "o")},
	}
	for _, r := range rows {
		tb.AddRow(append([]string{r.aspect}, r.marks...)...)
	}
	return tb
}

// Table2 dumps the simulated system parameters.
func Table2() *stats.Table {
	tb := stats.NewTable("component", "parameter", "value")
	add := func(c, p, v string) { tb.AddRow(c, p, v) }

	add("Processor", "cores", "4 @ 4.0 GHz, x86-class simple timing cores")
	add("Processor", "caches", "L1 32KB, L2 256KB, LLC 8MB; 64B lines, 8-way")
	add("Controller", "write queue", "32 entries, drain 24->8")
	add("Controller", "mapping", "rw:rk:bk:ch:cl:offset, open-page, FR-FCFS")

	for _, cfg := range []dram.Config{dram.DDR4_2400(), dram.RRAM()} {
		t := cfg.Timing
		g := cfg.Geometry
		add(cfg.Name, "interface", fmt.Sprintf("x4 I/O, %d channel, %d ranks, %d banks/rank", g.Channels, g.Ranks, g.Banks()))
		add(cfg.Name, "arrays", fmt.Sprintf("%d subarrays x %d rows, %dB row", g.SubarraysPerBank, g.RowsPerSubarray, g.RowBytes))
		add(cfg.Name, "CL-nRCD-nRP", fmt.Sprintf("%d-%d-%d", t.CL, t.TRCD, t.TRP))
		add(cfg.Name, "nRTR-nCCDS-nCCDL", fmt.Sprintf("%d-%d-%d", t.TRTR, t.TCCDS, t.TCCDL))
	}
	return tb
}

// Table3 parses and compiles every benchmark query, proving the SQL layer
// digests the paper's workload verbatim; the output lists each plan shape.
func Table3() (*stats.Table, error) {
	tb := stats.NewTable("query", "class", "plan", "pred fields", "proj fields", "sql")
	for _, q := range Benchmark() {
		plan, err := RunSpec{Query: q}.compile()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		proj := fmt.Sprintf("%v", plan.ProjFields)
		if plan.WholeRecord {
			proj = "*"
		}
		tb.AddRow(q.Name, q.Class.String(), plan.Kind.String(),
			fmt.Sprintf("%v", plan.PredFields), proj, q.SQL)
	}
	return tb, nil
}

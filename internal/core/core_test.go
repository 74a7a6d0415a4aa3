package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"sam/internal/design"
	"sam/internal/sql"
)

func tiny() Workload { return Workload{TaRecords: 512, TbRecords: 2048, Seed: 0xBEEF} }

func TestBenchmarkSetComplete(t *testing.T) {
	qs := Benchmark()
	if len(qs) != 18 {
		t.Fatalf("benchmark has %d queries, want 18 (Q1-Q12 + Qs1-Qs6)", len(qs))
	}
	var q, qsCount int
	for _, b := range qs {
		if b.Class == ClassQ {
			q++
		} else {
			qsCount++
		}
		// Every query must parse and compile with its bound parameters.
		stmt, err := sql.Parse(b.SQL)
		if err != nil {
			t.Errorf("%s: parse: %v", b.Name, err)
			continue
		}
		params := b.Params
		if params == nil {
			params = sql.Params{}
		}
		if _, err := sql.Compile(stmt, params); err != nil {
			t.Errorf("%s: compile: %v", b.Name, err)
		}
	}
	if q != 12 || qsCount != 6 {
		t.Fatalf("class split %d/%d, want 12/6", q, qsCount)
	}
	if ClassQ.String() != "Q" || ClassQs.String() != "Qs" {
		t.Error("class names")
	}
}

func TestWriteFlags(t *testing.T) {
	writes := map[string]bool{"Q11": true, "Q12": true, "Qs5": true, "Qs6": true}
	for _, q := range Benchmark() {
		if q.IsWrite != writes[q.Name] {
			t.Errorf("%s IsWrite = %v", q.Name, q.IsWrite)
		}
	}
}

func TestRunOneAndComparison(t *testing.T) {
	w := tiny()
	q := Benchmark()[2] // Q3
	rs, err := RunComparison(context.Background(), []design.Kind{design.SAMEn, design.RCNVMWd}, design.Options{}, w, q, Par{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("%d results", len(rs))
	}
	for _, r := range rs {
		if r.Speedup <= 0 {
			t.Fatalf("%s speedup %v", r.Design, r.Speedup)
		}
	}
	// On a column-preferring query SAM-en must beat RC-NVM-wd (Fig. 12's
	// core ordering).
	if rs[0].Speedup <= rs[1].Speedup {
		t.Fatalf("SAM-en (%.2f) should beat RC-NVM-wd (%.2f) on Q3", rs[0].Speedup, rs[1].Speedup)
	}
}

func TestHeadlineOrdering(t *testing.T) {
	// The paper's headline result at small scale: on Q queries,
	// SAM-en >= SAM-sub >= RC-NVM-wd and every SAM >= 1; on Qs queries,
	// SAM-IO/en do not degrade while RC-NVM does.
	w := tiny()
	q3 := Benchmark()[2]   // Q3 (column-preferring)
	qs4 := Benchmark()[15] // Qs4 (row-preferring)

	get := func(q BenchQuery, k design.Kind) float64 {
		rs, err := RunComparison(context.Background(), []design.Kind{k}, design.Options{}, w, q, Par{})
		if err != nil {
			t.Fatal(err)
		}
		return rs[0].Speedup
	}
	samEn := get(q3, design.SAMEn)
	samSub := get(q3, design.SAMSub)
	rcWd := get(q3, design.RCNVMWd)
	if !(samEn >= samSub*0.95 && samSub > rcWd*0.95 && samEn > 2) {
		t.Fatalf("Q3 ordering broken: SAM-en %.2f SAM-sub %.2f RC-NVM-wd %.2f", samEn, samSub, rcWd)
	}
	if v := get(qs4, design.SAMEn); v < 0.97 {
		t.Fatalf("SAM-en degrades Qs4: %.2f", v)
	}
	if v := get(qs4, design.RCNVMWd); v > 0.9 {
		t.Fatalf("RC-NVM-wd should degrade Qs4, got %.2f", v)
	}
}

func TestFunctionalMismatchDetected(t *testing.T) {
	// RunComparison validates results; feeding it inconsistent workloads
	// must fail loudly. Simulate by comparing different seeds via direct
	// construction.
	w := tiny()
	q := Benchmark()[0]
	a, err := RunSpec{Design: design.Baseline, Workload: w, Query: q}.Run()
	if err != nil {
		t.Fatal(err)
	}
	w2 := w
	w2.Seed++
	b, err := RunSpec{Design: design.Baseline, Workload: w2, Query: q}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows == b.Rows && a.ProjChecks == b.ProjChecks {
		t.Fatal("different seeds produced identical results; mismatch detection untestable")
	}
}

func TestTable1Rendering(t *testing.T) {
	out := Table1().String()
	for _, want := range []string{"SAM-en", "RC-NVM-bit", "reliability", "critical-word-first"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 1 missing %q", want)
		}
	}
}

func TestTable1AgreesWithModels(t *testing.T) {
	derived := Table1Derived()
	if derived["GS-DRAM"]["reliability"] {
		t.Error("GS-DRAM must not have ECC")
	}
	if !derived["SAM-en"]["reliability"] || !derived["SAM-IO"]["reliability"] {
		t.Error("SAM designs keep chipkill")
	}
	if derived["SAM-IO"]["critical-word-first"] {
		t.Error("SAM-IO loses critical-word-first")
	}
	if !derived["SAM-en"]["critical-word-first"] {
		t.Error("SAM-en keeps critical-word-first")
	}
	if !derived["SAM-IO"]["low-area"] {
		t.Error("SAM-IO is the near-zero-area design")
	}
	if derived["RC-NVM-wd"]["low-area"] {
		t.Error("RC-NVM-wd is not low-area")
	}
}

func TestTable2Rendering(t *testing.T) {
	out := Table2().String()
	for _, want := range []string{"DDR4-2400", "RRAM", "17-17-17", "17-35-1", "FR-FCFS"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 2 missing %q", want)
		}
	}
}

func TestTable3PlansAll(t *testing.T) {
	tb, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	out := tb.String()
	for _, q := range Benchmark() {
		if !strings.Contains(out, q.Name+" ") && !strings.Contains(out, q.Name+"\t") && !strings.Contains(out, q.Name) {
			t.Errorf("table 3 missing %s", q.Name)
		}
	}
	if !strings.Contains(out, "join") || !strings.Contains(out, "update") || !strings.Contains(out, "insert") {
		t.Error("table 3 missing plan kinds")
	}
}

func TestFig14c(t *testing.T) {
	fig := Fig14c()
	samIO, ok := fig.Value("area", "SAM-IO")
	if !ok || samIO > 0.001 {
		t.Fatalf("SAM-IO area = %v", samIO)
	}
	rc, _ := fig.Value("area", "RC-NVM-wd")
	if rc < 0.3 {
		t.Fatalf("RC-NVM-wd area = %v", rc)
	}
	storage, _ := fig.Value("storage", "GS-DRAM-ecc")
	if storage < 0.12 || storage > 0.13 {
		t.Fatalf("GS-DRAM-ecc storage = %v", storage)
	}
	if tbl := fig.Table().String(); !strings.Contains(tbl, "storage") {
		t.Error("figure table missing rows")
	}
}

func TestFigureHelpers(t *testing.T) {
	fig := &Figure{ID: "t", Cells: []Cell{{X: "a", Design: "d1", Value: 2}}}
	if v, ok := fig.Value("a", "d1"); !ok || v != 2 {
		t.Fatal("figure value lookup")
	}
	if _, ok := fig.Value("a", "nope"); ok {
		t.Fatal("missing design found")
	}
	out := fig.Table().String()
	if !strings.Contains(out, "2.00") {
		t.Fatalf("figure table render: %s", out)
	}
}

func TestSweepPointShapes(t *testing.T) {
	// Selectivity up at fixed projectivity -> SAM-en speedup should not
	// collapse; full projectivity + full selectivity -> near parity.
	lo, err := RunSweepPoint(context.Background(), SweepPoint{Query: Arithmetic, Selectivity: 0.10, Projected: 8}, 512, Par{})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := RunSweepPoint(context.Background(), SweepPoint{Query: Arithmetic, Selectivity: 1.0, Projected: 8}, 512, Par{})
	if err != nil {
		t.Fatal(err)
	}
	if hi["SAM-en"] <= lo["SAM-en"] {
		t.Fatalf("speedup should rise with selectivity: %.2f -> %.2f", lo["SAM-en"], hi["SAM-en"])
	}
	flat, err := RunSweepPoint(context.Background(), SweepPoint{Query: Arithmetic, Selectivity: 1.0, Projected: 128}, 512, Par{})
	if err != nil {
		t.Fatal(err)
	}
	if flat["SAM-en"] < 0.9 || flat["SAM-en"] > 1.3 {
		t.Fatalf("full projectivity should be near parity, got %.2f", flat["SAM-en"])
	}
	if flat["ideal"] < 1 || flat["ideal"] > 1.1 {
		t.Fatalf("ideal at full projectivity should sit at row-store parity, got %.3f", flat["ideal"])
	}
}

func TestSweepDegenerateRecordSize(t *testing.T) {
	vals, err := RunSweepPoint(context.Background(), SweepPoint{Query: Arithmetic, Selectivity: 1.0, Projected: 1, RecordBytes: 8}, 256, Par{})
	if err != nil {
		t.Fatal(err)
	}
	for d, v := range vals {
		if v <= 0 {
			t.Errorf("%s: non-positive speedup %v", d, v)
		}
	}
}

func TestSweepAggregateTemplate(t *testing.T) {
	vals, err := RunSweepPoint(context.Background(), SweepPoint{Query: Aggregate, Selectivity: 0.5, Projected: 4}, 256, Par{})
	if err != nil {
		t.Fatal(err)
	}
	if vals["SAM-en"] <= 1 {
		t.Fatalf("aggregate sweep SAM-en = %.2f", vals["SAM-en"])
	}
}

func TestWorkloadDefaults(t *testing.T) {
	d := DefaultWorkload()
	if d.TaRecords*1024 < 16<<20 {
		t.Error("default Ta should exceed the 8MB LLC comfortably")
	}
	s := SmallWorkload()
	if s.TaRecords >= d.TaRecords {
		t.Error("small workload should be smaller")
	}
}

// TestPaperShapeRegression is the scientific regression suite: the
// qualitative claims of Section 6 must hold at test scale. Guarded by
// -short because it runs the whole benchmark on every design.
func TestPaperShapeRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-shape regression skipped in short mode")
	}
	w := Workload{TaRecords: 1 << 10, TbRecords: 8 << 10, Seed: 0x9A9E12}
	fig, err := Fig12(context.Background(), w, Par{})
	if err != nil {
		t.Fatal(err)
	}
	gm := func(x, d string) float64 {
		v, ok := fig.Value(x, d)
		if !ok {
			t.Fatalf("missing cell (%s,%s)", x, d)
		}
		return v
	}

	samEn := gm("Gmean-Q", "SAM-en")
	samIO := gm("Gmean-Q", "SAM-IO")
	samSub := gm("Gmean-Q", "SAM-sub")
	gsEcc := gm("Gmean-Q", "GS-DRAM-ecc")
	rcWd := gm("Gmean-Q", "RC-NVM-wd")
	rcBit := gm("Gmean-Q", "RC-NVM-bit")

	// Headline ordering (paper: 4.2 >= 4.1 > 3.8 > 3.4 > 2.7 > 2.6).
	if !(samEn >= samIO && samIO > samSub && samSub > rcWd*0.95 && rcWd > gsEcc*0.9 && gsEcc > rcBit*0.9) {
		t.Fatalf("Q-gmean ordering broken: en=%.2f io=%.2f sub=%.2f rcwd=%.2f gsecc=%.2f rcbit=%.2f",
			samEn, samIO, samSub, rcWd, gsEcc, rcBit)
	}
	// Rough factors: SAM-en in the 3.5..6 band, baselines meaningfully less.
	if samEn < 3.5 || samEn > 6.5 {
		t.Fatalf("SAM-en Q gmean %.2f outside the expected band", samEn)
	}
	// The central claim: SAM-IO/en do not degrade the row-preferring set.
	for _, d := range []string{"SAM-IO", "SAM-en", "GS-DRAM", "ideal"} {
		if v := gm("Gmean-Qs", d); v < 0.97 {
			t.Fatalf("%s degrades Qs queries: %.3f", d, v)
		}
	}
	// The dual-addressing designs do.
	for _, d := range []string{"SAM-sub", "RC-NVM-wd", "RC-NVM-bit"} {
		if v := gm("Gmean-Qs", d); v > 0.95 {
			t.Fatalf("%s should show a Qs penalty, got %.3f", d, v)
		}
	}
	// Per-query spot checks: Q2 (mostly-false scan) is a best case for
	// every strided design; updates on NVM collapse below baseline.
	if v := gm("Q2", "SAM-en"); v < 4 {
		t.Fatalf("Q2 SAM-en = %.2f, want a large win", v)
	}
	if v := gm("Q12", "RC-NVM-wd"); v > 1 {
		t.Fatalf("Q12 RC-NVM-wd = %.2f, want below baseline (RRAM writes)", v)
	}
}

func TestFig14bMonotonicGranularity(t *testing.T) {
	if testing.Short() {
		t.Skip("granularity sweep skipped in short mode")
	}
	w := Workload{TaRecords: 512, TbRecords: 4096, Seed: 0x14B}
	fig, err := Fig14b(context.Background(), w, Par{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"SAM-en", "GS-DRAM-ecc", "RC-NVM-wd"} {
		g16, _ := fig.Value("16-bit", d)
		g8, _ := fig.Value("8-bit", d)
		g4, _ := fig.Value("4-bit", d)
		if !(g16 <= g8 && g8 <= g4) {
			t.Fatalf("%s granularity not monotonic: %.2f %.2f %.2f", d, g16, g8, g4)
		}
	}
	// SAM-en on top at every granularity (the paper's Fig. 14b).
	for _, x := range []string{"16-bit", "8-bit", "4-bit"} {
		sam, _ := fig.Value(x, "SAM-en")
		for _, d := range []string{"GS-DRAM-ecc", "RC-NVM-wd"} {
			v, _ := fig.Value(x, d)
			if v > sam {
				t.Fatalf("%s beats SAM-en at %s: %.2f vs %.2f", d, x, v, sam)
			}
		}
	}
}

func TestFig13Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("power study skipped in short mode")
	}
	w := Workload{TaRecords: 512, TbRecords: 2048, Seed: 0xF13}
	rows, err := Fig13(context.Background(), w, Par{})
	if err != nil {
		t.Fatal(err)
	}
	get := func(cat, d string) Fig13Row {
		for _, r := range rows {
			if r.Category == cat && r.Design == d {
				return r
			}
		}
		t.Fatalf("missing row (%s,%s)", cat, d)
		return Fig13Row{}
	}
	readCat := "Read(Q1-Q10)"
	base := get(readCat, "baseline")
	samIO := get(readCat, "SAM-IO")
	samEn := get(readCat, "SAM-en")
	rcWd := get(readCat, "RC-NVM-wd")

	// SAM-IO draws more power than baseline but is more energy efficient
	// (the Fig. 13 headline).
	if samIO.TotalMW <= base.TotalMW*1.2 {
		t.Fatalf("SAM-IO read power %.0f vs baseline %.0f: x16 fetch not visible", samIO.TotalMW, base.TotalMW)
	}
	if samIO.EnergyEff <= 1.5 {
		t.Fatalf("SAM-IO energy efficiency %.2f", samIO.EnergyEff)
	}
	// SAM-en's fine-grained activation keeps power near baseline.
	if samEn.TotalMW >= samIO.TotalMW*0.8 {
		t.Fatalf("SAM-en power %.0f not clearly below SAM-IO %.0f", samEn.TotalMW, samIO.TotalMW)
	}
	// RRAM background is near zero.
	if rcWd.Background >= base.Background/5 {
		t.Fatalf("RC-NVM background %.0f vs DRAM %.0f", rcWd.Background, base.Background)
	}
	// Write-Qs category: NVM efficiency collapses below baseline.
	if eff := get("Write(Qs5,Qs6)", "RC-NVM-wd").EnergyEff; eff >= 0.9 {
		t.Fatalf("RC-NVM write efficiency %.2f, want collapsed", eff)
	}
	// Every baseline row normalizes to 1.0.
	for _, cat := range Fig13Categories() {
		if eff := get(cat.Name, "baseline").EnergyEff; eff != 1 {
			t.Fatalf("baseline efficiency in %s = %v", cat.Name, eff)
		}
	}
}

func TestFig14aShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("substrate swap skipped in short mode")
	}
	w := Workload{TaRecords: 512, TbRecords: 2048, Seed: 0xF14}
	fig, err := Fig14a(context.Background(), w, Par{})
	if err != nil {
		t.Fatal(err)
	}
	v := func(x, d string) float64 {
		val, ok := fig.Value(x, d)
		if !ok {
			t.Fatalf("missing (%s,%s)", x, d)
		}
		return val
	}
	// Claim 1: RC-NVM-wd and SAM-sub nearly identical per substrate.
	for _, sub := range []string{"NVM", "DRAM"} {
		rc, ss := v(sub, "RC-NVM-wd"), v(sub, "SAM-sub")
		if rc > ss*1.15 || ss > rc*1.25 {
			t.Fatalf("%s: RC-NVM-wd %.2f vs SAM-sub %.2f not 'nearly the same'", sub, rc, ss)
		}
	}
	// Claim 2: SAM-IO/en beat RC-NVM-wd on both substrates; DRAM beats NVM.
	for _, sub := range []string{"NVM", "DRAM"} {
		if v(sub, "SAM-en") <= v(sub, "RC-NVM-wd") {
			t.Fatalf("%s: SAM-en does not beat RC-NVM-wd", sub)
		}
	}
	for _, d := range []string{"RC-NVM-wd", "SAM-sub", "SAM-IO", "SAM-en"} {
		if v("DRAM", d) <= v("NVM", d) {
			t.Fatalf("%s: DRAM substrate not faster than NVM", d)
		}
	}
}

func TestFig15SweepRunners(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runners skipped in short mode")
	}
	// Axes are sane.
	if len(Fig15Selectivities()) < 4 || Fig15Selectivities()[0] != 0.10 {
		t.Fatal("selectivity axis")
	}
	if len(Fig15Projectivities()) < 5 || len(Fig15RecordSizes()) < 5 {
		t.Fatal("axes too sparse")
	}
	// Each runner produces a full grid (trim the axes via tiny tables to
	// keep this fast: one point per axis value, four designs each).
	fig, err := Fig15SelectivitySweep(context.Background(), Arithmetic, 8, 256, Par{})
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(Fig15Selectivities()) * 4 // three designs + ideal
	if len(fig.Cells) != wantCells {
		t.Fatalf("selectivity sweep has %d cells, want %d", len(fig.Cells), wantCells)
	}
	fig, err = Fig15ProjectivitySweep(context.Background(), Aggregate, 0.5, 256, Par{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Cells) != len(Fig15Projectivities())*4 {
		t.Fatalf("projectivity sweep cells: %d", len(fig.Cells))
	}
	fig, err = Fig15RecordSizeSweep(context.Background(), 256, Par{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Cells) != len(Fig15RecordSizes())*4 {
		t.Fatalf("record-size sweep cells: %d", len(fig.Cells))
	}
	// Panel (i)'s shape at test scale: SAM-en stays near parity everywhere.
	for _, rb := range Fig15RecordSizes() {
		v, ok := fig.Value(fmt.Sprintf("%dB", rb), "SAM-en")
		if !ok || v < 0.85 || v > 1.2 {
			t.Fatalf("record size %dB: SAM-en %.2f not near parity", rb, v)
		}
	}
}

package sim

import (
	"reflect"
	"testing"

	"sam/internal/design"
	"sam/internal/fault"
	"sam/internal/imdb"
	"sam/internal/sql"
	"sam/internal/trace"
)

// deadChip is the single-dead-chip model (samsim -fault-chips N builds
// the same): chip dead on every rank, everything else default.
func deadChip(chip int, seed uint64) *FaultModel {
	return &FaultModel{Seed: seed, DeadChips: []fault.ChipFault{{Rank: -1, Chip: chip}}}
}

func testSystem(kind design.Kind, taRecords, tbRecords int, colStore bool) *System {
	d := design.New(kind, design.Options{})
	s := NewSystem(d)
	s.AddTable(imdb.NewTable(imdb.Ta(taRecords), 0x5EED), colStore)
	s.AddTable(imdb.NewTable(imdb.Tb(tbRecords), 0x5EED+1), colStore)
	return s
}

func sel25() sql.Params { return sql.Params{"x": 2} }

func TestRunQueryBasics(t *testing.T) {
	s := testSystem(design.Baseline, 512, 512, false)
	r, err := s.RunQuery("SELECT SUM(f9) FROM Ta WHERE f10 > x", sel25())
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows == 0 || r.Rows == 512 {
		t.Fatalf("25%% selectivity matched %d of 512", r.Rows)
	}
	if r.Aggregates[0] <= 0 {
		t.Fatal("sum aggregate not computed")
	}
	if r.Stats.Cycles <= 0 || r.Stats.MemRequests == 0 {
		t.Fatalf("stats empty: %+v", r.Stats)
	}
}

func TestFunctionalEquivalenceAcrossDesigns(t *testing.T) {
	// Invariant 9: every design returns identical results; only timing may
	// differ.
	queries := []struct {
		sql    string
		params sql.Params
	}{
		{"SELECT f3, f4 FROM Ta WHERE f10 > x", sel25()},
		{"SELECT SUM(f9) FROM Tb WHERE f10 > x", sel25()},
		{"SELECT AVG(f1) FROM Ta WHERE f10 > x", sel25()},
		{"SELECT f1 + f2 + f5 FROM Ta WHERE f0 < x", sql.Params{"x": imdb.Percentile(0.5)}},
		{"SELECT * FROM Tb WHERE f10 > x", sel25()},
		{"SELECT Ta.f3, Tb.f4 FROM Ta, Tb WHERE Ta.f9 = Tb.f9", nil},
	}
	kinds := append([]design.Kind{design.Baseline}, design.AllEvaluated()...)
	for _, q := range queries {
		var ref *QueryResult
		for _, k := range kinds {
			s := testSystem(k, 256, 512, k == design.Ideal)
			r, err := s.RunQuery(q.sql, q.params)
			if err != nil {
				t.Fatalf("%v %q: %v", k, q.sql, err)
			}
			if ref == nil {
				ref = r
				continue
			}
			if r.Rows != ref.Rows || r.ProjChecks != ref.ProjChecks || r.ArithChecks != ref.ArithChecks {
				t.Fatalf("%v %q: functional mismatch (rows %d vs %d, proj %x vs %x)",
					k, q.sql, r.Rows, ref.Rows, r.ProjChecks, ref.ProjChecks)
			}
			if len(r.Aggregates) != len(ref.Aggregates) {
				t.Fatalf("%v: aggregate count mismatch", k)
			}
			for i := range r.Aggregates {
				if r.Aggregates[i] != ref.Aggregates[i] {
					t.Fatalf("%v: aggregate %d = %v vs %v", k, i, r.Aggregates[i], ref.Aggregates[i])
				}
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	// Invariant 7: identical configuration -> identical cycles and energy.
	run := func() *QueryResult {
		s := testSystem(design.SAMEn, 256, 256, false)
		r, err := s.RunQuery("SELECT f3, f4 FROM Ta WHERE f10 > x", sel25())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Stats.Cycles != b.Stats.Cycles {
		t.Fatalf("cycles differ: %d vs %d", a.Stats.Cycles, b.Stats.Cycles)
	}
	if a.Stats.Energy.Total() != b.Stats.Energy.Total() {
		t.Fatal("energy differs between identical runs")
	}
	if !reflect.DeepEqual(a.Stats.Device, b.Stats.Device) {
		t.Fatalf("device stats differ: %+v vs %+v", a.Stats.Device, b.Stats.Device)
	}
}

func TestProtocolAuditEndToEnd(t *testing.T) {
	// Invariant 6 at system level: a full query run issues only legal
	// command sequences, for a DRAM design and an NVM design.
	for _, k := range []design.Kind{design.SAMEn, design.RCNVMWd, design.Baseline, design.GSDRAMecc} {
		d := design.New(k, design.Options{})
		s := NewSystem(d)
		s.Audit = true
		s.reset()
		s.AddTable(imdb.NewTable(imdb.Ta(256), 7), false)
		s.AddTable(imdb.NewTable(imdb.Tb(256), 8), false)
		if _, err := s.RunQuery("SELECT f3, f4 FROM Ta WHERE f10 > x", sel25()); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if _, err := s.RunQuery("UPDATE Tb SET f3 = x WHERE f10 = y", sql.Params{"x": 5, "y": 3}); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if !s.Controller.Audit.Ok() {
			t.Fatalf("%v: protocol violations; first: %s", k, s.Controller.Audit.Violations[0])
		}
	}
}

func TestUpdateWritesBack(t *testing.T) {
	s := testSystem(design.SAMEn, 128, 512, false)
	r, err := s.RunQuery("UPDATE Tb SET f3 = x, f4 = y WHERE f10 = z", sql.Params{"x": 42, "y": 43, "z": 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows == 0 {
		t.Fatal("update matched nothing")
	}
	tb, _ := s.Table("Tb")
	checked := 0
	for rec := 0; rec < tb.Records(); rec++ {
		if tb.Value(rec, 10) == 3 {
			if tb.Value(rec, 3) != 42 || tb.Value(rec, 4) != 43 {
				t.Fatalf("record %d not updated", rec)
			}
			checked++
		}
	}
	if checked != r.Rows {
		t.Fatalf("update reported %d rows, table shows %d", r.Rows, checked)
	}
	// Write traffic must have reached memory (sstore path).
	if s.Device.Stats.StrideWrites == 0 && s.Device.Stats.Writes == 0 {
		t.Fatal("no write bursts observed")
	}
}

func TestInsertAppendsRecords(t *testing.T) {
	s := testSystem(design.Baseline, 128, 256, false)
	before, _ := s.Table("Tb")
	n := before.Records()
	r, err := s.RunQuery("INSERT INTO Tb VALUES (7, 8, 9)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows != InsertCount {
		t.Fatalf("insert rows = %d, want %d", r.Rows, InsertCount)
	}
	if before.Records() != n+InsertCount {
		t.Fatalf("table grew to %d, want %d", before.Records(), n+InsertCount)
	}
	if before.Value(n, 1) != 8 {
		t.Fatalf("inserted value wrong: %d", before.Value(n, 1))
	}
	if s.Device.Stats.Writes == 0 {
		t.Fatal("insert produced no write bursts")
	}
}

// TestInsertThenStridedReadOnWarmSystem is the regression for strided
// gathers over appended records: on a warm system, Qs6 appends a batch to
// Tb and Q4 then reads Tb's f10 and f9 column-wise, reaching records past
// the schema's construction-time count. Every design must gather them
// without panicking and return the baseline's functional result.
func TestInsertThenStridedReadOnWarmSystem(t *testing.T) {
	const (
		qs6 = "INSERT INTO Tb VALUES (f0, f1, f2, f3)"
		q4  = "SELECT SUM(f9) FROM Tb WHERE f10 > x"
	)
	var ref *QueryResult
	for _, k := range append([]design.Kind{design.Baseline}, design.AllEvaluated()...) {
		s := testSystem(k, 256, 1024, false)
		if _, err := s.RunQuery(qs6, nil); err != nil {
			t.Fatalf("%v Qs6: %v", k, err)
		}
		r, err := s.RunQuery(q4, sel25())
		if err != nil {
			t.Fatalf("%v Q4: %v", k, err)
		}
		if ref == nil {
			ref = r
			continue
		}
		if r.Rows != ref.Rows || r.ProjChecks != ref.ProjChecks || !reflect.DeepEqual(r.Aggregates, ref.Aggregates) {
			t.Fatalf("%v: Q4 after Qs6 = rows %d sum %v, baseline rows %d sum %v",
				k, r.Rows, r.Aggregates, ref.Rows, ref.Aggregates)
		}
	}
}

func TestJoinMatchesBruteForce(t *testing.T) {
	s := testSystem(design.Baseline, 64, 96, false)
	r, err := s.RunQuery("SELECT Ta.f3, Tb.f4 FROM Ta, Tb WHERE Ta.f10 = Tb.f10", nil)
	if err != nil {
		t.Fatal(err)
	}
	ta, _ := s.Table("Ta")
	tb, _ := s.Table("Tb")
	want := 0
	var checks uint64
	for i := 0; i < ta.Records(); i++ {
		for j := 0; j < tb.Records(); j++ {
			if ta.Value(i, 10) == tb.Value(j, 10) {
				want++
				checks ^= ta.Value(i, 3)
				checks ^= tb.Value(j, 4)
			}
		}
	}
	if r.Rows != want {
		t.Fatalf("join rows = %d, brute force = %d", r.Rows, want)
	}
	if r.ProjChecks != checks {
		t.Fatal("join projection checksum mismatch")
	}
}

func TestLimitStopsScan(t *testing.T) {
	s := testSystem(design.Baseline, 4096, 256, false)
	r, err := s.RunQuery("SELECT * FROM Ta LIMIT 100", nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows != 100 {
		t.Fatalf("limit returned %d rows", r.Rows)
	}
	// Traffic should be bounded by ~100 records, not the whole table.
	maxReqs := uint64(100*16 + 200)
	if r.Stats.MemRequests > maxReqs {
		t.Fatalf("LIMIT scan issued %d requests (> %d)", r.Stats.MemRequests, maxReqs)
	}
}

func TestFullScanFlagChangesTraffic(t *testing.T) {
	// FullScan (Qs-style) must read whole records; predicate-first must
	// read far fewer bytes on a strided design.
	mk := func(full bool) *QueryResult {
		s := testSystem(design.SAMEn, 512, 256, false)
		stmt, err := sql.Parse("SELECT * FROM Ta WHERE f10 > x")
		if err != nil {
			t.Fatal(err)
		}
		plan, err := sql.Compile(stmt, sel25())
		if err != nil {
			t.Fatal(err)
		}
		plan.FullScan = full
		r, err := s.RunPlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	full, predFirst := mk(true), mk(false)
	if full.Rows != predFirst.Rows || full.ProjChecks != predFirst.ProjChecks {
		t.Fatal("scan modes disagree functionally")
	}
	if predFirst.Stats.MemRequests >= full.Stats.MemRequests {
		t.Fatalf("pred-first (%d reqs) should beat full scan (%d reqs) at 25%% selectivity",
			predFirst.Stats.MemRequests, full.Stats.MemRequests)
	}
}

func TestSpeedupAndEfficiencyHelpers(t *testing.T) {
	a := RunStats{Cycles: 1000}
	b := RunStats{Cycles: 250}
	if Speedup(a, b) != 4 {
		t.Fatal("speedup math")
	}
	if Speedup(a, RunStats{}) != 0 {
		t.Fatal("zero-cycle speedup should be 0")
	}
	a.Energy.RdWr = 100
	b.Energy.RdWr = 25
	if EnergyEfficiency(a, b) != 4 {
		t.Fatal("efficiency math")
	}
	if EnergyEfficiency(a, RunStats{}) != 0 {
		t.Fatal("zero-energy efficiency should be 0")
	}
	if s := (RunStats{Cycles: 1200}).Seconds(1200); s != 1e-6 {
		t.Fatalf("seconds conversion: %v", s)
	}
}

func TestStrideDesignsUseStrideBursts(t *testing.T) {
	s := testSystem(design.SAMEn, 512, 256, false)
	if _, err := s.RunQuery("SELECT SUM(f9) FROM Ta WHERE f10 > x", sel25()); err != nil {
		t.Fatal(err)
	}
	if s.Device.Stats.StrideReads == 0 {
		t.Fatal("SAM design issued no stride bursts on a column scan")
	}
	if s.Device.Stats.Reads > s.Device.Stats.StrideReads/4 {
		t.Fatalf("too many regular reads (%d) alongside %d stride reads",
			s.Device.Stats.Reads, s.Device.Stats.StrideReads)
	}

	base := testSystem(design.Baseline, 512, 256, false)
	if _, err := base.RunQuery("SELECT SUM(f9) FROM Ta WHERE f10 > x", sel25()); err != nil {
		t.Fatal(err)
	}
	if base.Device.Stats.StrideReads != 0 {
		t.Fatal("baseline must never issue stride bursts")
	}
}

func TestModeSwitchesAreRare(t *testing.T) {
	// Section 5.3's premise: with vectorized execution, mode switches are a
	// tiny fraction of accesses.
	s := testSystem(design.SAMEn, 1024, 256, false)
	r, err := s.RunQuery("SELECT f3, f4 FROM Ta WHERE f10 > x", sel25())
	if err != nil {
		t.Fatal(err)
	}
	if sw := s.Device.Stats.ModeSwitches; sw*20 > r.Stats.MemRequests {
		t.Fatalf("mode switches too frequent: %d for %d requests", sw, r.Stats.MemRequests)
	}
}

func TestEnergyPositiveAndDecomposed(t *testing.T) {
	// Invariant 10 at system level.
	s := testSystem(design.SAMIO, 256, 256, false)
	r, err := s.RunQuery("SELECT SUM(f9) FROM Ta WHERE f10 > x", sel25())
	if err != nil {
		t.Fatal(err)
	}
	e := r.Stats.Energy
	if e.Total() <= 0 || e.Background <= 0 || e.RdWr <= 0 {
		t.Fatalf("energy breakdown empty: %+v", e)
	}
	sum := e.Background + e.ActPre + e.RdWr + e.Refresh
	if sum != e.Total() {
		t.Fatal("breakdown does not sum to total")
	}
}

func TestGSDRAMeccExtraTraffic(t *testing.T) {
	run := func(kind design.Kind) uint64 {
		s := testSystem(kind, 512, 256, false)
		r, err := s.RunQuery("SELECT SUM(f9) FROM Ta WHERE f10 > x", sel25())
		if err != nil {
			t.Fatal(err)
		}
		return r.Stats.MemRequests
	}
	plain, withECC := run(design.GSDRAM), run(design.GSDRAMecc)
	if withECC <= plain {
		t.Fatalf("embedded ECC must add traffic: %d vs %d", withECC, plain)
	}
}

func TestUnknownTableError(t *testing.T) {
	s := testSystem(design.Baseline, 64, 64, false)
	if _, err := s.RunQuery("SELECT f1 FROM Nope WHERE f2 > 1", nil); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestDuplicateTablePanics(t *testing.T) {
	s := testSystem(design.Baseline, 64, 64, false)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate table accepted")
		}
	}()
	s.AddTable(imdb.NewTable(imdb.Ta(10), 1), false)
}

func TestBadQueryErrors(t *testing.T) {
	s := testSystem(design.Baseline, 64, 64, false)
	for _, q := range []string{
		"SELECT FROM Ta",
		"SELECT f1 FROM Ta WHERE f2 > unbound",
		"INSERT INTO Tb VALUES (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17)",
	} {
		if _, err := s.RunQuery(q, nil); err == nil {
			t.Errorf("accepted %q", q)
		}
	}
	// Join without equality predicate.
	if _, err := s.RunQuery("SELECT Ta.f1, Tb.f2 FROM Ta, Tb WHERE Ta.f1 > Tb.f1", nil); err == nil {
		t.Error("join without equality accepted")
	}
}

func TestMultiChannelScaling(t *testing.T) {
	// Doubling the channels must meaningfully speed a memory-bound scan and
	// preserve functional results; protocol legality holds per channel.
	run := func(channels int) *QueryResult {
		d := design.New(design.Baseline, design.Options{})
		d.Mem.Geometry.Channels = channels
		s := NewSystem(d)
		s.Audit = true
		s.reset()
		s.AddTable(imdb.NewTable(imdb.Ta(2048), 0xC0DE), false)
		s.AddTable(imdb.NewTable(imdb.Tb(256), 0xC0DF), false)
		r, err := s.RunQuery("SELECT SUM(f9) FROM Ta WHERE f10 > x", sel25())
		if err != nil {
			t.Fatal(err)
		}
		if !s.AuditOK() {
			t.Fatalf("%d channels: protocol violations", channels)
		}
		if s.Channels() != channels {
			t.Fatalf("channel count %d", s.Channels())
		}
		return r
	}
	one, two := run(1), run(2)
	if one.Rows != two.Rows || one.ProjChecks != two.ProjChecks {
		t.Fatal("channel count changed functional results")
	}
	speedup := float64(one.Stats.Cycles) / float64(two.Stats.Cycles)
	if speedup < 1.3 {
		t.Fatalf("second channel bought only %.2fx on a memory-bound scan", speedup)
	}
	if one.Stats.MemRequests != two.Stats.MemRequests {
		t.Fatalf("request counts diverged: %d vs %d", one.Stats.MemRequests, two.Stats.MemRequests)
	}
}

func TestWarmSystemRunRelativeStats(t *testing.T) {
	// Repeated queries on one (warm) system report per-run deltas, and the
	// second run is faster (warm caches), never double-counted.
	s := testSystem(design.SAMEn, 512, 256, false)
	q := "SELECT SUM(f9) FROM Ta WHERE f10 > x"
	first, err := s.RunQuery(q, sel25())
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.RunQuery(q, sel25())
	if err != nil {
		t.Fatal(err)
	}
	if second.Rows != first.Rows || second.Aggregates[0] != first.Aggregates[0] {
		t.Fatal("warm rerun changed the answer")
	}
	if second.Stats.MemRequests >= first.Stats.MemRequests/2 {
		t.Fatalf("warm rerun should mostly hit cache: %d vs %d requests",
			second.Stats.MemRequests, first.Stats.MemRequests)
	}
	if second.Stats.Cycles >= first.Stats.Cycles {
		t.Fatalf("warm rerun not faster: %d vs %d cycles", second.Stats.Cycles, first.Stats.Cycles)
	}
	if second.Stats.Device.StrideReads >= first.Stats.Device.StrideReads {
		t.Fatal("device stats not run-relative")
	}
}

func TestHybridTableFunctionalAndFast(t *testing.T) {
	// A hybrid layout with the scanned fields columnar must answer exactly
	// like the row store and scan faster on plain DRAM.
	query := "SELECT SUM(f9) FROM Ta WHERE f10 > x"
	row := testSystem(design.Baseline, 1024, 64, false)
	rowRes, err := row.RunQuery(query, sel25())
	if err != nil {
		t.Fatal(err)
	}

	d := design.New(design.Baseline, design.Options{})
	s := NewSystem(d)
	s.AddTableHybrid(imdb.NewTable(imdb.Ta(1024), 0x5EED), []int{9, 10})
	s.AddTable(imdb.NewTable(imdb.Tb(64), 0x5EED+1), false)
	hyRes, err := s.RunQuery(query, sel25())
	if err != nil {
		t.Fatal(err)
	}
	if hyRes.Rows != rowRes.Rows || hyRes.Aggregates[0] != rowRes.Aggregates[0] {
		t.Fatal("hybrid layout changed the answer")
	}
	if hyRes.Stats.Cycles >= rowRes.Stats.Cycles {
		t.Fatalf("hybrid columnar scan not faster: %d vs %d", hyRes.Stats.Cycles, rowRes.Stats.Cycles)
	}
	if hyRes.Stats.Device.StrideReads != 0 {
		t.Fatal("hybrid layout must not use stride bursts")
	}
}

func TestNewAggregates(t *testing.T) {
	s := testSystem(design.Baseline, 256, 512, false)
	tb, _ := s.Table("Tb")
	r, err := s.RunQuery("SELECT COUNT(*), MIN(f1), MAX(f1), AVG(f1) FROM Tb WHERE f10 > x", sel25())
	if err != nil {
		t.Fatal(err)
	}
	// Reference computation.
	var count int
	var min, max uint64
	var sum float64
	for rec := 0; rec < tb.Records(); rec++ {
		if tb.Value(rec, 10) <= 2 {
			continue
		}
		v := tb.Value(rec, 1)
		if count == 0 || v < min {
			min = v
		}
		if count == 0 || v > max {
			max = v
		}
		sum += float64(v)
		count++
	}
	if int(r.Aggregates[0]) != count {
		t.Fatalf("COUNT(*) = %v, want %d", r.Aggregates[0], count)
	}
	if r.Aggregates[1] != float64(min) || r.Aggregates[2] != float64(max) {
		t.Fatalf("MIN/MAX = %v/%v, want %d/%d", r.Aggregates[1], r.Aggregates[2], min, max)
	}
	if r.Aggregates[3] != sum/float64(count) {
		t.Fatalf("AVG = %v", r.Aggregates[3])
	}
}

func TestGroupByAggregation(t *testing.T) {
	s := testSystem(design.SAMEn, 256, 1024, false)
	tb, _ := s.Table("Tb")
	r, err := s.RunQuery("SELECT COUNT(*), SUM(f1) FROM Tb GROUP BY f10", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Groups) != 4 {
		t.Fatalf("categorical f10 should form 4 groups, got %d", len(r.Groups))
	}
	// Cross-check each group against the table.
	total := 0
	for key, vals := range r.Groups {
		var count int
		var sum float64
		for rec := 0; rec < tb.Records(); rec++ {
			if tb.Value(rec, 10) == key {
				count++
				sum += float64(tb.Value(rec, 1))
			}
		}
		if int(vals[0]) != count || vals[1] != sum {
			t.Fatalf("group %d: got (%v,%v), want (%d,%v)", key, vals[0], vals[1], count, sum)
		}
		total += count
	}
	if total != tb.Records() {
		t.Fatalf("groups cover %d of %d records", total, tb.Records())
	}
	// Group-by results are design-independent too.
	base := testSystem(design.Baseline, 256, 1024, false)
	rb, err := base.RunQuery("SELECT COUNT(*), SUM(f1) FROM Tb GROUP BY f10", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rb.ProjChecks != r.ProjChecks || len(rb.Groups) != len(r.Groups) {
		t.Fatal("grouped results differ across designs")
	}
}

func TestFaultInjectionChipkillVsGSDRAM(t *testing.T) {
	// Run the same query with a dead chip: chipkill designs correct every
	// burst (exercising the real RS decoder for the first bursts); plain
	// GS-DRAM, which gave up ECC, takes uncorrectable corruption.
	run := func(kind design.Kind) RunStats {
		s := testSystem(kind, 256, 256, false)
		s.Faults = deadChip(7, 42)
		r, err := s.RunQuery("SELECT SUM(f9) FROM Ta WHERE f10 > x", sel25())
		if err != nil {
			t.Fatal(err)
		}
		return r.Stats
	}
	sam := run(design.SAMEn)
	if sam.CorrectedBursts == 0 || sam.UncorrectableBursts != 0 {
		t.Fatalf("SAM-en under a dead chip: corrected=%d uncorrectable=%d",
			sam.CorrectedBursts, sam.UncorrectableBursts)
	}
	if rel := sam.Reliability; rel == nil || rel.SilentCorruptions != 0 ||
		rel.CorrectedBursts != rel.Injected || rel.Bursts == 0 {
		t.Fatalf("SAM-en reliability block: %+v", sam.Reliability)
	}
	gs := run(design.GSDRAM)
	if gs.UncorrectableBursts == 0 || gs.CorrectedBursts != 0 {
		t.Fatalf("GS-DRAM under a dead chip: corrected=%d uncorrectable=%d",
			gs.CorrectedBursts, gs.UncorrectableBursts)
	}
	if rel := gs.Reliability; rel == nil || rel.SilentCorruptions == 0 || rel.DUEs != 0 {
		t.Fatalf("GS-DRAM reliability block: %+v", gs.Reliability)
	}
	// Without fault injection, both counters stay zero.
	clean := testSystem(design.SAMEn, 64, 64, false)
	r, err := clean.RunQuery("SELECT SUM(f9) FROM Tb WHERE f10 > x", sel25())
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.CorrectedBursts != 0 || r.Stats.UncorrectableBursts != 0 || r.Stats.Reliability != nil {
		t.Fatal("fault counters nonzero without injection")
	}
}

func TestTraceSinkCapturesRequests(t *testing.T) {
	s := testSystem(design.SAMEn, 256, 64, false)
	s.TraceSink = &trace.Trace{}
	r, err := s.RunQuery("SELECT SUM(f9) FROM Ta WHERE f10 > x", sel25())
	if err != nil {
		t.Fatal(err)
	}
	if uint64(s.TraceSink.Len()) != r.Stats.MemRequests {
		t.Fatalf("trace has %d records, run issued %d requests", s.TraceSink.Len(), r.Stats.MemRequests)
	}
	// Arrivals are nondecreasing (single issue stream).
	for i := 1; i < s.TraceSink.Len(); i++ {
		if s.TraceSink.Records[i].Arrival < s.TraceSink.Records[i-1].Arrival {
			t.Fatal("trace arrivals not monotonic")
		}
	}
	// Strided requests dominate a SAM field scan.
	var strided int
	for _, rec := range s.TraceSink.Records {
		if rec.Stride {
			strided++
		}
	}
	if strided*2 < s.TraceSink.Len() {
		t.Fatalf("only %d of %d trace records strided", strided, s.TraceSink.Len())
	}
}

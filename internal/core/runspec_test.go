package core

import (
	"sort"
	"testing"

	"sam/internal/design"
	"sam/internal/imdb"
	"sam/internal/memo"
	"sam/internal/sim"
	"sam/internal/sql"
)

// frozenBenchRunKey is a frozen copy of the bench-run fingerprint as it
// stood before RunSpec existed, field for field. Disk caches written by
// earlier builds hold entries under these keys; TestRunSpecKeyFrozen
// keeps RunSpec.Key on the same bytes so those caches stay warm. Never
// edit it to follow a change in RunSpec.Key.
func frozenBenchRunKey(kind design.Kind, opts design.Options, w Workload, q BenchQuery, colStore bool, fm *sim.FaultModel) string {
	f := memo.NewFingerprint("bench")
	c := opts.Canon(kind)
	f.I64("design.kind", int64(kind)).
		I64("design.gran.bits", int64(c.Gran.BitsPerChip)).
		I64("design.gran.sector", int64(c.Gran.SectorBytes)).
		I64("design.gran.reach", int64(c.Gran.Reach)).
		Bool("design.gran.gang", c.Gran.Gang).
		I64("design.substrate", int64(c.Substrate))
	f.I64("workload.ta", int64(w.TaRecords)).
		I64("workload.tb", int64(w.TbRecords)).
		U64("workload.seed", w.Seed).
		Str("query.sql", q.SQL).
		I64("query.class", int64(q.Class)).
		Bool("colstore", colStore)
	names := make([]string, 0, len(q.Params))
	for n := range q.Params {
		names = append(names, n)
	}
	sort.Strings(names)
	f.I64("params.n", int64(len(names)))
	for _, n := range names {
		f.Str("param.name", n).U64("param.value", q.Params[n])
	}
	if fm == nil || !fm.Active() {
		f.Bool("fault.active", false)
		return f.Sum()
	}
	f.Bool("fault.active", true).
		U64("fault.seed", fm.Seed).
		F64("fault.rate", fm.Rate).
		I64("fault.retries", int64(fm.MaxRetries))
	bw, cw, rw := fm.BitWeight, fm.ChipWeight, fm.CorrelatedWeight
	if bw == 0 && cw == 0 && rw == 0 {
		bw, cw, rw = 0.6, 0.2, 0.2
	}
	sum := bw + cw + rw
	f.F64("fault.w.bit", bw/sum).F64("fault.w.chip", cw/sum).F64("fault.w.corr", rw/sum)
	f.I64("fault.dead.n", int64(len(fm.DeadChips)))
	for _, dc := range fm.DeadChips {
		f.I64("fault.dead.rank", int64(dc.Rank)).I64("fault.dead.chip", int64(dc.Chip))
	}
	f.I64("fault.stuck.n", int64(len(fm.StuckDQs)))
	for _, sd := range fm.StuckDQs {
		f.I64("fault.stuck.rank", int64(sd.Rank)).
			I64("fault.stuck.chip", int64(sd.Chip)).
			I64("fault.stuck.dq", int64(sd.DQ)).
			I64("fault.stuck.value", int64(sd.Value))
	}
	return f.Sum()
}

// TestRunSpecKeyFrozen pins RunSpec.Key to the frozen fingerprint over
// every design × query × {default, Gran8, Gran16} × {fault-free,
// transient} at SmallWorkload, and over every default reliability cell.
// The reliability grid always keyed its runs row-store.
func TestRunSpecKeyFrozen(t *testing.T) {
	w := SmallWorkload()
	transient := &sim.FaultModel{Rate: 1e-3, Seed: 7, MaxRetries: 3}
	for _, k := range AllKinds() {
		for _, q := range Benchmark() {
			for _, opts := range []design.Options{{}, {Gran: design.Gran8}, {Gran: design.Gran16}} {
				for _, fm := range []*sim.FaultModel{nil, transient} {
					spec := RunSpec{Design: k, Options: opts, Workload: w, Query: q, Faults: fm}
					colStore := k == design.Ideal && q.Class == ClassQ
					if got, want := spec.Key(), frozenBenchRunKey(k, opts, w, q, colStore, fm); got != want {
						t.Fatalf("%v/%s gran %d faults %v: key %s, frozen %s", k, q.Name, opts.Gran.BitsPerChip, fm != nil, got, want)
					}
				}
			}
		}
	}
	camp := DefaultReliabilityCampaign()
	for i, cell := range camp.Cells() {
		spec := camp.spec(cell, i)
		want := frozenBenchRunKey(cell.Design, design.Options{Gran: cell.Gran}, camp.Workload, camp.Query, false, camp.faultsFor(cell, i))
		if got := spec.Key(); got != want {
			t.Fatalf("reliability cell %s: key %s, frozen %s", cell.Label(), got, want)
		}
	}
}

// frozenSweepRunKey is a frozen copy of the Fig. 15 sweep-point
// fingerprint as it stood before sweep runs became RunSpecs, field for
// field. Disk caches written by earlier builds hold sweep entries under
// these keys; TestSweepRunKeyFrozen keeps RunSpec.Key on the same bytes.
// Never edit it to follow a change in RunSpec.Key.
func frozenSweepRunKey(kind design.Kind, opts design.Options, schema imdb.Schema, tableSeed uint64, query string, params sql.Params, colStore bool) string {
	f := memo.NewFingerprint("sweep")
	c := opts.Canon(kind)
	f.I64("design.kind", int64(kind)).
		I64("design.gran.bits", int64(c.Gran.BitsPerChip)).
		I64("design.gran.sector", int64(c.Gran.SectorBytes)).
		I64("design.gran.reach", int64(c.Gran.Reach)).
		Bool("design.gran.gang", c.Gran.Gang).
		I64("design.substrate", int64(c.Substrate))
	f.Str("table.name", schema.Name).
		I64("table.fields", int64(schema.Fields)).
		I64("table.records", int64(schema.Records)).
		U64("table.seed", tableSeed).
		Str("query.sql", query).
		Bool("colstore", colStore)
	names := make([]string, 0, len(params))
	for n := range params {
		names = append(names, n)
	}
	sort.Strings(names)
	f.I64("params.n", int64(len(names)))
	for _, n := range names {
		f.Str("param.name", n).U64("param.value", params[n])
	}
	f.Bool("fault.active", false)
	return f.Sum()
}

// TestSweepRunKeyFrozen pins RunSpec.Key for every run of every point of
// every default Fig. 15 panel, at samfig's default -sweep-records and at
// the test scale, to the frozen sweep fingerprint. Every sweep run used
// the default options, and only ideal ran on the column store, over a
// table of RecordBytes/8 fields (1 KiB records by default) seeded 0xF15.
func TestSweepRunKeyFrozen(t *testing.T) {
	for _, records := range []int{2048, fig15TestRecords} {
		for _, panel := range fig15Panels() {
			for _, p := range panel {
				row, err := p.specs(records)
				if err != nil {
					t.Fatal(err)
				}
				rb := p.RecordBytes
				if rb == 0 {
					rb = 1024
				}
				schema := imdb.Schema{Name: "T", Fields: rb / 8, Records: records}
				for _, spec := range row {
					want := frozenSweepRunKey(spec.Design, design.Options{}, schema, 0xF15,
						spec.Query.SQL, spec.Query.Params, spec.Design == design.Ideal)
					if got := spec.Key(); got != want {
						t.Fatalf("%+v on %v at %d records: key %s, frozen %s", p, spec.Design, records, got, want)
					}
				}
			}
		}
	}
}

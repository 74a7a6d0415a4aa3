package core

import (
	"context"
	"sort"

	"sam/internal/design"
	"sam/internal/imdb"
	"sam/internal/memo"
	"sam/internal/runner"
	"sam/internal/sim"
	"sam/internal/sql"
	"sam/internal/stats"
)

// Memo is the pipelines' content-addressed run-result cache: same design
// × options × workload × query × fault-config × seed ⇒ the cached
// QueryResult, behind in-flight singleflight dedup. Thread it through a
// sweep with Par.Memo (every driver honors it); a nil *Memo everywhere
// means "run everything", bit-for-bit the pre-cache behaviour.
//
// Correctness rests on two invariants the repo already pins: runs are
// deterministic and worker-count-invariant (the frozen-scheduler
// differential and the frozen multi-channel golden), and cached QueryResults are never
// mutated by consumers (the drivers only read them). The key covers
// every run input; fixed simulator semantics (timing models, scheduler
// policy, cpu/cache defaults, workload generation) are covered by
// memo.SchemaVersion — see TestMemoSaltTripwire.
type Memo struct {
	cache *memo.Cache[*sim.QueryResult]
}

// MemoOptions configures a Memo.
type MemoOptions struct {
	// MaxEntries bounds the in-process tier (0 = memo.DefaultMaxEntries).
	MaxEntries int
	// Dir, when non-empty, adds the persistent disk tier (-cache-dir).
	Dir string
}

// NewMemo builds a run-result cache over the stable sim codec.
func NewMemo(o MemoOptions) *Memo {
	return &Memo{cache: memo.New(memo.Config[*sim.QueryResult]{
		MaxEntries: o.MaxEntries,
		Dir:        o.Dir,
		Encode:     sim.EncodeResult,
		Decode:     sim.DecodeResult,
	})}
}

// Counters reads the cache instruments (hits, misses, dedup, bytes, …).
func (m *Memo) Counters() memo.Counters { return m.cache.Counters() }

// StatsSnapshot freezes the memo.* instruments as an internal/stats
// snapshot for -stats-json and -metrics-dir dumps; nil for a nil *Memo.
func (m *Memo) StatsSnapshot() *stats.Snapshot {
	if m == nil {
		return nil
	}
	return m.cache.StatsSnapshot()
}

// Run executes spec through the cache and reports how the cache served
// it (hit/miss/disk-hit/dedup), tagging the job span ctx carries, if any,
// with that outcome. A nil *Memo runs uncached and reports memo.Miss.
// Safe for concurrent use; concurrent runs of one spec simulate once.
func (m *Memo) Run(ctx context.Context, spec RunSpec) (*sim.QueryResult, memo.Outcome, error) {
	return m.do(ctx, spec.Key(), func() (*sim.QueryResult, error) { return spec.Run() })
}

// RunOne runs RunSpec{kind, opts, w, q} through the cache.
//
// Deprecated: use Run. Kept only for sam/perfbench.
func (m *Memo) RunOne(kind design.Kind, opts design.Options, w Workload, q BenchQuery) (*sim.QueryResult, error) {
	r, _, err := m.Run(context.Background(), RunSpec{Design: kind, Options: opts, Workload: w, Query: q})
	return r, err
}

// Lookup probes both cache tiers for spec without simulating: ok is false
// on an absent key, which counts no miss. The samd daemon serves a
// repeated bench job at admission through it.
func (m *Memo) Lookup(spec RunSpec) (r *sim.QueryResult, out memo.Outcome, ok bool) {
	return m.cache.Lookup(spec.Key())
}

// do runs compute through the cache under key and tags the job span ctx
// carries, if any, with the cache outcome, so the event log can attribute
// hits and misses per job. A nil *Memo just computes, untagged.
func (m *Memo) do(ctx context.Context, key string, compute func() (*sim.QueryResult, error)) (*sim.QueryResult, memo.Outcome, error) {
	if m == nil {
		r, err := compute()
		return r, memo.Miss, err
	}
	r, out, err := m.cache.Do(key, compute)
	if err == nil {
		runner.Annotate(ctx, "memo", out.String())
	}
	return r, out, err
}

// --- canonical fingerprints -------------------------------------------------
//
// The key covers everything that determines a run's outcome, and nothing
// that does not: BenchQuery.Name and IsWrite are presentation metadata
// (the run is fully determined by SQL + params + class), so Fig12 and
// Fig13 evaluating the same (design, query) cell share one simulation.
// design.Options canonicalize through Options.Canon, sql.Params through
// sorted keys, and a nil fault model collides with an inactive one —
// the "semantically identical inputs built two ways" property
// TestMemoKeyCanonicalization pins.

// addDesign fingerprints the resolved design point.
func addDesign(f *memo.Fingerprint, kind design.Kind, opts design.Options) {
	c := opts.Canon(kind)
	f.I64("design.kind", int64(kind)).
		I64("design.gran.bits", int64(c.Gran.BitsPerChip)).
		I64("design.gran.sector", int64(c.Gran.SectorBytes)).
		I64("design.gran.reach", int64(c.Gran.Reach)).
		Bool("design.gran.gang", c.Gran.Gang).
		I64("design.substrate", int64(c.Substrate))
}

// addParams fingerprints query parameters in sorted-key order; nil and
// empty collide (both resolve no parameters).
func addParams(f *memo.Fingerprint, p sql.Params) {
	names := make([]string, 0, len(p))
	for n := range p {
		names = append(names, n)
	}
	sort.Strings(names)
	f.I64("params.n", int64(len(names)))
	for _, n := range names {
		f.Str("param.name", n).U64("param.value", p[n])
	}
}

// addFault fingerprints the fault configuration. nil and inactive
// configurations collide: the engine treats both as a fault-free run
// (no injectors attached, default retry budget restored).
func addFault(f *memo.Fingerprint, fm *sim.FaultModel) {
	if fm == nil || !fm.Active() {
		f.Bool("fault.active", false)
		return
	}
	f.Bool("fault.active", true).
		U64("fault.seed", fm.Seed).
		F64("fault.rate", fm.Rate).
		I64("fault.retries", int64(fm.MaxRetries))
	// All-zero weights select the documented default mix, and the draw
	// normalizes by the sum — canonicalize both so scaled-equal mixes
	// collide.
	bw, cw, rw := fm.BitWeight, fm.ChipWeight, fm.CorrelatedWeight
	if bw == 0 && cw == 0 && rw == 0 {
		bw, cw, rw = 0.6, 0.2, 0.2
	}
	sum := bw + cw + rw
	f.F64("fault.w.bit", bw/sum).F64("fault.w.chip", cw/sum).F64("fault.w.corr", rw/sum)
	// Persistent maps keep list order: application order is part of the
	// deterministic replay (duplicate stuck-DQ entries are last-wins).
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
}

// Key fingerprints the run: the standard Ta/Tb workload pair, one Table 3
// query, the store the design runs it on, optional fault injection. It is
// the run memo's key and samd's dedup key for a bench job.
func (s RunSpec) Key() string {
	f := memo.NewFingerprint("bench")
	addDesign(f, s.Design, s.Options)
	addQuery(f, s.Workload, s.Query)
	f.Bool("colstore", s.columnStore())
	addParams(f, s.Query.Params)
	addFault(f, s.Faults)
	return f.Sum()
}

// addQuery fingerprints the Ta/Tb workload and the query text and class.
func addQuery(f *memo.Fingerprint, w Workload, q BenchQuery) {
	f.I64("workload.ta", int64(w.TaRecords)).
		I64("workload.tb", int64(w.TbRecords)).
		U64("workload.seed", w.Seed).
		Str("query.sql", q.SQL).
		I64("query.class", int64(q.Class))
}

// sweepRunKey fingerprints a Fig. 15 sweep-point run: a single generated
// table with its own schema and seed, the generated sweep query, and the
// store orientation (which also drives the row-wise FullScan rule).
func sweepRunKey(kind design.Kind, opts design.Options, schema imdb.Schema, tableSeed uint64, query string, params sql.Params, colStore bool) string {
	f := memo.NewFingerprint("sweep")
	addDesign(f, kind, opts)
	f.Str("table.name", schema.Name).
		I64("table.fields", int64(schema.Fields)).
		I64("table.records", int64(schema.Records)).
		U64("table.seed", tableSeed).
		Str("query.sql", query).
		Bool("colstore", colStore)
	addParams(f, params)
	addFault(f, nil)
	return f.Sum()
}

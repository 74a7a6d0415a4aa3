package core

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"sam/internal/cpu"
	"sam/internal/design"
	"sam/internal/memo"
	"sam/internal/runner"
	"sam/internal/sim"
)

// sharing is how runGrid shares a spec's work: its front-end and back-end
// keys, and the clock variant its front end ticks.
type sharing struct {
	front, back string
	clock       sim.ClockVariant
}

// run keys the spec's whole simulation: specs with equal run keys give
// byte-equal results.
func (sh sharing) run() string { return sh.front + "/" + sh.back }

// sharing computes the spec's keys.
func (s RunSpec) sharing() sharing {
	d := design.New(s.Design, s.Options)
	// Only field accesses of a strided row store gather.
	gathers := d.SupportsStride() && !s.columnStore()
	if plan, err := s.compile(); err == nil {
		gathers = gathers && sim.FieldAccesses(plan)
	}
	sh := sharing{front: s.frontEndKey(d, gathers)}
	if gathers {
		// The no-critical-word-first latency is charged on gather misses
		// only.
		sh.clock = sim.ClockVariantOf(d)
	}
	sh.back = s.backEndKey(d, gathers, sh.clock)
	return sh
}

// frontEndKey fingerprints exactly what the run's front end — executor,
// cache hierarchy, stride gathers and core clock — reads, up to its
// critical-word delivery: the placer geometry, the stripe layout
// (ColumnEngine, ChunkRecords, and the stripe's row count), the store,
// the bus clock, the core and cache parameters, the tables and the query,
// and, only when a gather can fire, the strided granularity's reach and
// sector size and the sector-cache geometry. Runs with equal keys issue
// the same miss log (sim.MissLog), at one clock per critical-word
// variant, so one recording replays exactly into each of their memory
// back ends. Everything else about a design — timing, stride and gang
// flags, SubFieldSplit, embedded ECC, power, faults — is the back end's
// (backEndKey).
func (s RunSpec) frontEndKey(d *design.Design, gathers bool) string {
	f := memo.NewFingerprint("frontend")
	f.Str("geometry", fmt.Sprintf("%+v", d.Mem.Geometry)).
		F64("bus.mhz", d.Mem.ClockMHz).
		Bool("layout.column_engine", d.ColumnEngine).
		I64("layout.chunk_records", int64(d.ChunkRecords))
	if d.ColumnEngine {
		// A stripe spans Reach rows of a bank.
		f.I64("layout.stripe_rows", int64(d.Gran.Reach))
	}
	if gathers {
		f.I64("gran.reach", int64(d.Gran.Reach)).
			I64("gran.sector", int64(d.Gran.SectorBytes)).
			I64("cache.sectors", int64(d.SectorsPerLine()))
	}
	f.Bool("colstore", s.columnStore()).
		Str("cpu", fmt.Sprintf("%+v", cpu.Default())).
		Str("caches", fmt.Sprintf("%+v", sim.DefaultCaches()))
	s.addQuery(f)
	addParams(f, s.Query.Params)
	return f.Sum()
}

// backEndKey fingerprints what the run's memory back end reads besides the
// front-end stream: the memory geometry (channel count included), timing
// and bus clock, the regular power terms, the embedded-ECC period of
// regular fills, the fault model (with the burst scheme and ECC presence
// when faults are on), and, only when a gather can fire, the strided
// granularity, the I/O-mode, sub-field-split and embedded-ECC gather
// terms, the stride power terms and the critical-word clock the back end
// is fed. Runs with equal front-end and back-end keys are one simulation.
func (s RunSpec) backEndKey(d *design.Design, gathers bool, clock sim.ClockVariant) string {
	p := d.Power
	f := memo.NewFingerprint("backend")
	f.Str("geometry", fmt.Sprintf("%+v", d.Mem.Geometry)).
		Str("timing", fmt.Sprintf("%+v", d.Mem.Timing)).
		F64("bus.mhz", d.Mem.ClockMHz).
		Str("power.regular", fmt.Sprintf("%+v", p.Regular)).
		F64("power.vdd", p.VDD).
		I64("power.chips", int64(p.Chips)).
		Str("power.timing", fmt.Sprintf("%d/%d/%d/%v", p.TRC, p.TBL, p.TRFC, p.ClockMHz)).
		F64("power.act_chip_fraction", p.ActChipFraction).
		F64("power.background_scale", p.BackgroundScale).
		I64("ecc.regular_period", int64(d.ECCRegularPeriod))
	addFault(f, s.Faults)
	if s.Faults != nil && s.Faults.Active() {
		f.I64("fault.scheme", int64(d.BurstScheme())).Bool("fault.ecc", d.HasECC)
	}
	f.Bool("gathers", gathers)
	if gathers {
		f.Str("gran", fmt.Sprintf("%+v", d.Gran)).
			Bool("mode_switch", d.ModeSwitch).
			I64("subfield_split", int64(d.SubFieldSplit)).
			I64("ecc.read_period", int64(d.ECCReadPeriod)).
			Bool("ecc.write_rmw", d.ECCWriteRMW).
			Str("power.stride", fmt.Sprintf("%+v", p.Stride)).
			I64("clock", int64(clock))
	}
	return f.Sum()
}

// record runs the spec's front end and returns its miss log with one
// clock per variant in clocks.
func (s RunSpec) record(clocks []sim.ClockVariant) (*sim.MissLog, error) {
	plan, err := s.compile()
	if err != nil {
		return nil, err
	}
	return s.system().RecordPlan(plan, clocks...)
}

// replay runs a miss log recorded under the spec's front-end key, at the
// spec's own clock variant, through a fresh memory back end of the spec's
// design. The result equals Run's.
func (s RunSpec) replay(l *sim.MissLog, clock sim.ClockVariant) *sim.QueryResult {
	sys := sim.NewSystem(design.New(s.Design, s.Options))
	sys.Faults = s.Faults
	return sys.Replay(l, clock)
}

// frontEnds shares work within one grid. Each class of specs with equal
// front-end keys simulates its front end once: the first member to run
// records the miss log, with one clock per variant of the class, and
// every member, the recorder included, replays it, at its own clock, into
// its own back end. A class's log is freed once its last member has
// finished. Specs with equal front-end and back-end keys simulate once
// between them: the first to run hands its result, or its memo hit, to
// the others.
type frontEnds struct {
	classes map[string]*class              // by front-end key; fixed once built
	logs    runner.Group[*sim.MissLog]     // by front-end key
	results runner.Group[*sim.QueryResult] // by run key
}

// class is one front-end class.
type class struct {
	left   atomic.Int32       // members not yet finished
	clocks []sim.ClockVariant // the members' clock variants, ascending
}

// newFrontEnds tracks the front-end classes of shares, each with its
// members' distinct clock variants.
func newFrontEnds(shares []sharing) *frontEnds {
	t := &frontEnds{classes: map[string]*class{}}
	for _, sh := range shares {
		c := t.classes[sh.front]
		if c == nil {
			c = &class{}
			t.classes[sh.front] = c
		}
		c.left.Add(1)
		if !slices.Contains(c.clocks, sh.clock) {
			c.clocks = append(c.clocks, sh.clock)
			slices.Sort(c.clocks)
		}
	}
	return t
}

// run simulates spec, whose keys are sh, and tags the job span ctx
// carries with how (sim=record|replay|shared). A spec whose identical run
// another member has claimed takes its result; any other replays the miss
// log of its front-end class into its own back end, recording the log
// first when it is the class's first member. A member waits for work in
// flight, or for ctx.
func (t *frontEnds) run(ctx context.Context, spec RunSpec, sh sharing) (*sim.QueryResult, error) {
	r, shared, err := t.results.Do(ctx, sh.run(), func() (*sim.QueryResult, error) {
		l, replay, err := t.logs.Do(ctx, sh.front, func() (*sim.MissLog, error) {
			runner.Annotate(ctx, "sim", "record")
			return spec.record(t.classes[sh.front].clocks)
		})
		if err != nil {
			return nil, err
		}
		if replay {
			runner.Annotate(ctx, "sim", "replay")
		}
		return spec.replay(l, sh.clock), nil
	})
	if shared {
		runner.Annotate(ctx, "sim", "shared")
	}
	return r, err
}

// release marks one member of front-end class key finished, hit or miss;
// the last one frees the class's log.
func (t *frontEnds) release(key string) {
	if t.classes[key].left.Add(-1) == 0 {
		t.logs.Forget(key)
	}
}

// runGrid is the one runner behind every figure: it runs each spec of
// rows through the memo under its Key and returns the results indexed like
// rows. A memo hit skips the simulation entirely. Specs with equal
// front-end keys, anywhere in the grid, share one recorded miss log, and
// specs with equal front-end and back-end keys share one result. Within
// each row, the specs that start a front-end class run first, then those
// that replay one, then those that take another's result, so a spec
// rarely waits on work in flight, and only about one row's logs are alive
// at a time.
func runGrid(ctx context.Context, rows [][]RunSpec, par Par) ([][]*sim.QueryResult, error) {
	type cell struct {
		ri, ci int
		sh     sharing
	}
	var shares []sharing
	var order []cell
	fronts, runs := map[string]bool{}, map[string]bool{}
	for ri, row := range rows {
		var lead, replay, shared []cell
		for ci, spec := range row {
			c := cell{ri: ri, ci: ci, sh: spec.sharing()}
			shares = append(shares, c.sh)
			switch {
			case runs[c.sh.run()]:
				shared = append(shared, c)
			case fronts[c.sh.front]:
				replay = append(replay, c)
			default:
				lead = append(lead, c)
			}
			fronts[c.sh.front], runs[c.sh.run()] = true, true
		}
		order = append(append(append(order, lead...), replay...), shared...)
	}
	fe := newFrontEnds(shares)
	opts := runner.Options{Workers: par.Workers, OnProgress: par.Progress, Observer: par.Observer}
	flat, err := runner.Map(ctx, order, opts, func(ctx context.Context, _ int, c cell) (*sim.QueryResult, error) {
		defer fe.release(c.sh.front)
		spec := rows[c.ri][c.ci]
		r, _, err := par.Memo.do(ctx, spec.Key(), func() (*sim.QueryResult, error) { return fe.run(ctx, spec, c.sh) })
		if err != nil {
			return nil, fmt.Errorf("%s on %v: %w", spec.Query.Name, spec.Design, err)
		}
		// A memo hit's result serves the identical runs too.
		fe.results.Set(c.sh.run(), r)
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	grid := make([][]*sim.QueryResult, len(rows))
	for ri, row := range rows {
		grid[ri] = make([]*sim.QueryResult, len(row))
	}
	for i, c := range order {
		grid[c.ri][c.ci] = flat[i]
	}
	return grid, nil
}

package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"sam/internal/cpu"
	"sam/internal/design"
	"sam/internal/memo"
	"sam/internal/runner"
	"sam/internal/sim"
)

// FrontEndKey fingerprints exactly what the run's front end — executor,
// cache hierarchy, stride gathers and core clock — reads: the placer
// geometry, the stripe layout (ColumnEngine, ChunkRecords), the strided
// granularity's reach and sector size, the sector-cache geometry, the
// store, the bus clock, the core and cache parameters, the
// no-critical-word-first latency, the tables and the query. Runs with
// equal keys issue the same miss log (sim.MissLog), so one recording
// replays exactly into each of their memory back ends. Everything else
// about a design — timing, stride and gang flags, SubFieldSplit, embedded
// ECC, power, faults — is the back end's.
func (s RunSpec) FrontEndKey() string {
	d := design.New(s.Design, s.Options)
	// The no-critical-word-first latency is charged on gather misses only,
	// and only field accesses of a strided row store gather.
	gathers := d.SupportsStride() && !s.columnStore()
	if plan, err := s.compile(); err == nil {
		gathers = gathers && sim.FieldAccesses(plan)
	}
	f := memo.NewFingerprint("frontend")
	f.Str("geometry", fmt.Sprintf("%+v", d.Mem.Geometry)).
		F64("bus.mhz", d.Mem.ClockMHz).
		Bool("layout.column_engine", d.ColumnEngine).
		I64("layout.chunk_records", int64(d.ChunkRecords)).
		I64("gran.reach", int64(d.Gran.Reach)).
		I64("gran.sector", int64(d.Gran.SectorBytes)).
		I64("cache.sectors", int64(d.SectorsPerLine())).
		Bool("colstore", s.columnStore()).
		Str("cpu", fmt.Sprintf("%+v", cpu.Default())).
		Str("caches", fmt.Sprintf("%+v", sim.DefaultCaches()))
	ncwf := gathers && d.NoCriticalWordFirst
	f.Bool("ncwf", ncwf)
	if ncwf {
		f.I64("ncwf.tbl", int64(d.Mem.Timing.TBL))
	}
	s.addQuery(f)
	addParams(f, s.Query.Params)
	return f.Sum()
}

// record runs the spec live, like Run, and also returns its miss log.
func (s RunSpec) record() (*sim.QueryResult, *sim.MissLog, error) {
	plan, err := s.compile()
	if err != nil {
		return nil, nil, err
	}
	return s.system().RecordPlan(plan)
}

// replay runs a miss log recorded under the spec's front-end key through
// a fresh memory back end of the spec's design. The result equals Run's.
func (s RunSpec) replay(l *sim.MissLog) *sim.QueryResult {
	sys := sim.NewSystem(design.New(s.Design, s.Options))
	sys.Faults = s.Faults
	return sys.Replay(l)
}

// frontEnds shares front ends within one sweep. Each class of specs with
// equal front-end keys simulates its front end once: the first member to
// run records the miss log while running live, and every later member
// replays it into its own back end. A class's log is freed once its last
// member has finished.
type frontEnds struct {
	mu      sync.Mutex
	classes map[string]*frontEnd
}

// frontEnd is one class's shared recording.
type frontEnd struct {
	left int           // members not yet finished
	done chan struct{} // closed once log or err is set; nil until recording starts
	log  *sim.MissLog
	err  error
}

var errRecordAborted = errors.New("core: front-end recording aborted")

// newFrontEnds tracks the classes among keys that have more than one
// member.
func newFrontEnds(keys []string) *frontEnds {
	n := map[string]int{}
	for _, k := range keys {
		n[k]++
	}
	t := &frontEnds{classes: map[string]*frontEnd{}}
	for k, c := range n {
		if c > 1 {
			t.classes[k] = &frontEnd{left: c}
		}
	}
	return t
}

// run simulates spec, whose front-end key is key: live for a class of
// one, else by recording or replaying the class's miss log. A member that
// arrives while the log is being recorded waits for it, or for ctx.
func (t *frontEnds) run(ctx context.Context, spec RunSpec, key string) (*sim.QueryResult, error) {
	t.mu.Lock()
	c := t.classes[key]
	if c == nil {
		t.mu.Unlock()
		return spec.Run()
	}
	if c.done == nil {
		c.done = make(chan struct{})
		t.mu.Unlock()
		return c.lead(spec)
	}
	t.mu.Unlock()
	select {
	case <-c.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if c.err != nil {
		return nil, c.err
	}
	return spec.replay(c.log), nil
}

// lead records the class's log; a recording that panics leaves the waiting
// members an error instead of blocking them.
func (c *frontEnd) lead(spec RunSpec) (r *sim.QueryResult, err error) {
	c.err = errRecordAborted
	defer close(c.done)
	r, c.log, c.err = spec.record()
	return r, c.err
}

// release marks one member of key's class finished, hit or miss; the last
// one frees the class's log.
func (t *frontEnds) release(key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c := t.classes[key]; c != nil {
		if c.left--; c.left == 0 {
			delete(t.classes, key)
		}
	}
}

// runGrid is the one runner behind every figure: it runs each spec of
// rows through the memo under its Key and returns the results indexed like
// rows. A memo hit skips the simulation entirely. Specs with equal
// FrontEndKey, anywhere in the grid, share one recorded miss log. Within
// each row, the first spec of each front-end class runs before the specs
// that replay it, so a replaying spec rarely waits on a recording in
// flight, and only about one row's logs are alive at a time.
func runGrid(ctx context.Context, rows [][]RunSpec, par Par) ([][]*sim.QueryResult, error) {
	type cell struct {
		ri, ci int
		key    string
	}
	var keys []string
	var order []cell
	for ri, row := range rows {
		seen := map[string]bool{}
		var follow []cell
		for ci, spec := range row {
			c := cell{ri: ri, ci: ci, key: spec.FrontEndKey()}
			keys = append(keys, c.key)
			if seen[c.key] {
				follow = append(follow, c)
			} else {
				seen[c.key] = true
				order = append(order, c)
			}
		}
		order = append(order, follow...)
	}
	fe := newFrontEnds(keys)
	opts := runner.Options{Workers: par.Workers, OnProgress: par.Progress, Observer: par.Observer}
	flat, err := runner.Map(ctx, order, opts, func(ctx context.Context, _ int, c cell) (*sim.QueryResult, error) {
		defer fe.release(c.key)
		spec := rows[c.ri][c.ci]
		r, _, err := par.Memo.do(ctx, spec.Key(), func() (*sim.QueryResult, error) { return fe.run(ctx, spec, c.key) })
		if err != nil {
			return nil, fmt.Errorf("%s on %v: %w", spec.Query.Name, spec.Design, err)
		}
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

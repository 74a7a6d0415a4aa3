package sim

import (
	"sam/internal/cache"
	"sam/internal/cpu"
	"sam/internal/design"
	"sam/internal/dram"
	"sam/internal/imdb"
)

// engine is a run's front end: it drives one workload's transactions
// through the executor, cache hierarchy and stride gathers while advancing
// a simple-core clock, one per variant of its MissLog, and writes every
// operation that reaches memory to the log. Compute costs and cache-hit
// latencies move the clock; the back end (backend.go) applies the memory
// back-pressure of a bounded window of outstanding read misses, so
// steady-state throughput is governed by whichever of compute or memory
// is slower — the behaviour the paper's simple timing cores exhibit on
// these streaming workloads. No memory timing flows back, so the
// operation stream is the same on every design that shares the front
// end's layout, caches and core (see MissLog).
type engine struct {
	sys *System

	// clocks are the core clocks the front end ticks, one per variant of
	// log. charges[i] is what a gather miss adds to clocks[i], in bus
	// cycles.
	clocks  []coreClock
	charges []float64
	log     *MissLog
}

// coreClock is a simple-core clock in bus cycles: the whole cycles, and
// the sub-cycle compute accumulator.
type coreClock struct {
	now  dram.Cycle
	frac float64
}

// add advances the clock by a bus-cycle cost.
func (c *coreClock) add(busCycles float64) {
	c.frac += busCycles
	if c.frac >= 1 {
		whole := int64(c.frac)
		c.now += whole
		c.frac -= float64(whole)
	}
}

// ClockVariant names one of the core clocks a front end can tick: the
// burst length TBL, in bus cycles, that a design without critical-word-
// first delivery waits on every gather miss, or 0 for a design that
// delivers the critical word first. Front ends that differ only in it
// issue the same operations, at different clocks.
type ClockVariant int

// ClockVariantOf returns the clock d's front end ticks.
func ClockVariantOf(d *design.Design) ClockVariant {
	if d.NoCriticalWordFirst {
		return ClockVariant(d.Mem.Timing.TBL)
	}
	return 0
}

// criticalWordCycles is what a gather miss charges variant v's clock, in
// bus cycles, on core p at bus clock busMHz: the requested word lands at
// the end of the burst, and the extra serialization latency is charged
// like any other access latency.
func criticalWordCycles(p cpu.Params, busMHz float64, v ClockVariant) float64 {
	extraCPU := float64(v) * p.ClockGHz * 1e3 / busMHz
	return p.BusCyclesPer(extraCPU*p.LatencyOverlap, busMHz)
}

// newLogEngine starts a run of s's front end that writes its stream into
// log, at every clock the log keeps.
func newLogEngine(s *System, log *MissLog) *engine {
	e := &engine{sys: s, clocks: make([]coreClock, len(log.variants)), log: log}
	for _, v := range log.variants {
		e.charges = append(e.charges, criticalWordCycles(s.CPU, s.Design.Mem.ClockMHz, v))
	}
	return e
}

// spend advances every clock by a bus-cycle cost.
func (e *engine) spend(busCycles float64) {
	for i := range e.clocks {
		e.clocks[i].add(busCycles)
	}
}

// emit writes op to the log at every clock.
func (e *engine) emit(op missOp) { e.log.append(op, e.clocks) }

// field executes one field access of record rec through placer p: the
// hierarchy access, its charge to the clocks, and the miss — a plain line
// fill, or the placer's strided gather when the design gathers the field.
// Every field read and write of the executor takes this one call.
//
// Latency handling: the core is out-of-order and the scans touch
// independent records, so access latency overlaps across the miss window;
// only a fraction of it (CPU.LatencyOverlap) is charged to the front-end
// clock, through System.fieldCost. No memory timing reaches that clock: a
// miss adds only the cache latencies it traversed and, on a design without
// critical-word-first delivery, the burst's extra serialization (charges).
func (e *engine) field(p *design.Placer, rec, field int, write bool) {
	addr, gathers := p.Field(rec, field)
	res := e.sys.Hierarchy.Access(addr, imdb.FieldBytes, write, gathers)
	e.spend(e.sys.fieldCost[res.HitLevel])
	if res.HitLevel > 0 {
		return
	}
	if !gathers {
		e.emitLines(res.MemOps)
		return
	}
	// Only a miss reaches memory, so only a miss builds the gather.
	g := p.Gather(rec, field)

	// Strided group fetch: replace the access's own fill request with the
	// group request(s); keep writeback ops.
	lane := uint8(g.Lane)
	for _, op := range res.MemOps {
		if op.IsWrite {
			e.emit(missOp{kind: opWriteback, addr: op.Addr, sectored: op.Sectored, lane: lane})
		}
	}
	// A critical-word-first clock's charge is 0, which adds nothing.
	for i := range e.clocks {
		e.clocks[i].add(e.charges[i])
	}
	e.emit(missOp{kind: opGather, addr: g.ReqAddr, write: write, lane: lane})
	// Sibling fills: the burst delivered the same sector of every line in
	// the group.
	for _, op := range e.sys.Hierarchy.FillLines(g.Fills, true) {
		e.emit(missOp{kind: opWriteback, addr: op.Addr, sectored: op.Sectored, lane: lane})
	}
}

// record executes the line transactions of a whole-record read or write.
// Record traffic never gathers: a miss is a plain line fill plus any
// writebacks it displaced.
func (e *engine) record(ts []design.Txn) {
	for _, t := range ts {
		res := e.sys.Hierarchy.Access(t.Addr, t.Size, t.Write, false)
		e.spend(e.sys.fieldCost[res.HitLevel])
		if res.HitLevel == 0 {
			e.emitLines(res.MemOps)
		}
	}
}

// emitLines writes a plain miss's line fill and writebacks to the log.
func (e *engine) emitLines(ops []cache.MemOp) {
	for _, op := range ops {
		e.emit(missOp{kind: opLine, addr: op.Addr, write: op.IsWrite, sectored: op.Sectored})
	}
}

// finish flushes dirty cache state into the log and stores the final
// clocks.
func (e *engine) finish() {
	for _, op := range e.sys.Hierarchy.FlushDirty() {
		e.emit(missOp{kind: opWriteback, addr: op.Addr, sectored: op.Sectored})
	}
	for _, c := range e.clocks {
		e.log.ends = append(e.log.ends, c.now)
	}
}

package sim

import (
	"sam/internal/cpu"
	"sam/internal/design"
	"sam/internal/dram"
)

// engine drives one workload's transactions through the cache and memory
// system while advancing a simple-core clock: compute costs and cache-hit
// latencies move the clock directly, and a bounded window of outstanding
// read misses provides memory back-pressure, so steady-state throughput is
// governed by whichever of compute or memory is slower — the behaviour the
// paper's simple timing cores exhibit on these streaming workloads.
//
// The engine is the run's front end — executor, cache hierarchy, stride
// gathers and core clock — feeding its embedded back end (backend.go)
// directly. No memory timing flows back: the clock advances on compute and
// cache latency alone, so the front end's operation stream is the same on
// every design that shares its layout, caches and core, and only its
// clock depends on the design's critical-word delivery (see MissLog).
type engine struct {
	backEnd

	// clocks are the core clocks the front end ticks: the run's own at
	// clocks[0] and, when it records, one per variant its log keeps.
	// charges[i] is what a gather miss adds to clocks[i], in bus cycles.
	clocks  []coreClock
	charges []float64
	busMHz  float64

	// log, when set, records the operation stream as it is issued.
	log *MissLog

	// own backs clocks and charges for a run that records nothing.
	own struct {
		clock  [1]coreClock
		charge [1]float64
	}
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

// newEngine starts a run on s that records nothing.
func newEngine(s *System) *engine { return newLogEngine(s, nil) }

// newLogEngine starts a run on s that records its stream into log, when
// set, at every clock the log keeps.
func newLogEngine(s *System, log *MissLog) *engine {
	e := &engine{backEnd: newBackEnd(s), busMHz: s.Design.Mem.ClockMHz, log: log}
	e.clocks, e.charges = e.own.clock[:], e.own.charge[:]
	if log != nil {
		e.clocks = make([]coreClock, 1+len(log.variants))
		e.charges = make([]float64, 1+len(log.variants))
		for i, v := range log.variants {
			e.charges[1+i] = criticalWordCycles(s.CPU, e.busMHz, v)
		}
	}
	e.charges[0] = criticalWordCycles(s.CPU, e.busMHz, ClockVariantOf(s.Design))
	return e
}

// spend advances every clock by a bus-cycle cost. One loop over them all,
// the run's own included, keeps spend small enough to inline.
func (e *engine) spend(busCycles float64) {
	for i := range e.clocks {
		e.clocks[i].add(busCycles)
	}
}

// emit stamps op with the run's clock, records it when a log is attached,
// and hands it to the back end.
func (e *engine) emit(op missOp) {
	op.clock = e.clocks[0].now
	if e.log != nil {
		e.log.append(op, e.clocks[1:])
	}
	e.issue(op)
}

// do executes one transaction: cache access, miss handling (regular or
// strided group fetch), and writeback traffic.
//
// Latency handling: the core is out-of-order and the scans touch
// independent records, so access latency overlaps across the miss window;
// only a fraction of it (CPU.LatencyOverlap) is charged to the front-end
// clock, through System.fieldCost. No memory timing reaches that clock: a
// miss adds only the cache latencies it traversed and, on a design without
// critical-word-first delivery, the burst's extra serialization (charges).
// A full window of outstanding reads makes the back end service earlier
// requests before it takes the next one (backEnd.enqueue); the request
// still arrives at the front-end clock.
func (e *engine) do(t design.Txn) {
	res := e.sys.Hierarchy.Access(t.Addr, t.Size, t.Write, t.Sectored)
	e.spend(e.sys.fieldCost[res.HitLevel])
	if res.HitLevel > 0 {
		return
	}
	// Only a miss reaches memory, so only a miss builds the gather.
	g := t.Group()
	if g == nil {
		// Plain line fill (plus any writebacks the fill displaced).
		for _, op := range res.MemOps {
			e.emit(missOp{kind: opLine, addr: op.Addr, write: op.IsWrite, sectored: op.Sectored})
		}
		return
	}

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
	e.emit(missOp{kind: opGather, addr: g.ReqAddr, write: t.Write, lane: lane})
	// Sibling fills: the burst delivered the same sector of every line in
	// the group.
	for _, op := range e.sys.Hierarchy.FillLines(g.Fills, true) {
		e.emit(missOp{kind: opWriteback, addr: op.Addr, sectored: op.Sectored, lane: lane})
	}
}

// doAll executes a transaction batch.
func (e *engine) doAll(ts []design.Txn) {
	for _, t := range ts {
		e.do(t)
	}
}

// finish flushes dirty cache state, drains the controller, and builds the
// run statistics.
func (e *engine) finish() RunStats {
	for _, op := range e.sys.Hierarchy.FlushDirty() {
		e.emit(missOp{kind: opWriteback, addr: op.Addr, sectored: op.Sectored})
	}
	if e.log != nil {
		e.log.finish(e.clocks[1:])
	}
	return e.finishAt(e.clocks[0].now)
}

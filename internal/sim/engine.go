package sim

import (
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
// every design that shares its layout, caches and core (see MissLog).
type engine struct {
	backEnd

	clock  dram.Cycle
	frac   float64 // sub-cycle compute accumulator
	busMHz float64

	// log, when set, records the operation stream as it is issued.
	log *MissLog
}

func newEngine(s *System) *engine {
	return &engine{backEnd: newBackEnd(s), busMHz: s.Design.Mem.ClockMHz}
}

// spend advances the clock by a CPU-cycle cost.
func (e *engine) spend(cpuCycles float64) {
	e.frac += e.sys.CPU.BusCyclesPer(cpuCycles, e.busMHz)
	if e.frac >= 1 {
		whole := int64(e.frac)
		e.clock += whole
		e.frac -= float64(whole)
	}
}

// emit stamps op with the clock, records it when a log is attached, and
// hands it to the back end.
func (e *engine) emit(op missOp) {
	op.clock = e.clock
	if e.log != nil {
		e.log.append(op)
	}
	e.issue(op)
}

// do executes one transaction: cache access, miss handling (regular or
// strided group fetch), and writeback traffic.
//
// Latency handling: the core is out-of-order and the scans touch
// independent records, so access latency overlaps across the miss window;
// only a fraction of it (CPU.LatencyOverlap) is charged to throughput. The
// rest is absorbed by window back-pressure — the clock catches up to
// completions only when the window is full.
func (e *engine) do(t design.Txn) {
	res := e.sys.Hierarchy.Access(t.Addr, t.Size, t.Write, t.Sectored)
	e.spend(e.sys.CPU.ComputePerField + float64(res.Latency)*e.sys.CPU.LatencyOverlap)
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
	if e.sys.Design.NoCriticalWordFirst {
		// The requested word lands at the end of the burst: the extra
		// serialization latency is charged like any other access latency.
		extraCPU := float64(e.sys.Design.Mem.Timing.TBL) * e.sys.CPU.ClockGHz * 1e3 / e.busMHz
		e.spend(extraCPU * e.sys.CPU.LatencyOverlap)
	}
	e.emit(missOp{kind: opGather, addr: g.ReqAddr, write: t.Write, lane: lane})
	// Sibling fills: the burst delivered the same sector of every line in
	// the group.
	for _, f := range g.Fills {
		for _, op := range e.sys.Hierarchy.FillLine(f.LineAddr, f.Sectors, true) {
			e.emit(missOp{kind: opWriteback, addr: op.Addr, sectored: op.Sectored, lane: lane})
		}
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
		e.log.end = e.clock
	}
	return e.finishAt(e.clock)
}

package sim

import (
	"fmt"

	"sam/internal/cache"
	"sam/internal/design"
	"sam/internal/dram"
	"sam/internal/etrace"
	"sam/internal/fault"
	"sam/internal/mc"
	"sam/internal/power"
	"sam/internal/stats"
	"sam/internal/trace"
)

// engine drives one workload's transactions through the cache and memory
// system while advancing a simple-core clock: compute costs and cache-hit
// latencies move the clock directly, and a bounded window of outstanding
// read misses provides memory back-pressure, so steady-state throughput is
// governed by whichever of compute or memory is slower — the behaviour the
// paper's simple timing cores exhibit on these streaming workloads.
type engine struct {
	sys *System

	clock    dram.Cycle
	frac     float64 // sub-cycle compute accumulator
	busMHz   float64
	nextID   uint64
	inflight int
	nextChan int // round-robin service pointer across channels

	// Run-relative accounting: systems stay warm across queries (caches,
	// open rows, the controllers' timelines), so each run measures deltas
	// from these snapshots.
	t0      dram.Cycle
	devBase []dram.DeviceStats
	ctlBase []mc.Stats

	// sampleClock is the high-water completion time (absolute bus cycles)
	// driving the windowed sampler: completions across channels arrive out
	// of order, so the sampler is advanced on a ratcheted maximum.
	sampleClock dram.Cycle

	// reg collects this run's distribution instruments. A fresh registry
	// (and mc.Metrics) is attached per run, so histograms need no baseline
	// subtraction — they are exactly this run's observations.
	reg *stats.Registry

	strideFetches uint64 // for the embedded-ECC read period
	regularFills  uint64 // for embedded-ECC overhead on regular fills

	// injectors holds the per-channel fault injectors of this run (nil
	// entries never occur; the slice is nil when injection is off).
	injectors []*fault.Injector
}

// channelFaultSeed derives channel ch's injector seed so every channel draws
// an independent fault stream while the whole run replays from one seed.
func channelFaultSeed(seed uint64, ch int) uint64 {
	return seed ^ (uint64(ch+1) * 0x9e3779b97f4a7c15)
}

func newEngine(s *System) *engine {
	e := &engine{sys: s, busMHz: s.Design.Mem.ClockMHz}
	// (Re)wire fault injection: the per-channel injectors live on the System
	// and are Reset to a fresh deterministic stream per run — same replay as
	// a fresh injector, but the codec scratch, burst workspace, and counters
	// stay warm across runs. Clearing stale probes keeps a later clean run
	// on the same warm system genuinely fault-free (and allocation-free).
	inject := s.Faults != nil && s.Faults.Active()
	// The retry budget is controller state SetMaxRetries mutates in place,
	// so it is re-applied on every run: a fault run always gets the model's
	// configured budget — including 0, which means poison on the first DUE —
	// and a fault-free run restores the default. Applying only positive
	// budgets used to let a previous run's budget leak into later campaign
	// points on a warm system.
	retries := mc.DefaultConfig().MaxRetries
	if inject {
		retries = s.Faults.MaxRetries
	}
	for ch := 0; ch < s.Channels(); ch++ {
		s.controllers[ch].SetMaxRetries(retries)
		if !inject {
			s.devices[ch].Probe = nil
			continue
		}
		cfg := *s.Faults
		cfg.Seed = channelFaultSeed(s.Faults.Seed, ch)
		if ch == len(s.runInjectors) {
			// Scheme and ECC presence are fixed by the design for the
			// system's lifetime, so a cached injector always matches.
			s.runInjectors = append(s.runInjectors, fault.New(cfg, s.Design.BurstScheme(), s.Design.HasECC))
		} else {
			s.runInjectors[ch].Reset(cfg)
		}
		in := s.runInjectors[ch]
		s.devices[ch].Probe = in
		e.injectors = s.runInjectors
	}
	e.reg = stats.NewRegistry()
	// All channels share one instrument set: one event loop services every
	// channel, and a cross-channel latency distribution is what the
	// run-level histograms mean.
	m := mc.NewMetrics(e.reg)
	for ch := 0; ch < s.Channels(); ch++ {
		s.controllers[ch].Metrics = m
	}
	if cap(s.devBase) < s.Channels() {
		s.devBase = make([]dram.DeviceStats, s.Channels())
		s.ctlBase = make([]mc.Stats, s.Channels())
	}
	e.devBase = s.devBase[:s.Channels()]
	e.ctlBase = s.ctlBase[:s.Channels()]
	for ch := 0; ch < s.Channels(); ch++ {
		cs := s.controllers[ch].Stats
		if cs.BusCycleOfLastAccess > e.t0 {
			e.t0 = cs.BusCycleOfLastAccess
		}
		// CloneInto: DeviceStats carries the per-bank slice, and an aliased
		// baseline would track the live stats and zero every delta.
		s.devices[ch].Stats.CloneInto(&e.devBase[ch])
		e.ctlBase[ch] = cs
	}
	return e
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

// serviceOne retires one memory request from some channel (round-robin).
// The core clock is NOT lifted to the completion time: compute and memory
// service overlap fully across the pipelined cores, so the run's length is
// max(compute time, memory time), taken in finish(). Each controller's own
// timeline paces its channel.
func (e *engine) serviceOne() bool {
	n := e.sys.Channels()
	for i := 0; i < n; i++ {
		ctrl := e.sys.controllers[(e.nextChan+i)%n]
		comp, ok := ctrl.ServiceOne()
		if !ok {
			continue
		}
		e.nextChan = (e.nextChan + i + 1) % n
		if e.sys.Sampler != nil {
			e.noteTime(comp.DataEnd)
		}
		if !comp.Req.IsWrite {
			e.inflight--
		}
		return true
	}
	return false
}

// noteTime ratchets the sampler clock to a completion time and records a
// sample for every window boundary it crossed.
func (e *engine) noteTime(at dram.Cycle) {
	if at > e.sampleClock {
		e.sampleClock = at
	}
	sp := e.sys.Sampler
	for sp.Due(int64(e.sampleClock - e.t0)) {
		e.recordSample(sp.Advance())
	}
}

// recordSample snapshots the run-relative cumulative statistics (summed
// across channels) at boundary at. Queue depth and inflight are the levels
// at record time — sampled, like any profiler counter. The cross-channel
// delta accumulates on the system's scratch DeviceStats (AddSub applies
// per-bank deltas in place), so each sample clones one bank slice into the
// series instead of one per channel.
func (e *engine) recordSample(at int64) {
	dev := &e.sys.sampleScratch
	*dev = dram.DeviceStats{PerBank: dev.PerBank[:0]}
	var ctl mc.Stats
	queue := 0
	for ch := 0; ch < e.sys.Channels(); ch++ {
		dev.AddSub(e.sys.devices[ch].Stats, e.devBase[ch])
		ctl.Add(e.sys.controllers[ch].Stats.Sub(e.ctlBase[ch]))
		queue += e.sys.controllers[ch].Pending()
	}
	e.sys.Sampler.Record(etrace.Sample{
		At: at, Ctl: ctl, Dev: dev.Clone(), Queue: queue, Inflight: e.inflight,
	})
}

// enqueue pushes one request to its channel, applying window and queue
// back-pressure.
func (e *engine) enqueue(r mc.Request) {
	ctrl := e.sys.controllers[e.sys.channelOf(r.Addr)]
	for !ctrl.CanAccept(r.IsWrite) {
		if !e.serviceOne() {
			panic("sim: controller full but idle")
		}
	}
	if !r.IsWrite {
		for e.inflight >= e.sys.CPU.WindowSize() {
			if !e.serviceOne() {
				panic("sim: window full but controller idle")
			}
		}
		e.inflight++
	}
	r.ID = e.nextID
	e.nextID++
	r.Arrival = e.t0 + e.clock
	if e.sys.TraceSink != nil {
		e.sys.TraceSink.Add(trace.FromRequest(r))
	}
	ctrl.Enqueue(r)
}

// memOpRequest converts a cache MemOp (line fill or writeback) into a
// controller request. Strided writebacks keep their shape (sstore).
func (e *engine) memOpRequest(op cache.MemOp, lane int, gang bool) mc.Request {
	return mc.Request{
		Addr:    op.Addr,
		IsWrite: op.IsWrite,
		Stride:  op.Sectored && e.sys.Design.SupportsStride(),
		Lane:    lane,
		Gang:    gang && op.Sectored,
	}
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
			e.enqueue(e.memOpRequest(op, 0, false))
			if !op.IsWrite {
				e.regularFills++
				// Embedded ECC displaces data in every page, so regular
				// fills periodically drag their check-bit line along.
				if p := e.sys.Design.ECCRegularPeriod; p > 0 && e.regularFills%uint64(p) == 0 {
					e.enqueue(mc.Request{Addr: op.Addr + uint64(e.sys.Design.Mem.Geometry.LineBytes)})
				}
			}
		}
		return
	}

	// Strided group fetch: replace the access's own fill request with the
	// group request(s); keep writeback ops.
	for _, op := range res.MemOps {
		if op.IsWrite {
			e.enqueue(e.memOpRequest(op, g.Lane, g.Gang))
		}
	}
	if e.sys.Design.NoCriticalWordFirst {
		// The requested word lands at the end of the burst: the extra
		// serialization latency is charged like any other access latency.
		extraCPU := float64(e.sys.Design.Mem.Timing.TBL) * e.sys.CPU.ClockGHz * 1e3 / e.busMHz
		e.spend(extraCPU * e.sys.CPU.LatencyOverlap)
	}
	for b := 0; b < g.Bursts; b++ {
		e.enqueue(mc.Request{
			Addr:   g.ReqAddr + uint64(b*e.sys.Design.Mem.Geometry.LineBytes),
			Stride: true,
			Lane:   g.Lane,
			Gang:   g.Gang,
		})
	}
	e.strideFetches++
	// Embedded-ECC companion read (GS-DRAM-ecc).
	if p := e.sys.Design.ECCReadPeriod; p > 0 && e.strideFetches%uint64(p) == 0 {
		e.enqueue(mc.Request{Addr: g.ReqAddr + uint64(e.sys.Design.Mem.Geometry.LineBytes), Stride: false})
	}
	// Embedded-ECC write read-modify-write, once per ECC line's worth of
	// strided write fetches.
	if p := e.sys.Design.ECCReadPeriod; t.Write && e.sys.Design.ECCWriteRMW && p > 0 && e.strideFetches%uint64(p) == 0 {
		base := g.ReqAddr + 2*uint64(e.sys.Design.Mem.Geometry.LineBytes)
		e.enqueue(mc.Request{Addr: base})
		e.enqueue(mc.Request{Addr: base, IsWrite: true})
	}
	// Sibling fills: the burst delivered the same sector of every line in
	// the group.
	for _, f := range g.Fills {
		for _, op := range e.sys.Hierarchy.FillLine(f.LineAddr, f.Sectors, true) {
			e.enqueue(e.memOpRequest(op, g.Lane, g.Gang))
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
		e.enqueue(e.memOpRequest(op, 0, e.sys.Design.Gran.Gang))
	}
	for e.serviceOne() {
	}
	end := e.t0 + e.clock
	var dev dram.DeviceStats
	var ctl mc.Stats
	for ch := 0; ch < e.sys.Channels(); ch++ {
		cs := e.sys.controllers[ch].Stats
		if cs.BusCycleOfLastAccess > end {
			end = cs.BusCycleOfLastAccess
		}
		dev.Add(e.sys.devices[ch].Stats.Sub(e.devBase[ch]))
		ctl.Add(cs.Sub(e.ctlBase[ch]))
	}
	if sp := e.sys.Sampler; sp != nil {
		rel := int64(end - e.t0)
		for sp.Due(rel) {
			e.recordSample(sp.Advance())
		}
		// A final flush sample at the run's end closes the last partial
		// window, so the series' cumulative totals equal the RunStats.
		if n := len(sp.Samples); n == 0 || sp.Samples[n-1].At < rel {
			e.recordSample(rel)
		}
	}
	end -= e.t0
	act := power.Activity{
		Acts:         dev.Acts,
		Reads:        dev.Reads,
		Writes:       dev.Writes,
		StrideReads:  dev.StrideReads,
		StrideWrites: dev.StrideWrites,
		Refreshes:    dev.Refs,
		// Background power burns in every channel's rank for the whole run.
		Cycles: uint64(end) * uint64(e.sys.Channels()),
	}
	energy := e.sys.Design.Power.Energy(act)
	rs := RunStats{
		Cycles:       end,
		MemRequests:  ctl.Reads + ctl.Writes,
		Energy:       energy,
		PowerMW:      e.sys.Design.Power.AveragePowerMW(energy, uint64(end)),
		Device:       dev,
		Controller:   ctl,
		BankActPreNJ: e.sys.Design.Power.PerBankActPre(dev.PerBankActs()),
	}
	if hits, misses := ctl.RowHits, ctl.RowMisses+ctl.RowEmpties; hits+misses > 0 {
		rs.RowHitRate = float64(hits) / float64(hits+misses)
	}
	if e.injectors != nil {
		rel := &fault.Counters{}
		for _, in := range e.injectors {
			rel.Add(in.Counters)
		}
		rs.Reliability = rel
		rs.CorrectedBursts = rel.CorrectedBursts
		rs.UncorrectableBursts = rel.DUEs + rel.SilentCorruptions
		// Mirror the block into the run's instrument registry — before the
		// single snapshot below — so JSON exports and profiles carry the
		// reliability outcome alongside the latency histograms.
		c := func(name string, v uint64) { e.reg.Counter("fault." + name).Add(v) }
		c("bursts", rel.Bursts)
		c("injected", rel.Injected)
		c("corrected_bursts", rel.CorrectedBursts)
		c("corrected_symbols", rel.CorrectedSymbols)
		c("dues", rel.DUEs)
		c("silent_corruptions", rel.SilentCorruptions)
		c("retries", ctl.Retries)
		c("poisoned", ctl.Poisoned)
		for chip, n := range rel.PerChip {
			if n != 0 {
				e.reg.Counter(fmt.Sprintf("fault.chip_%02d", chip)).Add(n)
			}
		}
	}
	rs.Metrics = e.reg.Snapshot()
	return rs
}

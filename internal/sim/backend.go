package sim

import (
	"fmt"

	"sam/internal/cache"
	"sam/internal/dram"
	"sam/internal/etrace"
	"sam/internal/fault"
	"sam/internal/mc"
	"sam/internal/power"
	"sam/internal/stats"
	"sam/internal/trace"
)

// opKind classifies the cache-level operations the front end hands the
// back end.
type opKind uint8

const (
	// opLine is a demand miss's own traffic: the line fill, or a writeback
	// the fill displaced.
	opLine opKind = iota
	// opWriteback is a writeback that keeps its strided shape: displaced
	// by a strided fetch or one of its sibling fills (at the gather's
	// lane), or flushed at the end of the run (lane 0).
	opWriteback
	// opGather is one strided fetch at the gather's request address; write
	// marks a store's fetch.
	opGather
)

// missOp is one cache-level operation of the front-end stream, stamped
// with the core clock at which the front end issued it. It is the unit a
// MissLog records.
type missOp struct {
	clock    dram.Cycle
	addr     uint64
	kind     opKind
	write    bool
	sectored bool
	lane     uint8
}

// backEnd is the memory side of a run: it turns the front end's cache-level
// operations into controller requests by the design's own rules (stride and
// gang flags, SubFieldSplit bursts, embedded-ECC companions), applies window
// and queue back-pressure, services the channels, and builds the run
// statistics. Nothing it does feeds back into the front end: the core clock
// only ever reaches it as the arrival time of a request.
type backEnd struct {
	sys *System

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

// newBackEnd starts a run on s's memory side.
func newBackEnd(s *System) backEnd {
	b := backEnd{sys: s}
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
		b.injectors = s.runInjectors
	}
	b.reg = stats.NewRegistry()
	// All channels share one instrument set: one event loop services every
	// channel, and a cross-channel latency distribution is what the
	// run-level histograms mean.
	m := mc.NewMetrics(b.reg)
	for ch := 0; ch < s.Channels(); ch++ {
		s.controllers[ch].Metrics = m
	}
	if cap(s.devBase) < s.Channels() {
		s.devBase = make([]dram.DeviceStats, s.Channels())
		s.ctlBase = make([]mc.Stats, s.Channels())
	}
	b.devBase = s.devBase[:s.Channels()]
	b.ctlBase = s.ctlBase[:s.Channels()]
	for ch := 0; ch < s.Channels(); ch++ {
		cs := s.controllers[ch].Stats
		if cs.BusCycleOfLastAccess > b.t0 {
			b.t0 = cs.BusCycleOfLastAccess
		}
		// CloneInto: DeviceStats carries the per-bank slice, and an aliased
		// baseline would track the live stats and zero every delta.
		s.devices[ch].Stats.CloneInto(&b.devBase[ch])
		b.ctlBase[ch] = cs
	}
	return b
}

// issue turns one front-end operation into the design's controller
// requests.
func (b *backEnd) issue(op missOp) {
	d := b.sys.Design
	line := uint64(d.Mem.Geometry.LineBytes)
	switch op.kind {
	case opLine:
		b.enqueue(b.memOpRequest(cache.MemOp{Addr: op.addr, IsWrite: op.write, Sectored: op.sectored}, 0, false), op.clock)
		if !op.write {
			b.regularFills++
			// Embedded ECC displaces data in every page, so regular
			// fills periodically drag their check-bit line along.
			if p := d.ECCRegularPeriod; p > 0 && b.regularFills%uint64(p) == 0 {
				b.enqueue(mc.Request{Addr: op.addr + line}, op.clock)
			}
		}
	case opWriteback:
		b.enqueue(b.memOpRequest(cache.MemOp{Addr: op.addr, IsWrite: true, Sectored: op.sectored}, int(op.lane), d.Gran.Gang), op.clock)
	case opGather:
		// RC-NVM-bit's sub-field gather needs SubFieldSplit column bursts.
		for i := 0; i < d.SubFieldSplit; i++ {
			b.enqueue(mc.Request{
				Addr:   op.addr + uint64(i)*line,
				Stride: true,
				Lane:   int(op.lane),
				Gang:   d.Gran.Gang,
			}, op.clock)
		}
		b.strideFetches++
		if p := d.ECCReadPeriod; p > 0 && b.strideFetches%uint64(p) == 0 {
			// Embedded-ECC companion read (GS-DRAM-ecc) ...
			b.enqueue(mc.Request{Addr: op.addr + line}, op.clock)
			// ... and, for a store, the ECC line's read-modify-write.
			if op.write && d.ECCWriteRMW {
				base := op.addr + 2*line
				b.enqueue(mc.Request{Addr: base}, op.clock)
				b.enqueue(mc.Request{Addr: base, IsWrite: true}, op.clock)
			}
		}
	}
}

// memOpRequest converts a cache MemOp (line fill or writeback) into a
// controller request. Strided writebacks keep their shape (sstore).
func (b *backEnd) memOpRequest(op cache.MemOp, lane int, gang bool) mc.Request {
	return mc.Request{
		Addr:    op.Addr,
		IsWrite: op.IsWrite,
		Stride:  op.Sectored && b.sys.Design.SupportsStride(),
		Lane:    lane,
		Gang:    gang && op.Sectored,
	}
}

// serviceOne retires one memory request from some channel (round-robin).
// The core clock is NOT lifted to the completion time: compute and memory
// service overlap fully across the pipelined cores, so the run's length is
// max(compute time, memory time), taken in finishAt. Each controller's own
// timeline paces its channel.
func (b *backEnd) serviceOne() bool {
	n := b.sys.Channels()
	for i := 0; i < n; i++ {
		ctrl := b.sys.controllers[(b.nextChan+i)%n]
		comp, ok := ctrl.ServiceOne()
		if !ok {
			continue
		}
		b.nextChan = (b.nextChan + i + 1) % n
		if b.sys.Sampler != nil {
			b.noteTime(comp.DataEnd)
		}
		if !comp.Req.IsWrite {
			b.inflight--
		}
		return true
	}
	return false
}

// noteTime ratchets the sampler clock to a completion time and records a
// sample for every window boundary it crossed.
func (b *backEnd) noteTime(at dram.Cycle) {
	if at > b.sampleClock {
		b.sampleClock = at
	}
	sp := b.sys.Sampler
	for sp.Due(int64(b.sampleClock - b.t0)) {
		b.recordSample(sp.Advance())
	}
}

// recordSample snapshots the run-relative cumulative statistics (summed
// across channels) at boundary at. Queue depth and inflight are the levels
// at record time — sampled, like any profiler counter. The cross-channel
// delta accumulates on the system's scratch DeviceStats (AddSub applies
// per-bank deltas in place), so each sample clones one bank slice into the
// series instead of one per channel.
func (b *backEnd) recordSample(at int64) {
	dev := &b.sys.sampleScratch
	*dev = dram.DeviceStats{PerBank: dev.PerBank[:0]}
	var ctl mc.Stats
	queue := 0
	for ch := 0; ch < b.sys.Channels(); ch++ {
		dev.AddSub(b.sys.devices[ch].Stats, b.devBase[ch])
		ctl.Add(b.sys.controllers[ch].Stats.Sub(b.ctlBase[ch]))
		queue += b.sys.controllers[ch].Pending()
	}
	b.sys.Sampler.Record(etrace.Sample{
		At: at, Ctl: ctl, Dev: dev.Clone(), Queue: queue, Inflight: b.inflight,
	})
}

// enqueue pushes one request, arriving at front-end clock `clock`, to its
// channel, applying window and queue back-pressure.
func (b *backEnd) enqueue(r mc.Request, clock dram.Cycle) {
	ctrl := b.sys.controllers[b.sys.channelOf(r.Addr)]
	for !ctrl.CanAccept(r.IsWrite) {
		if !b.serviceOne() {
			panic("sim: controller full but idle")
		}
	}
	if !r.IsWrite {
		for b.inflight >= b.sys.CPU.WindowSize() {
			if !b.serviceOne() {
				panic("sim: window full but controller idle")
			}
		}
		b.inflight++
	}
	r.ID = b.nextID
	b.nextID++
	r.Arrival = b.t0 + clock
	if b.sys.TraceSink != nil {
		b.sys.TraceSink.Add(trace.FromRequest(r))
	}
	ctrl.Enqueue(r)
}

// finishAt drains the controllers and builds the run statistics for a run
// whose front end ended at clock.
func (b *backEnd) finishAt(clock dram.Cycle) RunStats {
	for b.serviceOne() {
	}
	end := b.t0 + clock
	var dev dram.DeviceStats
	var ctl mc.Stats
	for ch := 0; ch < b.sys.Channels(); ch++ {
		cs := b.sys.controllers[ch].Stats
		if cs.BusCycleOfLastAccess > end {
			end = cs.BusCycleOfLastAccess
		}
		dev.Add(b.sys.devices[ch].Stats.Sub(b.devBase[ch]))
		ctl.Add(cs.Sub(b.ctlBase[ch]))
	}
	if sp := b.sys.Sampler; sp != nil {
		rel := int64(end - b.t0)
		for sp.Due(rel) {
			b.recordSample(sp.Advance())
		}
		// A final flush sample at the run's end closes the last partial
		// window, so the series' cumulative totals equal the RunStats.
		if n := len(sp.Samples); n == 0 || sp.Samples[n-1].At < rel {
			b.recordSample(rel)
		}
	}
	end -= b.t0
	act := power.Activity{
		Acts:         dev.Acts,
		Reads:        dev.Reads,
		Writes:       dev.Writes,
		StrideReads:  dev.StrideReads,
		StrideWrites: dev.StrideWrites,
		Refreshes:    dev.Refs,
		// Background power burns in every channel's rank for the whole run.
		Cycles: uint64(end) * uint64(b.sys.Channels()),
	}
	energy := b.sys.Design.Power.Energy(act)
	rs := RunStats{
		Cycles:       end,
		MemRequests:  ctl.Reads + ctl.Writes,
		Energy:       energy,
		PowerMW:      b.sys.Design.Power.AveragePowerMW(energy, uint64(end)),
		Device:       dev,
		Controller:   ctl,
		BankActPreNJ: b.sys.Design.Power.PerBankActPre(dev.PerBankActs()),
	}
	if hits, misses := ctl.RowHits, ctl.RowMisses+ctl.RowEmpties; hits+misses > 0 {
		rs.RowHitRate = float64(hits) / float64(hits+misses)
	}
	if b.injectors != nil {
		rel := &fault.Counters{}
		for _, in := range b.injectors {
			rel.Add(in.Counters)
		}
		rs.Reliability = rel
		rs.CorrectedBursts = rel.CorrectedBursts
		rs.UncorrectableBursts = rel.DUEs + rel.SilentCorruptions
		// Mirror the block into the run's instrument registry — before the
		// single snapshot below — so JSON exports and profiles carry the
		// reliability outcome alongside the latency histograms.
		c := func(name string, v uint64) { b.reg.Counter("fault." + name).Add(v) }
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
				b.reg.Counter(fmt.Sprintf("fault.chip_%02d", chip)).Add(n)
			}
		}
	}
	rs.Metrics = b.reg.Snapshot()
	return rs
}

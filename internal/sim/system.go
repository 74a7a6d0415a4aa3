// Package sim binds the substrates into a full system — query executor on
// top, sector-cache hierarchy, FR-FCFS controller, and the cycle-level
// device model underneath — and runs compiled SQL plans against a chosen
// memory design, producing both functional results (for correctness
// checks) and timing/energy statistics (for the paper's figures).
package sim

import (
	"fmt"

	"sam/internal/cache"
	"sam/internal/cpu"
	"sam/internal/design"
	"sam/internal/dram"
	"sam/internal/etrace"
	"sam/internal/fault"
	"sam/internal/imdb"
	"sam/internal/mc"
	"sam/internal/power"
	"sam/internal/stats"
	"sam/internal/trace"
)

// CacheParams size the hierarchy (Table 2: 32KB L1, 256KB L2, 8MB LLC).
type CacheParams struct {
	L1Bytes, L2Bytes, LLCBytes int
	Ways                       int
}

// DefaultCaches mirrors Table 2.
func DefaultCaches() CacheParams {
	return CacheParams{L1Bytes: 32 << 10, L2Bytes: 256 << 10, LLCBytes: 8 << 20, Ways: 8}
}

// System is one design point ready to run queries. Each channel
// (Geometry.Channels) gets its own controller+device pair, all serviced by
// one event loop; Device/Controller alias channel 0.
type System struct {
	Design *design.Design
	CPU    cpu.Params
	Caches CacheParams

	Device     *dram.Device
	Controller *mc.Controller
	Hierarchy  *cache.Hierarchy

	devices     []*dram.Device
	controllers []*mc.Controller
	route       *mc.AddrMap

	tables  map[string]*imdb.Table
	placers map[string]*design.Placer
	slots   int

	// Audit enables end-to-end protocol checking (slow; tests only).
	Audit bool

	// Deprecated: ShardWorkers is ignored; every run uses one serial event
	// loop. It is kept only so sam/perfbench compiles and will be removed
	// when the benchmark next changes.
	ShardWorkers int

	// Faults, when set and active, routes every data-carrying DRAM burst of
	// the run through the real chipkill codec with faults injected at the
	// device's burst boundary: persistent per-rank fault maps (dead chips,
	// stuck DQs) and seed-driven transients (bit flips, chip-wide garbage,
	// correlated runs). Designs with chipkill correct or detect them — the
	// controller retries detected-uncorrectable reads and poisons the line
	// when the retry budget runs out — while designs without ECC (plain
	// GS-DRAM) take silent data corruption. All outcomes land in
	// RunStats.Reliability.
	Faults *FaultModel

	// TraceSink, when set, records every memory request the run issues.
	TraceSink *trace.Trace

	// Events and Sampler are the cycle-accurate event-trace attachments
	// (set via AttachEventTrace): Events receives every request-lifecycle
	// and DRAM-command event, Sampler is fed windowed statistics snapshots
	// by the run engine. Use a fresh Sampler per run — its window clock is
	// run-relative.
	Events  *etrace.Buffer
	Sampler *etrace.Sampler

	// Run arenas, reused across Run invocations on this system so repeated
	// sweep points stop reallocating their world each run: the per-channel
	// fault injectors (codec scratch, burst workspace, counters — Reset to a
	// fresh deterministic stream each run) and the engine's run-relative
	// stat baselines.
	runInjectors []*fault.Injector
	devBase      []dram.DeviceStats
	ctlBase      []mc.Stats
	// sampleScratch accumulates the cross-channel device delta for one
	// windowed sample (engine.recordSample), reusing its per-bank backing
	// across samples and runs.
	sampleScratch dram.DeviceStats
}

// FaultModel configures fault injection; it is fault.Config verbatim (seed,
// transient rate and mix weights, per-rank dead-chip and stuck-DQ maps, and
// the read-retry budget). Each channel derives its own injector from Seed,
// so replay is deterministic regardless of how runs are parallelized.
type FaultModel = fault.Config

// ShardObsSnapshot returns an empty snapshot.
//
// Deprecated: the sharded run engine is gone and there are no counters to
// report. ShardObsSnapshot is kept only so sam/perfbench compiles and will
// be removed when the benchmark next changes.
func ShardObsSnapshot() *stats.Snapshot { return &stats.Snapshot{} }

// NewSystem builds a system for the design.
func NewSystem(d *design.Design) *System {
	s := &System{
		Design:  d,
		CPU:     cpu.Default(),
		Caches:  DefaultCaches(),
		tables:  make(map[string]*imdb.Table),
		placers: make(map[string]*design.Placer),
	}
	s.reset()
	return s
}

// reset rebuilds the memory-side state (between workloads).
func (s *System) reset() {
	nch := s.Design.Mem.Geometry.Channels
	s.devices = make([]*dram.Device, nch)
	s.controllers = make([]*mc.Controller, nch)
	for ch := 0; ch < nch; ch++ {
		s.devices[ch] = dram.NewDevice(s.Design.Mem)
		s.controllers[ch] = mc.NewController(s.devices[ch], mc.DefaultConfig())
		if s.Audit {
			s.controllers[ch].Audit = dram.NewAuditor(s.Design.Mem)
		}
	}
	s.Device = s.devices[0]
	s.Controller = s.controllers[0]
	s.wireEventTrace()
	s.route = mc.NewAddrMap(s.Design.Mem.Geometry)
	sectors := s.Design.SectorsPerLine()
	lb := s.Design.Mem.Geometry.LineBytes
	l1 := cache.New(cache.Config{Name: "L1", SizeBytes: s.Caches.L1Bytes, LineBytes: lb, Ways: s.Caches.Ways, Sectors: sectors, HitLatency: 4})
	l2 := cache.New(cache.Config{Name: "L2", SizeBytes: s.Caches.L2Bytes, LineBytes: lb, Ways: s.Caches.Ways, Sectors: sectors, HitLatency: 12})
	llc := cache.New(cache.Config{Name: "LLC", SizeBytes: s.Caches.LLCBytes, LineBytes: lb, Ways: s.Caches.Ways, Sectors: sectors, HitLatency: 38})
	s.Hierarchy = cache.NewHierarchy(l1, l2, llc)
}

// AttachEventTrace wires a cycle-accurate event trace into every channel:
// buf's per-channel tracers observe both the controller's request lifecycle
// and the device's command stream, and sp (optional) receives windowed
// statistics samples from the run engine. Passing a nil buf detaches
// tracing again. The attachment survives reset.
func (s *System) AttachEventTrace(buf *etrace.Buffer, sp *etrace.Sampler) {
	s.Events = buf
	s.Sampler = sp
	s.wireEventTrace()
}

// wireEventTrace applies the Events attachment to the current controller
// and device set (reset rebuilds them, so it re-runs there).
func (s *System) wireEventTrace() {
	for ch := range s.controllers {
		if s.Events != nil {
			t := s.Events.Channel(ch)
			s.controllers[ch].Trace = t
			s.devices[ch].Trace = t
		} else {
			s.controllers[ch].Trace = nil
			s.devices[ch].Trace = nil
		}
	}
}

// Channels returns the channel count.
func (s *System) Channels() int { return len(s.controllers) }

// ChannelController returns channel ch's controller.
func (s *System) ChannelController(ch int) *mc.Controller { return s.controllers[ch] }

// ChannelDevice returns channel ch's device.
func (s *System) ChannelDevice(ch int) *dram.Device { return s.devices[ch] }

// channelOf routes an address to its channel (a masked shift, not a full
// coordinate decode — this sits on the per-request enqueue path).
func (s *System) channelOf(addr uint64) int {
	if len(s.controllers) == 1 {
		return 0
	}
	return s.route.Channel(addr)
}

// AuditOK reports whether every channel's command stream was protocol
// clean (only meaningful with Audit set).
func (s *System) AuditOK() bool {
	for _, c := range s.controllers {
		if c.Audit != nil && !c.Audit.Ok() {
			return false
		}
	}
	return true
}

// AddTable registers a table; colStore selects column-major placement (the
// ideal design's choice for column-preferring queries).
func (s *System) AddTable(t *imdb.Table, colStore bool) {
	s.addTable(t, design.NewPlacer(s.Design, t.Schema, s.slots, colStore))
}

// AddTableHybrid registers a table under the hybrid layout: hotFields are
// stored column-major, everything else row-major (the software alternative
// the Fig. 15 sweeps motivate).
func (s *System) AddTableHybrid(t *imdb.Table, hotFields []int) {
	s.addTable(t, design.NewPlacerHybrid(s.Design, t.Schema, s.slots, hotFields))
}

func (s *System) addTable(t *imdb.Table, p *design.Placer) {
	if _, dup := s.tables[t.Schema.Name]; dup {
		panic(fmt.Sprintf("sim: duplicate table %q", t.Schema.Name))
	}
	p.BindTable(t)
	s.tables[t.Schema.Name] = t
	s.placers[t.Schema.Name] = p
	s.slots++
}

// Table returns a registered table.
func (s *System) Table(name string) (*imdb.Table, error) {
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("sim: unknown table %q", name)
	}
	return t, nil
}

// RunStats aggregates one run's observable behaviour.
type RunStats struct {
	Cycles      dram.Cycle
	MemRequests uint64
	RowHitRate  float64
	Energy      power.Breakdown // nanojoules
	PowerMW     power.Breakdown
	Device      dram.DeviceStats
	Controller  mc.Stats
	// BankActPreNJ is per-bank activation energy in nanojoules — the
	// spatial split of Energy.ActPre, indexed like Device.PerBank.
	BankActPreNJ []float64
	// Metrics is the run's instrument snapshot: per-class request-latency
	// and queue-occupancy histograms (see mc.NewMetrics for the names).
	Metrics *stats.Snapshot
	// Reliability is the fault campaign's full counter block (nil unless
	// System.Faults is active), summed across channels.
	Reliability *fault.Counters
	// Fault-injection outcomes (zero unless System.Faults is set):
	// CorrectedBursts are bursts the codec healed; UncorrectableBursts are
	// detected-uncorrectable decodes plus silent corruptions (no-ECC
	// designs).
	CorrectedBursts     uint64
	UncorrectableBursts uint64
}

// Seconds converts the run length to wall-clock seconds at the bus clock.
func (r RunStats) Seconds(clockMHz float64) float64 {
	return float64(r.Cycles) / (clockMHz * 1e6)
}

// EnergyEfficiency returns work-per-energy relative to a reference run of
// the same workload: (refEnergy/refTime) ... the paper's normalized energy
// efficiency is simply E_ref / E_design for identical work.
func EnergyEfficiency(ref, d RunStats) float64 {
	if d.Energy.Total() == 0 {
		return 0
	}
	return ref.Energy.Total() / d.Energy.Total()
}

// Speedup returns ref.Cycles / d.Cycles.
func Speedup(ref, d RunStats) float64 {
	if d.Cycles == 0 {
		return 0
	}
	return float64(ref.Cycles) / float64(d.Cycles)
}

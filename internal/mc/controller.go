package mc

import (
	"fmt"

	"sam/internal/dram"
	"sam/internal/stats"
)

// Request is one memory transaction the controller schedules: a cacheline
// (regular) or strided-sector-group (stride mode) read or write.
type Request struct {
	ID      uint64
	Addr    uint64
	IsWrite bool
	// Stride marks a SAM strided access; Lane selects the Sx4_n mode.
	Stride bool
	Lane   int
	// Gang marks a dual-rank fine-granularity burst (Section 4.4).
	Gang bool
	// Arrival is when the request reaches the controller (bus cycles).
	Arrival dram.Cycle
}

// Completion reports a serviced request. ServiceOne writes it into
// caller-owned storage.
type Completion struct {
	Req       Request
	IssueAt   dram.Cycle // column command issue (final attempt when retried)
	DataStart dram.Cycle
	DataEnd   dram.Cycle
	RowHit    bool
	RowEmpty  bool // bank was closed (neither hit nor conflict)
	// Retries counts re-issued column reads after detected-uncorrectable
	// ECC verdicts; Poisoned marks a read that stayed uncorrectable through
	// every retry — its data must not be consumed silently.
	Retries  uint8
	Poisoned bool
}

// Stats aggregates controller-level behaviour.
type Stats struct {
	Reads, Writes uint64
	// RowHits counts requests whose row is open when their own access
	// starts, including rows prepareAhead opened for them while an earlier
	// request was in service; RowMisses found another row open and
	// RowEmpties a closed bank. This is a request-level view: the device's
	// per-bank dram.BankStats.RowHits counts column accesses after the
	// first one since an ACT instead, so the two differ whenever banks are
	// prepared ahead.
	RowHits, RowMisses   uint64
	RowEmpties           uint64
	Refreshes            uint64
	WriteDrains          uint64
	TotalReadLatency     uint64 // arrival -> data end, reads only
	MaxQueueOccupancy    int
	IssuedCommands       uint64
	StrideAccesses       uint64
	ModeSwitches         uint64
	StarvationBreaks     uint64
	Retries              uint64 // column reads re-issued after DUE verdicts
	Poisoned             uint64 // reads surfaced as poisoned after retry exhaustion
	BusCycleOfLastAccess dram.Cycle
}

// Sub returns the per-run delta cur-minus-base of the monotonic tallies.
// MaxQueueOccupancy and BusCycleOfLastAccess are level values, not
// counters, and carry over from s unchanged.
func (s Stats) Sub(base Stats) Stats {
	return Stats{
		Reads:                s.Reads - base.Reads,
		Writes:               s.Writes - base.Writes,
		RowHits:              s.RowHits - base.RowHits,
		RowMisses:            s.RowMisses - base.RowMisses,
		RowEmpties:           s.RowEmpties - base.RowEmpties,
		Refreshes:            s.Refreshes - base.Refreshes,
		WriteDrains:          s.WriteDrains - base.WriteDrains,
		TotalReadLatency:     s.TotalReadLatency - base.TotalReadLatency,
		MaxQueueOccupancy:    s.MaxQueueOccupancy,
		IssuedCommands:       s.IssuedCommands - base.IssuedCommands,
		StrideAccesses:       s.StrideAccesses - base.StrideAccesses,
		ModeSwitches:         s.ModeSwitches - base.ModeSwitches,
		StarvationBreaks:     s.StarvationBreaks - base.StarvationBreaks,
		Retries:              s.Retries - base.Retries,
		Poisoned:             s.Poisoned - base.Poisoned,
		BusCycleOfLastAccess: s.BusCycleOfLastAccess,
	}
}

// Add accumulates o into s (cross-channel aggregation): tallies sum, level
// values take the maximum.
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.RowHits += o.RowHits
	s.RowMisses += o.RowMisses
	s.RowEmpties += o.RowEmpties
	s.Refreshes += o.Refreshes
	s.WriteDrains += o.WriteDrains
	s.TotalReadLatency += o.TotalReadLatency
	s.IssuedCommands += o.IssuedCommands
	s.StrideAccesses += o.StrideAccesses
	s.ModeSwitches += o.ModeSwitches
	s.StarvationBreaks += o.StarvationBreaks
	s.Retries += o.Retries
	s.Poisoned += o.Poisoned
	if o.MaxQueueOccupancy > s.MaxQueueOccupancy {
		s.MaxQueueOccupancy = o.MaxQueueOccupancy
	}
	if o.BusCycleOfLastAccess > s.BusCycleOfLastAccess {
		s.BusCycleOfLastAccess = o.BusCycleOfLastAccess
	}
}

// Tracer observes the controller's request lifecycle: enqueue, the moment
// FR-FCFS schedules a request, and its completion. It is the request-level
// event-tracing hook (implemented by internal/etrace); the Trace field is
// consulted only when non-nil, so with tracing disabled the service loop
// stays on the decode-once, allocation-free fast path. Per-command events
// are emitted by the device (dram.CmdTracer), not here.
type Tracer interface {
	// ReqEnqueued fires after the request is queued. bank is the flat
	// Device.BankIndex of its decoded address; queueDepth counts both
	// queues after the insert.
	ReqEnqueued(at dram.Cycle, r Request, bank int32, queueDepth int)
	// ReqScheduled fires when the scheduler dequeues the request, after
	// the controller clock has caught up to its arrival.
	ReqScheduled(at dram.Cycle, r Request, bank int32)
	// ReqCompleted fires once the request's column access is resolved.
	ReqCompleted(comp Completion, bank int32)
	// ReqFaulted fires when a read burst comes back detected-uncorrectable:
	// once for the initial failed attempt (attempt 0) and once per retry
	// that fails again; poisoned marks the final give-up after the retry
	// budget is exhausted.
	ReqFaulted(at dram.Cycle, r Request, bank int32, attempt int, poisoned bool)
}

// Controller schedules requests onto one dram.Device with FR-FCFS and an
// open-page policy. It is single-channel, matching the paper's setup; the
// simulator instantiates one per channel.
type Controller struct {
	dev   *dram.Device
	amap  *AddrMap
	cfg   Config
	ranks int // the device's rank count, cached for serviceRefresh
	// prepScratch holds prepareAhead's candidate slots; sized once, so the
	// service loop stays allocation-free.
	prepScratch [prepareLookahead]int32

	// readQ/writeQ hold value-typed entries with their addresses decoded
	// once at Enqueue and indexed per bank (see queue.go) — the service
	// loop is allocation- and decode-free.
	readQ  reqQueue
	writeQ reqQueue
	// seq tags entries with enqueue order so selection scans can break
	// arrival-time ties exactly as queue position used to.
	seq uint64
	// draining latches the write-drain state: it starts when the write
	// queue reaches drainHigh and stops when it falls to drainLow (the
	// hysteresis NewController derives from WriteQueueCap).
	draining            bool
	drainHigh, drainLow int

	now   dram.Cycle
	Stats Stats

	// Audit, when set, receives every issued command (tests use this to
	// verify protocol legality end to end).
	Audit *dram.Auditor
	// Metrics, when set, observes per-request-class latency and queue
	// occupancy distributions (see NewMetrics).
	Metrics *Metrics
	// Trace, when set, receives request-lifecycle events (see Tracer).
	Trace Tracer
}

// LatencyBounds are the default request-latency bucket upper bounds in bus
// cycles: the low buckets resolve row-hit service, the tail captures
// refresh and drain stalls.
func LatencyBounds() []uint64 {
	return []uint64{25, 50, 75, 100, 150, 250, 500, 1000, 2500, 5000, 10000}
}

// OccupancyBounds are the default queue-occupancy bucket upper bounds,
// sized to the Table 2 queue capacities.
func OccupancyBounds() []uint64 {
	return []uint64{1, 2, 4, 8, 16, 32, 64}
}

// Metrics bundles the controller's distribution instruments. All are
// created in the caller's stats.Registry under stable "mc."-prefixed
// names, so per-run registries snapshot and merge deterministically:
//
//	mc.lat.read.normal / mc.lat.read.stride   arrival -> data-end latency
//	mc.lat.write.normal / mc.lat.write.stride (bus cycles, per class)
//	mc.queue.read / mc.queue.write            queue occupancy at enqueue
//
// One Metrics may be shared by several controllers (the simulator attaches
// the same instance to every channel of a single-threaded run).
type Metrics struct {
	LatReadNormal  *stats.Histogram
	LatReadStride  *stats.Histogram
	LatWriteNormal *stats.Histogram
	LatWriteStride *stats.Histogram
	QueueRead      *stats.Histogram
	QueueWrite     *stats.Histogram
}

// NewMetrics registers the controller instruments in reg.
func NewMetrics(reg *stats.Registry) *Metrics {
	lat, occ := LatencyBounds(), OccupancyBounds()
	return &Metrics{
		LatReadNormal:  reg.Histogram("mc.lat.read.normal", lat...),
		LatReadStride:  reg.Histogram("mc.lat.read.stride", lat...),
		LatWriteNormal: reg.Histogram("mc.lat.write.normal", lat...),
		LatWriteStride: reg.Histogram("mc.lat.write.stride", lat...),
		QueueRead:      reg.Histogram("mc.queue.read", occ...),
		QueueWrite:     reg.Histogram("mc.queue.write", occ...),
	}
}

// latency picks the instrument for a request's class.
func (m *Metrics) latency(isWrite, stride bool) *stats.Histogram {
	switch {
	case isWrite && stride:
		return m.LatWriteStride
	case isWrite:
		return m.LatWriteNormal
	case stride:
		return m.LatReadStride
	default:
		return m.LatReadNormal
	}
}

// Config tunes the controller.
type Config struct {
	// WriteQueueCap bounds the write queue (Table 2: 32). Writes drain in
	// batches from three quarters of it down to a quarter (24 -> 8 at 32).
	WriteQueueCap int
	// ReadQueueCap bounds the read queue; enqueueing beyond it reports
	// back-pressure to the caller.
	ReadQueueCap int
	// MaxRetries bounds how many times a read whose burst decoded as
	// uncorrectable is re-issued before the completion is poisoned. 0 means
	// poison immediately on the first DUE.
	MaxRetries int
}

// DefaultConfig mirrors Table 2.
func DefaultConfig() Config {
	return Config{WriteQueueCap: 32, ReadQueueCap: 64, MaxRetries: 3}
}

// NewController builds a controller over a device.
func NewController(dev *dram.Device, cfg Config) *Controller {
	if cfg.WriteQueueCap <= 0 || cfg.ReadQueueCap <= 0 || cfg.MaxRetries < 0 || cfg.MaxRetries > 255 {
		panic(fmt.Sprintf("mc: invalid config %+v", cfg))
	}
	banks := dev.NumBanks()
	return &Controller{
		dev:       dev,
		amap:      NewAddrMap(dev.Config().Geometry),
		cfg:       cfg,
		ranks:     dev.Config().Geometry.Ranks,
		readQ:     newReqQueue(cfg.ReadQueueCap, banks),
		writeQ:    newReqQueue(cfg.WriteQueueCap, banks),
		drainHigh: cfg.WriteQueueCap - cfg.WriteQueueCap/4,
		drainLow:  cfg.WriteQueueCap / 4,
	}
}

// SetMaxRetries adjusts the bounded read-retry budget after construction
// (the fault campaign varies it per run without rebuilding controllers).
func (c *Controller) SetMaxRetries(n int) {
	if n < 0 || n > 255 {
		panic(fmt.Sprintf("mc: invalid retry budget %d", n))
	}
	c.cfg.MaxRetries = n
}

// Pending returns the number of queued requests.
func (c *Controller) Pending() int { return c.readQ.n + c.writeQ.n }

// CanAccept reports whether a request of the given kind can be enqueued.
func (c *Controller) CanAccept(isWrite bool) bool {
	if isWrite {
		return c.writeQ.n < c.cfg.WriteQueueCap
	}
	return c.readQ.n < c.cfg.ReadQueueCap
}

// Enqueue adds a request, written straight into its queue slot with its
// address decoded there exactly once (r itself travels in registers).
// Callers must respect CanAccept.
func (c *Controller) Enqueue(r Request) {
	if !c.CanAccept(r.IsWrite) {
		panic("mc: enqueue past queue capacity")
	}
	q := &c.readQ
	if r.IsWrite {
		q = &c.writeQ
	}
	i := q.take()
	e := &q.slots[i]
	e.req = r
	c.amap.decode(r.Addr, &e.co)
	e.bank = int32(c.dev.BankIndex(e.co.Rank, e.co.Group, e.co.Bank))
	e.seq = c.seq
	q.link(i)
	c.seq++
	if occ := c.Pending(); occ > c.Stats.MaxQueueOccupancy {
		c.Stats.MaxQueueOccupancy = occ
	}
	if c.Metrics != nil {
		if r.IsWrite {
			c.Metrics.QueueWrite.Observe(uint64(c.writeQ.n))
		} else {
			c.Metrics.QueueRead.Observe(uint64(c.readQ.n))
		}
	}
	if c.Trace != nil {
		c.Trace.ReqEnqueued(e.req.Arrival, e.req, e.bank, c.Pending())
	}
}

// ServiceOne advances the controller until it completes one request and
// writes its completion to *comp. It returns false, leaving *comp as it
// was, when no requests are queued.
func (c *Controller) ServiceOne(comp *Completion) bool {
	q := c.pickQueue()
	if q == nil {
		return false
	}
	slot := c.frFCFS(q)
	// Unlink first, then service through a pointer: remove only relinks
	// (the slot's payload is untouched until the next push, and no push
	// can happen mid-service), which saves copying the ~100-byte entry on
	// every service.
	q.remove(slot)
	e := &q.slots[slot]

	if c.now < e.req.Arrival {
		c.now = e.req.Arrival
	}
	if c.Trace != nil {
		c.Trace.ReqScheduled(c.now, e.req, e.bank)
	}
	c.serviceRefresh()
	c.prepareAhead(q, e)
	c.access(e, comp)
	if e.req.IsWrite {
		c.Stats.Writes++
	} else {
		c.Stats.Reads++
		c.Stats.TotalReadLatency += uint64(comp.DataEnd - e.req.Arrival)
	}
	if c.Metrics != nil {
		c.Metrics.latency(e.req.IsWrite, e.req.Stride).Observe(uint64(comp.DataEnd - e.req.Arrival))
	}
	if e.req.Stride {
		c.Stats.StrideAccesses++
	}
	c.Stats.BusCycleOfLastAccess = comp.DataEnd
	if c.Trace != nil {
		c.Trace.ReqCompleted(*comp, e.bank)
	}
	return true
}

// pickQueue decides between the read queue and the write queue: reads
// have priority, writes drain in batches between the hysteresis watermarks
// (each drain pick counts in Stats.WriteDrains) or opportunistically when
// no reads are pending. It returns nil when both queues are empty.
func (c *Controller) pickQueue() *reqQueue {
	if c.writeQ.n >= c.drainHigh {
		c.draining = true
	}
	if c.writeQ.n <= c.drainLow {
		c.draining = false
	}
	switch {
	case c.draining && c.writeQ.n > 0:
		c.Stats.WriteDrains++
		return &c.writeQ
	case c.readQ.n > 0:
		return &c.readQ
	case c.writeQ.n > 0:
		return &c.writeQ
	default:
		return nil
	}
}

// starvationLimit caps FR-FCFS reordering: once the oldest *read* has
// waited this many cycles, it is serviced regardless of row-hit status
// (invariant 8 — no demand request waits unboundedly behind a hit stream).
// Writes are posted and latency-insensitive, so the drain keeps its
// row-batching freedom. The bound is generous: it exists to prevent
// unbounded starvation, not to second-guess FR-FCFS.
const starvationLimit = 16384

// frFCFS returns the slot of the best candidate: the oldest arrived
// row-buffer hit, else the oldest request overall (which, when nothing has
// arrived yet, is the earliest-arriving one). The hit scan consults the
// per-bank index: one open-row lookup per occupied bank, then only that
// bank's pending entries — never a re-decode. Ties on arrival time break
// by enqueue order (seq), matching the old in-queue-order slice scan.
func (c *Controller) frFCFS(q *reqQueue) int32 {
	// Oldest overall, in enqueue order with a strict < so the earliest
	// enqueued wins among equal arrivals. This doubles as pass 2. While
	// the queue's pushes have stayed arrival-sorted (the engine's clock is
	// monotone, so in practice always), the head is that pick by
	// construction and the scan is skipped.
	oldest := q.head
	if !q.sorted {
		for i := q.slots[oldest].next; i != nilSlot; i = q.slots[i].next {
			if q.slots[i].req.Arrival < q.slots[oldest].req.Arrival {
				oldest = i
			}
		}
	}
	// Starvation guard: an over-aged oldest read preempts the hit scan.
	o := &q.slots[oldest]
	if !o.req.IsWrite && o.req.Arrival <= c.now-starvationLimit {
		c.Stats.StarvationBreaks++
		return oldest
	}
	// The oldest entry is the minimum of the whole queue in (Arrival, seq),
	// so when it has arrived and hits its bank's open row it is also the
	// minimum of the hit candidates: pass 1 would pick it.
	if o.req.Arrival <= c.now {
		if row, open := c.dev.OpenRowAt(int(o.bank)); open && row == o.co.Row {
			return oldest
		}
	}
	// Pass 1: arrived row hits, oldest first, via the occupied-bank index.
	// The pick is the minimum of a strict (Arrival, seq) total order over
	// the hit candidates, so the walk order cannot change it. While the
	// queue is arrival-sorted each bank list is too (it is a subsequence
	// of the pushes), so the first arrived row match is that bank's
	// minimum and the first not-yet-arrived entry ends the bank's
	// candidates — both exits cut the scan short.
	best := nilSlot
	for _, bank := range q.occBanks {
		h := q.bankHead[bank]
		row, open := c.dev.OpenRowAt(int(bank))
		if !open {
			continue
		}
		for i := h; i != nilSlot; i = q.slots[i].bankNext {
			e := &q.slots[i]
			if e.req.Arrival > c.now {
				if q.sorted {
					break
				}
				continue
			}
			if e.co.Row != row {
				continue
			}
			if best == nilSlot {
				best = i
			} else if b := &q.slots[best]; e.req.Arrival < b.req.Arrival ||
				(e.req.Arrival == b.req.Arrival && e.seq < b.seq) {
				best = i
			}
			if q.sorted {
				break
			}
		}
	}
	if best != nilSlot {
		return best
	}
	return oldest
}

// prepareLookahead bounds how many future requests get their banks opened
// early while the current request's column access is still pending — the
// bank-preparation pipelining every real controller performs.
const prepareLookahead = 8

// prepareAhead issues PRE/ACT for upcoming queued requests whose banks are
// not ready, so their row activations overlap the current request's column
// access instead of serializing behind it. A bank is only prepared when no
// other arrived request still wants its currently open row; current has
// already been dequeued and its bank is never disturbed.
//
// The pass is per bank: each occupied bank offers at most one candidate
// (bankCandidate), and the candidates are issued in enqueue (seq) order, up
// to prepareLookahead. That is exactly the command sequence of a walk over
// the whole queue in enqueue order (the frozen reference scheduler):
//
//   - Once the walk prepares a bank, its later entries are row hits or
//     conflict with an arrived entry (the prepared one) that wants the new
//     row, so a bank yields at most one PRE/ACT — its first arrived entry
//     that is not a row hit, unless an arrived entry wants the open row.
//   - Whether a bank has a candidate depends only on that bank's open row
//     and the queues, and PRE/ACT to one bank never changes another bank's
//     open row. A ganged ACT only adds the sibling rank's activation
//     statistics and timing constraints; the sibling bank stays as it was.
//     So deciding every bank before issuing anything decides the same.
//   - Issue times do depend on earlier commands (tRRD, tFAW, the gang
//     constraint), and issuing in seq order replays the walk's order.
//
// DESIGN.md section 8 states the same argument; TestSchedulerDifferential
// checks it against the reference scheduler.
func (c *Controller) prepareAhead(q *reqQueue, current *entry) {
	cands := &c.prepScratch
	n := 0
	for _, bank := range q.occBanks {
		if bank == current.bank {
			continue // never disturb the bank the current request needs
		}
		i := c.bankCandidate(q, bank)
		if i == nilSlot {
			continue
		}
		// Keep the prepareLookahead lowest-seq candidates, sorted.
		seq := q.slots[i].seq
		j := n
		if n < prepareLookahead {
			n++
		} else if seq > q.slots[cands[n-1]].seq {
			continue
		} else {
			j = n - 1
		}
		for ; j > 0 && q.slots[cands[j-1]].seq > seq; j-- {
			cands[j] = cands[j-1]
		}
		cands[j] = i
	}
	for _, i := range cands[:n] {
		e := &q.slots[i]
		if _, open := c.dev.OpenRowAt(int(e.bank)); open {
			c.precharge(e)
		}
		c.activate(e)
	}
}

// bankCandidate returns the slot of bank's preparation candidate in q: its
// first arrived entry in enqueue order that is not a row hit, or nilSlot
// when there is none or when an arrived entry of either queue still wants
// the bank's open row (precharging would kill a pending row hit).
func (c *Controller) bankCandidate(q *reqQueue, bank int32) int32 {
	row, open := c.dev.OpenRowAt(int(bank))
	cand := nilSlot
	for i := q.bankHead[bank]; i != nilSlot; i = q.slots[i].bankNext {
		e := &q.slots[i]
		if e.req.Arrival > c.now {
			if q.sorted {
				// Bank lists are arrival-sorted while the queue is:
				// nothing later in the list has arrived either.
				break
			}
			continue
		}
		if !open {
			return i // a closed bank has no row to protect
		}
		if e.co.Row == row {
			return nilSlot
		}
		if cand == nilSlot {
			cand = i
		}
	}
	if cand == nilSlot {
		return nilSlot
	}
	other := &c.readQ
	if q == other {
		other = &c.writeQ
	}
	if other.arrivedWantsRow(bank, row, c.now) {
		return nilSlot
	}
	return cand
}

// serviceRefresh issues REF commands for any rank whose deadline passed.
func (c *Controller) serviceRefresh() {
	for r := 0; r < c.ranks; r++ {
		for c.dev.RefreshDue(r) <= c.now {
			at := c.dev.Refresh(r, c.now)
			if c.Audit != nil {
				c.Audit.Record(dram.Command{Kind: dram.CmdREF, Rank: r}, at)
			}
			c.Stats.IssuedCommands++
			c.Stats.Refreshes++
		}
	}
}

// The device commands below go out at their earliest legal cycle >= now.
// The controller's `now` ratchets per serviced request, so bank-local
// command order is always preserved; prepared-ahead ACTs may land at later
// times than a subsequently issued column command to another bank, exactly
// as on a real C/A bus. A Command value is built only for an attached
// Audit.

// precharge closes e's bank.
func (c *Controller) precharge(e *entry) {
	at := c.dev.Precharge(int(e.bank), c.now)
	if c.Audit != nil {
		c.Audit.Record(dram.Command{Kind: dram.CmdPRE, Rank: e.co.Rank, Group: e.co.Group, Bank: e.co.Bank}, at)
	}
	c.Stats.IssuedCommands++
}

// activate opens e's row in its bank (ganged when e is).
func (c *Controller) activate(e *entry) {
	at := c.dev.Activate(int(e.bank), e.co.Row, e.req.Gang, c.now)
	if c.Audit != nil {
		c.Audit.Record(dram.Command{
			Kind: dram.CmdACT, Rank: e.co.Rank, Group: e.co.Group, Bank: e.co.Bank,
			Row: e.co.Row, GangRanks: e.req.Gang,
		}, at)
	}
	c.Stats.IssuedCommands++
}

// column issues e's column access in mode and returns the device's
// results.
func (c *Controller) column(e *entry, mode dram.IOMode) (at, dataStart, dataEnd dram.Cycle, verdict dram.BurstVerdict) {
	r, co := &e.req, &e.co
	var switched bool
	at, dataStart, dataEnd, switched, verdict = c.dev.Column(int(e.bank), co.Row, co.Col, r.IsWrite, mode, r.Gang, c.now)
	if c.Audit != nil {
		kind := dram.CmdRD
		if r.IsWrite {
			kind = dram.CmdWR
		}
		c.Audit.Record(dram.Command{
			Kind: kind, Rank: co.Rank, Group: co.Group, Bank: co.Bank,
			Row: co.Row, Col: co.Col, Mode: mode, GangRanks: r.Gang,
		}, at)
	}
	c.Stats.IssuedCommands++
	if switched {
		c.Stats.ModeSwitches++
	}
	return at, dataStart, dataEnd, verdict
}

// access performs the PRE/ACT/column sequence for one request, using the
// coordinates decoded at Enqueue, and writes its completion to *comp.
func (c *Controller) access(e *entry, comp *Completion) {
	r := &e.req
	var hit, empty bool
	openRow, open := c.dev.OpenRowAt(int(e.bank))
	switch {
	case open && openRow == e.co.Row:
		hit = true
		c.Stats.RowHits++
	case open:
		c.Stats.RowMisses++
		c.precharge(e)
		c.activate(e)
	default:
		empty = true
		c.Stats.RowEmpties++
		c.activate(e)
	}

	mode := dram.ModeX4
	if r.Stride {
		mode = dram.ModeStride0 + dram.IOMode(r.Lane%4)
	}
	at, dataStart, dataEnd, verdict := c.column(e, mode)
	var retries uint8
	var poisoned bool
	if verdict == dram.BurstUncorrectable && !r.IsWrite {
		// Bounded retry: re-issue the column read — a retry is a fresh
		// burst, so transient faults are re-drawn while persistent faults
		// recur — and poison the completion when the budget runs out
		// instead of silently returning garbage. Each retry is a real
		// command on the bus: audited, counted, and spaced by tCCD.
		if c.Trace != nil {
			c.Trace.ReqFaulted(at, *r, e.bank, 0, false)
		}
		attempt := 0
		for attempt < c.cfg.MaxRetries {
			attempt++
			c.Stats.Retries++
			retries++
			c.now = at
			at, dataStart, dataEnd, verdict = c.column(e, mode)
			if verdict != dram.BurstUncorrectable {
				break
			}
			// The final attempt's failure is reported by the poisoned
			// event below, so every failed attempt traces exactly once.
			if attempt < c.cfg.MaxRetries && c.Trace != nil {
				c.Trace.ReqFaulted(at, *r, e.bank, attempt, false)
			}
		}
		if verdict == dram.BurstUncorrectable {
			poisoned = true
			c.Stats.Poisoned++
			if c.Trace != nil {
				c.Trace.ReqFaulted(at, *r, e.bank, attempt, true)
			}
		}
	}
	// Field by field: a composite literal would zero and copy a whole
	// Completion per request.
	comp.Req = *r
	comp.IssueAt, comp.DataStart, comp.DataEnd = at, dataStart, dataEnd
	comp.RowHit, comp.RowEmpty = hit, empty
	comp.Retries, comp.Poisoned = retries, poisoned
	c.now = at
}

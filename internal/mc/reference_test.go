package mc

import (
	"sam/internal/dram"
)

// referenceController is the pre-optimization FR-FCFS scheduler, kept
// verbatim as a test-only oracle: []*Request queues, an O(n) slice-shift
// dequeue, and a full re-decode of every queued address in every
// scheduling pass. Its observable behaviour — completion stream, Stats,
// and the device command sequence — defines correctness for the
// decode-once Controller; differential_test.go drives both on randomized
// request mixes and requires byte-identical results.
//
// Do not "improve" this type: its value is that it stays frozen.
type referenceController struct {
	dev  *dram.Device
	amap *AddrMap
	cfg  Config

	readQ  []*Request
	writeQ []*Request

	draining            bool
	drainHigh, drainLow int

	now   dram.Cycle
	Stats Stats

	Audit   *dram.Auditor
	Metrics *Metrics
}

func newReferenceController(dev *dram.Device, cfg Config) *referenceController {
	// Table 2's 24 -> 8 drain watermarks at a 32-entry queue, scaled.
	high, low := cfg.WriteQueueCap*3/4, cfg.WriteQueueCap/4
	if cfg.WriteQueueCap <= 0 || high > cfg.WriteQueueCap || low >= high || cfg.ReadQueueCap <= 0 {
		panic("mc: invalid reference config")
	}
	return &referenceController{
		dev:       dev,
		amap:      NewAddrMap(dev.Config().Geometry),
		cfg:       cfg,
		drainHigh: high,
		drainLow:  low,
	}
}

func (c *referenceController) AddrMap() *AddrMap { return c.amap }

func (c *referenceController) Pending() int { return len(c.readQ) + len(c.writeQ) }

func (c *referenceController) CanAccept(isWrite bool) bool {
	if isWrite {
		return len(c.writeQ) < c.cfg.WriteQueueCap
	}
	return len(c.readQ) < c.cfg.ReadQueueCap
}

func (c *referenceController) Enqueue(r Request) {
	if !c.CanAccept(r.IsWrite) {
		panic("mc: enqueue past queue capacity")
	}
	req := r
	if req.IsWrite {
		c.writeQ = append(c.writeQ, &req)
	} else {
		c.readQ = append(c.readQ, &req)
	}
	if occ := c.Pending(); occ > c.Stats.MaxQueueOccupancy {
		c.Stats.MaxQueueOccupancy = occ
	}
	if c.Metrics != nil {
		if r.IsWrite {
			c.Metrics.QueueWrite.Observe(uint64(len(c.writeQ)))
		} else {
			c.Metrics.QueueRead.Observe(uint64(len(c.readQ)))
		}
	}
}

func (c *referenceController) Now() dram.Cycle { return c.now }

// ServiceOne adapts serviceOne to the Controller's signature.
func (c *referenceController) ServiceOne(out *Completion) bool {
	comp, ok := c.serviceOne()
	if ok {
		*out = comp
	}
	return ok
}

func (c *referenceController) serviceOne() (Completion, bool) {
	q := c.pickQueue()
	if q == nil {
		return Completion{}, false
	}
	idx := c.frFCFS(*q)
	req := (*q)[idx]
	*q = append((*q)[:idx], (*q)[idx+1:]...)

	if c.now < req.Arrival {
		c.now = req.Arrival
	}
	c.serviceRefresh()
	c.prepareAhead(*q, req)
	comp := c.access(req)
	if req.IsWrite {
		c.Stats.Writes++
	} else {
		c.Stats.Reads++
		c.Stats.TotalReadLatency += uint64(comp.DataEnd - req.Arrival)
	}
	if c.Metrics != nil {
		c.Metrics.latency(req.IsWrite, req.Stride).Observe(uint64(comp.DataEnd - req.Arrival))
	}
	if req.Stride {
		c.Stats.StrideAccesses++
	}
	c.Stats.BusCycleOfLastAccess = comp.DataEnd
	return comp, true
}

func (c *referenceController) pickQueue() *[]*Request {
	if len(c.writeQ) >= c.drainHigh {
		c.draining = true
	}
	if len(c.writeQ) <= c.drainLow {
		c.draining = false
	}
	switch {
	case c.draining && len(c.writeQ) > 0:
		c.Stats.WriteDrains++
		return &c.writeQ
	case len(c.readQ) > 0:
		return &c.readQ
	case len(c.writeQ) > 0:
		return &c.writeQ
	default:
		return nil
	}
}

func (c *referenceController) frFCFS(q []*Request) int {
	best := -1
	var bestArrival dram.Cycle
	oldest := 0
	for i, r := range q {
		if r.Arrival < q[oldest].Arrival {
			oldest = i
		}
	}
	if !q[oldest].IsWrite && q[oldest].Arrival <= c.now-starvationLimit {
		c.Stats.StarvationBreaks++
		return oldest
	}
	for i, r := range q {
		if r.Arrival > c.now {
			continue
		}
		co := c.amap.Decode(r.Addr)
		if row, open := c.bankOpenRow(co); open && row == co.Row {
			if best == -1 || r.Arrival < bestArrival {
				best, bestArrival = i, r.Arrival
			}
		}
	}
	if best != -1 {
		return best
	}
	for i, r := range q {
		if best == -1 || r.Arrival < bestArrival {
			best, bestArrival = i, r.Arrival
		}
	}
	return best
}

func (c *referenceController) prepareAhead(q []*Request, current *Request) {
	prepared := 0
	for _, r := range q {
		if prepared >= prepareLookahead {
			return
		}
		if r == current || r.Arrival > c.now {
			continue
		}
		co := c.amap.Decode(r.Addr)
		cur := c.amap.Decode(current.Addr)
		if co.Rank == cur.Rank && co.Group == cur.Group && co.Bank == cur.Bank {
			continue
		}
		row, open := c.bankOpenRow(co)
		if open && row == co.Row {
			continue
		}
		if open {
			if c.anyArrivedWantsRow(co, row, r) {
				continue
			}
			c.issue(dram.Command{Kind: dram.CmdPRE, Rank: co.Rank, Group: co.Group, Bank: co.Bank})
		}
		c.issue(dram.Command{Kind: dram.CmdACT, Rank: co.Rank, Group: co.Group, Bank: co.Bank, Row: co.Row, GangRanks: r.Gang})
		prepared++
	}
}

func (c *referenceController) anyArrivedWantsRow(co Coord, row int, skip *Request) bool {
	check := func(q []*Request) bool {
		for _, r := range q {
			if r == skip || r.Arrival > c.now {
				continue
			}
			o := c.amap.Decode(r.Addr)
			if o.Rank == co.Rank && o.Group == co.Group && o.Bank == co.Bank && o.Row == row {
				return true
			}
		}
		return false
	}
	return check(c.readQ) || check(c.writeQ)
}

func (c *referenceController) serviceRefresh() {
	for r := 0; r < c.dev.Config().Geometry.Ranks; r++ {
		for c.dev.RefreshDue(r) <= c.now {
			c.issue(dram.Command{Kind: dram.CmdREF, Rank: r})
			c.Stats.Refreshes++
		}
	}
}

// bankOpenRow returns (row, true) if co's bank has an open row.
func (c *referenceController) bankOpenRow(co Coord) (int, bool) {
	return c.dev.OpenRowAt(c.dev.BankIndex(co.Rank, co.Group, co.Bank))
}

// issueAt applies cmd at cycle at, which must be legal, through the
// device's entry point for the command's kind.
func (c *referenceController) issueAt(cmd dram.Command, at dram.Cycle) (dataStart, dataEnd dram.Cycle, switched bool) {
	bank := c.dev.BankIndex(cmd.Rank, cmd.Group, cmd.Bank)
	switch cmd.Kind {
	case dram.CmdACT:
		c.dev.Activate(bank, cmd.Row, cmd.GangRanks, at)
	case dram.CmdPRE:
		c.dev.Precharge(bank, at)
	case dram.CmdRD, dram.CmdWR:
		_, dataStart, dataEnd, switched, _ = c.dev.Column(bank, cmd.Row, cmd.Col, cmd.Kind == dram.CmdWR, cmd.Mode, cmd.GangRanks, at)
	case dram.CmdREF:
		c.dev.Refresh(cmd.Rank, at)
	}
	return dataStart, dataEnd, switched
}

func (c *referenceController) issue(cmd dram.Command) dram.Cycle {
	at := c.dev.EarliestIssue(cmd, c.now)
	c.issueAt(cmd, at)
	if c.Audit != nil {
		c.Audit.Record(cmd, at)
	}
	c.Stats.IssuedCommands++
	return at
}

func (c *referenceController) access(r *Request) Completion {
	co := c.amap.Decode(r.Addr)
	comp := Completion{Req: *r}

	openRow, open := c.bankOpenRow(co)
	switch {
	case open && openRow == co.Row:
		comp.RowHit = true
		c.Stats.RowHits++
	case open:
		c.Stats.RowMisses++
		c.issue(dram.Command{Kind: dram.CmdPRE, Rank: co.Rank, Group: co.Group, Bank: co.Bank})
		c.issue(dram.Command{Kind: dram.CmdACT, Rank: co.Rank, Group: co.Group, Bank: co.Bank, Row: co.Row, GangRanks: r.Gang})
	default:
		comp.RowEmpty = true
		c.Stats.RowEmpties++
		c.issue(dram.Command{Kind: dram.CmdACT, Rank: co.Rank, Group: co.Group, Bank: co.Bank, Row: co.Row, GangRanks: r.Gang})
	}

	kind := dram.CmdRD
	if r.IsWrite {
		kind = dram.CmdWR
	}
	mode := dram.ModeX4
	if r.Stride {
		mode = dram.ModeStride0 + dram.IOMode(r.Lane%4)
	}
	cmd := dram.Command{
		Kind: kind, Rank: co.Rank, Group: co.Group, Bank: co.Bank,
		Row: co.Row, Col: co.Col, Mode: mode, GangRanks: r.Gang,
	}
	at := c.dev.EarliestIssue(cmd, c.now)
	dataStart, dataEnd, switched := c.issueAt(cmd, at)
	if c.Audit != nil {
		c.Audit.Record(cmd, at)
	}
	c.Stats.IssuedCommands++
	if switched {
		c.Stats.ModeSwitches++
	}
	comp.IssueAt = at
	comp.DataStart = dataStart
	comp.DataEnd = dataEnd
	c.now = at
	return comp
}

func (c *referenceController) Drain() []Completion {
	var out []Completion
	for {
		comp, ok := c.serviceOne()
		if !ok {
			return out
		}
		out = append(out, comp)
	}
}

// scheduler is the surface the differential and starvation tests drive on
// both implementations.
type scheduler interface {
	Enqueue(Request)
	ServiceOne(*Completion) bool
	CanAccept(bool) bool
	Pending() int
	Now() dram.Cycle
	AddrMap() *AddrMap
	Drain() []Completion
	stats() *Stats
}

func (c *Controller) stats() *Stats          { return &c.Stats }
func (c *referenceController) stats() *Stats { return &c.Stats }

// The rest of the scheduler surface on Controller: accessors and a drain
// loop that only these tests use.

func (c *Controller) Now() dram.Cycle { return c.now }

func (c *Controller) AddrMap() *AddrMap { return c.amap }

// Drain services every queued request and returns the completions.
func (c *Controller) Drain() []Completion {
	var out []Completion
	var comp Completion
	for c.ServiceOne(&comp) {
		out = append(out, comp)
	}
	return out
}

// The full-address codec of the map: the reference scheduler re-decodes
// every queued address with it, and the tests build addresses from
// coordinates.

// Decode splits a physical address into DRAM coordinates.
func (m *AddrMap) Decode(addr uint64) Coord {
	var c Coord
	m.decode(addr, &c)
	return c
}

// Encode is the inverse of Decode.
func (m *AddrMap) Encode(c Coord) uint64 {
	addr := uint64(c.Row)
	addr = addr<<uint(m.rankBits) | uint64(c.Rank)
	addr = addr<<uint(m.bankBits) | uint64(c.Bank*m.geo.BankGroups+c.Group)
	addr = addr<<uint(m.chBits) | uint64(c.Channel)
	addr = addr<<uint(m.colBits) | uint64(c.Col)
	addr = addr<<uint(m.offBits) | uint64(c.Offset)
	return addr
}

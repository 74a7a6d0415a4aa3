package mc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sam/internal/dram"
	"sam/internal/stats"
)

func newTestController() *Controller {
	dev := dram.NewDevice(dram.DDR4_2400())
	return NewController(dev, DefaultConfig())
}

func TestAddrMapRoundTrip(t *testing.T) {
	m := NewAddrMap(dram.DDR4_2400().Geometry)
	f := func(addr uint64) bool {
		addr &= 1<<33 - 1 // keep rows in range
		return m.Encode(m.Decode(addr)) == addr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestAddrMapFieldOrder(t *testing.T) {
	m := NewAddrMap(dram.DDR4_2400().Geometry)
	// Consecutive cachelines must walk columns of one row (streaming scans
	// stay row-buffer resident).
	c0 := m.Decode(0)
	c1 := m.Decode(64)
	if c1.Col != c0.Col+1 || c1.Row != c0.Row || c1.Bank != c0.Bank || c1.Rank != c0.Rank {
		t.Fatalf("line+1 moved to %+v from %+v", c1, c0)
	}
	// Crossing a full row of columns advances the bank field (cl below bk).
	rowSpan := uint64(64 * 128)
	cr := m.Decode(rowSpan)
	if cr.Col != 0 || (cr.Group == 0 && cr.Bank == 0) {
		t.Fatalf("row-span cross: %+v", cr)
	}
}

func TestAddrMapBankRowShifts(t *testing.T) {
	for _, channels := range []int{1, 4} {
		g := dram.DDR4_2400().Geometry
		g.Channels = channels
		m := NewAddrMap(g)
		bankShift, rowShift := m.BankRowShifts()
		for bank := 0; bank < g.TotalBanks(); bank++ {
			for _, row := range []int{0, 1, g.RowsPerBank() - 1} {
				for _, b := range []int{0, 7, g.LineBytes, g.RowBytes - 1} {
					inRank := bank % g.Banks()
					want := m.Encode(Coord{
						Rank: bank / g.Banks(), Group: inRank % g.BankGroups, Bank: inRank / g.BankGroups,
						Row: row, Col: b / g.LineBytes, Offset: b % g.LineBytes,
					})
					got := uint64(row)<<rowShift | uint64(bank)<<bankShift | uint64(b)
					if got != want {
						t.Fatalf("%d channels, bank %d row %d byte %d: %#x, Encode gives %#x", channels, bank, row, b, got, want)
					}
				}
			}
		}
	}
}

func TestAddrMapRejectsNonPowerOfTwo(t *testing.T) {
	g := dram.DDR4_2400().Geometry
	g.Ranks = 3
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two geometry accepted")
		}
	}()
	NewAddrMap(g)
}

func TestControllerSingleRead(t *testing.T) {
	c := newTestController()
	c.Enqueue(Request{ID: 1, Addr: 0x1000, Arrival: 0})
	comp, ok := serviceOne(c)
	if !ok {
		t.Fatal("no completion")
	}
	cfg := dram.DDR4_2400()
	// Cold access: ACT at ~1, RD at ACT+tRCD, data CL later.
	minEnd := dram.Cycle(cfg.Timing.TRCD + cfg.Timing.CL + cfg.Timing.TBL)
	if comp.DataEnd < minEnd {
		t.Fatalf("cold read finished at %d, faster than tRCD+CL+tBL=%d", comp.DataEnd, minEnd)
	}
	if !comp.RowEmpty || comp.RowHit {
		t.Fatalf("cold access misclassified: %+v", comp)
	}
}

func TestControllerRowHitFasterThanConflict(t *testing.T) {
	// Same row twice -> hit; different row same bank -> precharge penalty.
	cHit := newTestController()
	cHit.Enqueue(Request{ID: 1, Addr: 0, Arrival: 0})
	cHit.Enqueue(Request{ID: 2, Addr: 64, Arrival: 0})
	hits := cHit.Drain()
	hitGap := hits[1].DataEnd - hits[0].DataEnd

	cMiss := newTestController()
	rowSpan := uint64(64 * 128 * 32) // jump a full row within the same bank (past col+bank+rank bits? keep same bank: row bit stride)
	// Row field starts above rank; row+1 with identical bank/rank:
	m := cMiss.AddrMap()
	co := m.Decode(0)
	co.Row = 1
	addr2 := m.Encode(co)
	cMiss.Enqueue(Request{ID: 1, Addr: 0, Arrival: 0})
	cMiss.Enqueue(Request{ID: 2, Addr: addr2, Arrival: 0})
	misses := cMiss.Drain()
	missGap := misses[1].DataEnd - misses[0].DataEnd

	if hitGap >= missGap {
		t.Fatalf("row hit gap %d not faster than conflict gap %d", hitGap, missGap)
	}
	if cHit.Stats.RowHits != 1 || cMiss.Stats.RowMisses != 1 {
		t.Fatalf("hit/miss accounting: %+v vs %+v", cHit.Stats, cMiss.Stats)
	}
	_ = rowSpan
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	c := newTestController()
	m := c.AddrMap()
	// Open row 0 of bank (0,0,0) with request A.
	c.Enqueue(Request{ID: 1, Addr: 0, Arrival: 0})
	if _, ok := serviceOne(c); !ok {
		t.Fatal("A not serviced")
	}
	// B conflicts (row 1 same bank), C hits (row 0 col 5). B is older.
	co := m.Decode(0)
	co.Row = 1
	bAddr := m.Encode(co)
	co.Row = 0
	co.Col = 5
	cAddr := m.Encode(co)
	c.Enqueue(Request{ID: 2, Addr: bAddr, Arrival: 1})
	c.Enqueue(Request{ID: 3, Addr: cAddr, Arrival: 2})
	first, _ := serviceOne(c)
	if first.Req.ID != 3 {
		t.Fatalf("FR-FCFS serviced ID %d first, want the row hit (3)", first.Req.ID)
	}
	second, _ := serviceOne(c)
	if second.Req.ID != 2 {
		t.Fatalf("conflict request starved")
	}
}

func TestWriteQueueDrainHysteresis(t *testing.T) {
	c := newTestController()
	// Fill writes beyond the high watermark plus a single read.
	for i := 0; i < 25; i++ {
		c.Enqueue(Request{ID: uint64(i), Addr: uint64(i) * 64, IsWrite: true, Arrival: 0})
	}
	c.Enqueue(Request{ID: 100, Addr: 0x100000, Arrival: 0})
	first, _ := serviceOne(c)
	if !first.Req.IsWrite {
		t.Fatal("drain mode should prioritize writes above high watermark")
	}
	// Drain proceeds past the read until low watermark.
	var sawRead bool
	writesBeforeRead := 1
	for {
		comp, ok := serviceOne(c)
		if !ok {
			break
		}
		if comp.Req.IsWrite && !sawRead {
			writesBeforeRead++
		}
		if !comp.Req.IsWrite {
			sawRead = true
		}
	}
	if !sawRead {
		t.Fatal("read never serviced")
	}
	if writesBeforeRead < 25-8 {
		t.Fatalf("drain stopped after %d writes, want >= %d (down to low watermark)", writesBeforeRead, 25-8)
	}
}

// TestDrainWatermarksValid checks the write-drain hysteresis NewController
// derives from every small queue capacity: draining must start at a
// reachable occupancy and stop strictly below it.
func TestDrainWatermarksValid(t *testing.T) {
	dev := dram.NewDevice(dram.DDR4_2400())
	for wcap := 1; wcap <= 64; wcap++ {
		cfg := DefaultConfig()
		cfg.WriteQueueCap = wcap
		c := NewController(dev, cfg)
		if low, high := c.drainLow, c.drainHigh; low < 0 || low >= high || high > wcap {
			t.Errorf("cap %d: watermarks low %d high %d, want 0 <= low < high <= cap", wcap, low, high)
		}
	}
}

func TestControllerRefreshIssued(t *testing.T) {
	c := newTestController()
	cfg := dram.DDR4_2400()
	// A request arriving after tREFI forces a refresh first.
	c.Enqueue(Request{ID: 1, Addr: 0, Arrival: dram.Cycle(cfg.Timing.TREFI + 10)})
	serviceOne(c)
	if c.Stats.Refreshes == 0 {
		t.Fatal("no refresh issued despite deadline")
	}
}

func TestControllerStrideModeSwitchCounted(t *testing.T) {
	c := newTestController()
	c.Enqueue(Request{ID: 1, Addr: 0, Arrival: 0})
	c.Enqueue(Request{ID: 2, Addr: 64, Stride: true, Lane: 2, Arrival: 0})
	c.Enqueue(Request{ID: 3, Addr: 128, Arrival: 0})
	c.Drain()
	if c.Stats.ModeSwitches < 2 {
		t.Fatalf("mode switches = %d, want >= 2 (into and out of stride)", c.Stats.ModeSwitches)
	}
	if c.Stats.StrideAccesses != 1 {
		t.Fatalf("stride accesses = %d", c.Stats.StrideAccesses)
	}
}

func TestControllerAuditCleanUnderRandomLoad(t *testing.T) {
	dev := dram.NewDevice(dram.DDR4_2400())
	c := NewController(dev, DefaultConfig())
	c.Audit = dram.NewAuditor(dram.DDR4_2400())
	rng := rand.New(rand.NewSource(17))
	var arrival dram.Cycle
	for i := 0; i < 2000; i++ {
		r := Request{
			ID:      uint64(i),
			Addr:    uint64(rng.Intn(1 << 28)),
			IsWrite: rng.Intn(4) == 0,
			Arrival: arrival,
		}
		if rng.Intn(5) == 0 {
			r.Stride = true
			r.Lane = rng.Intn(4)
		}
		arrival += dram.Cycle(rng.Intn(20))
		for !c.CanAccept(r.IsWrite) {
			if _, ok := serviceOne(c); !ok {
				t.Fatal("queue full but nothing to service")
			}
		}
		c.Enqueue(r)
		if rng.Intn(3) == 0 {
			serviceOne(c)
		}
	}
	c.Drain()
	if !c.Audit.Ok() {
		t.Fatalf("protocol violations under random load; first: %s", c.Audit.Violations[0])
	}
	if c.Stats.Reads+c.Stats.Writes != 2000 {
		t.Fatalf("serviced %d, want 2000", c.Stats.Reads+c.Stats.Writes)
	}
}

func TestControllerConfigValidation(t *testing.T) {
	dev := dram.NewDevice(dram.DDR4_2400())
	bad := []Config{
		{WriteQueueCap: 0, ReadQueueCap: 4},
		{WriteQueueCap: -1, ReadQueueCap: 4},
		{WriteQueueCap: 8, ReadQueueCap: 0},
		{WriteQueueCap: 8, ReadQueueCap: -1},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad config %d accepted", i)
				}
			}()
			NewController(dev, cfg)
		}()
	}
}

func TestServiceOneEmptyQueue(t *testing.T) {
	c := newTestController()
	if _, ok := serviceOne(c); ok {
		t.Fatal("serviced from empty queue")
	}
}

func TestReadLatencyAccounting(t *testing.T) {
	c := newTestController()
	c.Enqueue(Request{ID: 1, Addr: 0, Arrival: 0})
	comp, _ := serviceOne(c)
	if c.Stats.TotalReadLatency != uint64(comp.DataEnd) {
		t.Fatalf("latency %d, want %d", c.Stats.TotalReadLatency, comp.DataEnd)
	}
}

func TestLatencyHistogram(t *testing.T) {
	c := newTestController()
	reg := stats.NewRegistry()
	c.Metrics = NewMetrics(reg)
	for i := 0; i < 100; i++ {
		c.Enqueue(Request{ID: uint64(i), Addr: uint64(i) * 4096, Arrival: dram.Cycle(i * 2)})
		if i%8 == 7 {
			for c.Pending() > 4 {
				serviceOne(c)
			}
		}
	}
	c.Drain()
	// All 100 requests are normal reads: they land in exactly one class.
	h := c.Metrics.LatReadNormal
	if h.Total() != 100 {
		t.Fatalf("read.normal histogram saw %d requests, want 100", h.Total())
	}
	for name, other := range map[string]*stats.Histogram{
		"read.stride":  c.Metrics.LatReadStride,
		"write.normal": c.Metrics.LatWriteNormal,
		"write.stride": c.Metrics.LatWriteStride,
	} {
		if other.Total() != 0 {
			t.Fatalf("class %s saw %d requests, want 0", name, other.Total())
		}
	}
	if h.Mean() <= 0 || h.Quantile(0.99) < h.Quantile(0.5) {
		t.Fatal("histogram statistics degenerate")
	}
	// Every Enqueue observed the post-enqueue read-queue depth.
	if got := c.Metrics.QueueRead.Total(); got != 100 {
		t.Fatalf("queue occupancy histogram saw %d enqueues, want 100", got)
	}
	if c.Metrics.QueueWrite.Total() != 0 {
		t.Fatal("write-queue histogram saw read traffic")
	}
}

func TestMetricsClassSplit(t *testing.T) {
	// One request of each class must land in its own histogram.
	c := newTestController()
	c.Metrics = NewMetrics(stats.NewRegistry())
	reqs := []Request{
		{ID: 0, Addr: 0x0000},
		{ID: 1, Addr: 0x4000, Stride: true},
		{ID: 2, Addr: 0x8000, IsWrite: true},
		{ID: 3, Addr: 0xc000, IsWrite: true, Stride: true},
	}
	for _, r := range reqs {
		c.Enqueue(r)
	}
	c.Drain()
	for name, h := range map[string]*stats.Histogram{
		"read.normal":  c.Metrics.LatReadNormal,
		"read.stride":  c.Metrics.LatReadStride,
		"write.normal": c.Metrics.LatWriteNormal,
		"write.stride": c.Metrics.LatWriteStride,
	} {
		if h.Total() != 1 {
			t.Fatalf("class %s saw %d requests, want 1", name, h.Total())
		}
	}
	if c.Metrics.QueueRead.Total() != 2 || c.Metrics.QueueWrite.Total() != 2 {
		t.Fatalf("queue histograms saw %d/%d enqueues, want 2/2",
			c.Metrics.QueueRead.Total(), c.Metrics.QueueWrite.Total())
	}
}

func TestStarvationGuard(t *testing.T) {
	// Invariant 8: a conflicting request must not wait unboundedly behind a
	// stream of row hits. Both the decode-once scheduler and the frozen
	// reference must break the hit stream for the aged read.
	for name, mk := range map[string]func() scheduler{
		"new":       func() scheduler { return newTestController() },
		"reference": func() scheduler { return newReferenceController(dram.NewDevice(dram.DDR4_2400()), DefaultConfig()) },
	} {
		t.Run(name, func(t *testing.T) {
			c := mk()
			m := c.AddrMap()
			// Open row 0 of bank 0.
			c.Enqueue(Request{ID: 0, Addr: 0, Arrival: 0})
			serviceOne(c)
			// The victim: row 1 of the same bank, enqueued early.
			co := m.Decode(0)
			co.Row = 1
			victim := m.Encode(co)
			c.Enqueue(Request{ID: 1, Addr: victim, Arrival: 1})
			// Keep feeding row hits long past the starvation limit.
			var servicedVictimAt int
			for i := 2; i < 3000; i++ {
				co.Row = 0
				co.Col = i % 32
				c.Enqueue(Request{ID: uint64(i), Addr: m.Encode(co), Arrival: c.Now()})
				comp, _ := serviceOne(c)
				if comp.Req.ID == 1 {
					servicedVictimAt = i
					break
				}
			}
			if servicedVictimAt == 0 {
				t.Fatal("victim starved for 3000 services")
			}
			if c.stats().StarvationBreaks == 0 {
				t.Fatal("starvation break not counted")
			}
			// And the victim waited at most ~limit plus scheduling slack.
			if c.Now() > starvationLimit+1024 {
				t.Fatalf("victim serviced only at t=%d", c.Now())
			}
		})
	}
}

// serviceOne is ServiceOne returning the completion.
func serviceOne(c scheduler) (Completion, bool) {
	var comp Completion
	ok := c.ServiceOne(&comp)
	return comp, ok
}

package cache

import "fmt"

// MemOp is a request the hierarchy sends to the memory system on misses and
// writebacks.
type MemOp struct {
	Addr    uint64
	IsWrite bool
	// Sectors is the sector bitmap of the line the op concerns (writes of
	// partially dirty strided lines keep their shape so the controller can
	// use sstore).
	Sectors  uint64
	Sectored bool
}

// AccessResult summarizes one hierarchy access.
type AccessResult struct {
	// HitLevel is 1..len(levels) for a cache hit, 0 for a miss to memory.
	HitLevel int
	// Latency is the CPU-cycle cost of the levels traversed (memory time
	// is added by the simulator from the controller's completion).
	Latency int
	// MemOps lists line fills and writebacks that must go to memory. It is
	// the hierarchy's scratch: valid until the next Access or FillLine.
	MemOps []MemOp
}

// Hierarchy is one core's view of the cache system: private upper levels
// plus a shared last level. Fills propagate to every level (allocate-all);
// dirty evictions write back to the next level down and, from the last
// level, to memory.
type Hierarchy struct {
	levels []*Cache // levels[0] = L1, last = LLC (possibly shared)
	// flushSeen is the dedup scratch for FlushDirty, owned by the
	// hierarchy and cleared per call instead of reallocated — the access
	// path is single-threaded per engine.
	flushSeen map[uint64]bool
	// ops backs every AccessResult.MemOps and FillLine result. Callers
	// consume each op list before the next call, so one buffer serves all
	// of them and the access path does not allocate.
	ops []MemOp
}

// NewHierarchy builds a hierarchy from outermost private to shared last
// level. All levels must agree on line size.
func NewHierarchy(levels ...*Cache) *Hierarchy {
	if len(levels) == 0 {
		panic("cache: empty hierarchy")
	}
	lb := levels[0].Config().LineBytes
	for _, l := range levels[1:] {
		if l.Config().LineBytes != lb {
			panic(fmt.Sprintf("cache: mixed line sizes %d vs %d", l.Config().LineBytes, lb))
		}
	}
	return &Hierarchy{levels: levels}
}

// Levels returns the number of levels.
func (h *Hierarchy) Levels() int { return len(h.levels) }

// Level returns level i (0-based).
func (h *Hierarchy) Level(i int) *Cache { return h.levels[i] }

// LLC returns the last level.
func (h *Hierarchy) LLC() *Cache { return h.levels[len(h.levels)-1] }

// Access performs a demand access of size bytes at addr. Regular accesses
// fill whole lines; pass sectored=true for strided data, which fills only
// the touched sectors (the sector-cache behaviour of Section 5.1).
func (h *Hierarchy) Access(addr uint64, size int, write, sectored bool) AccessResult {
	res := AccessResult{MemOps: h.ops[:0]}
	hitAt := 0
	for i, lvl := range h.levels {
		res.Latency += lvl.hitLat
		switch lvl.Access(addr, size, write) {
		case Hit:
			hitAt = i + 1
		case SectorMiss, LineMiss:
			continue
		}
		break
	}
	res.HitLevel = hitAt

	if hitAt == 0 {
		// Miss everywhere: fetch from memory and allocate in every level.
		llc := h.LLC()
		var sectors uint64
		if sectored {
			sectors = llc.sectorMask(addr, size)
		} else {
			sectors = llc.FullSectorMask()
		}
		res.MemOps = append(res.MemOps, MemOp{Addr: llc.lineAddr(addr), Sectors: sectors, Sectored: sectored})
		h.fillAll(addr, sectored, write, size, &res)
	} else {
		// Hit at a lower level: allocate upward into the missed upper levels.
		for i := hitAt - 2; i >= 0; i-- {
			h.fillLevel(i, addr, sectored, write, size, &res)
		}
	}
	h.ops = res.MemOps[:0]
	return res
}

// fillAll allocates the accessed data into every level, collecting
// writebacks.
func (h *Hierarchy) fillAll(addr uint64, sectored, write bool, size int, res *AccessResult) {
	for i := len(h.levels) - 1; i >= 0; i-- {
		h.fillLevel(i, addr, sectored, write, size, res)
	}
}

func (h *Hierarchy) fillLevel(i int, addr uint64, sectored, write bool, size int, res *AccessResult) {
	lvl := h.levels[i]
	var sectors uint64
	if sectored {
		sectors = lvl.sectorMask(addr, size)
	} else {
		sectors = lvl.FullSectorMask()
	}
	h.fillLevelSectors(i, addr, sectors, write, sectored, res)
}

// FillLine installs the given sectors of a line into every level without a
// demand access — the sibling fills of a strided fetch, which brings the
// same-offset sector of Reach lines in one burst. It returns any memory
// writebacks the allocations displaced, in the hierarchy's scratch (valid
// until the next Access or FillLine).
func (h *Hierarchy) FillLine(addr uint64, sectors uint64, sectored bool) []MemOp {
	res := AccessResult{MemOps: h.ops[:0]}
	for i := len(h.levels) - 1; i >= 0; i-- {
		h.fillLevelSectors(i, addr, sectors, false, sectored, &res)
	}
	h.ops = res.MemOps[:0]
	return res.MemOps
}

func (h *Hierarchy) fillLevelSectors(i int, addr uint64, sectors uint64, write, sectored bool, res *AccessResult) {
	lvl := h.levels[i]
	ev, dirty := lvl.Fill(addr, sectors, write, sectored)
	if !dirty {
		return
	}
	lvl.Stats.WritebacksToBelow++
	if i == len(h.levels)-1 {
		res.MemOps = append(res.MemOps, MemOp{Addr: ev.LineAddr, IsWrite: true, Sectors: ev.Dirty, Sectored: ev.Sectored})
		return
	}
	// Push the dirty line into the next level down.
	below := h.levels[i+1]
	ev2, dirty2 := below.Fill(ev.LineAddr, ev.Dirty, true, ev.Sectored)
	if dirty2 {
		below.Stats.WritebacksToBelow++
		if i+1 == len(h.levels)-1 {
			res.MemOps = append(res.MemOps, MemOp{Addr: ev2.LineAddr, IsWrite: true, Sectors: ev2.Dirty, Sectored: ev2.Sectored})
		} else {
			// Deeper cascades are rare with growing level sizes; recurse.
			h.pushDown(i+2, ev2, res)
		}
	}
}

func (h *Hierarchy) pushDown(i int, ev Eviction, res *AccessResult) {
	if i >= len(h.levels) {
		res.MemOps = append(res.MemOps, MemOp{Addr: ev.LineAddr, IsWrite: true, Sectors: ev.Dirty, Sectored: ev.Sectored})
		return
	}
	ev2, dirty := h.levels[i].Fill(ev.LineAddr, ev.Dirty, true, ev.Sectored)
	if dirty {
		h.levels[i].Stats.WritebacksToBelow++
		h.pushDown(i+1, ev2, res)
	}
}

// FlushDirty writes every dirty line in every level back to memory,
// returning the writeback ops (used at end of a workload phase so write
// traffic is fully accounted).
func (h *Hierarchy) FlushDirty() []MemOp {
	var ops []MemOp
	for li := len(h.levels) - 1; li >= 0; li-- {
		lvl := h.levels[li]
		// Walk the directory in set-index order (not backing/touch order)
		// so the writeback op sequence — which feeds the memory system —
		// is independent of the sets' first-touch history.
		for s := range lvl.setOff {
			set := lvl.peek(s)
			for w := range set {
				ln := &set[w]
				if ln.valid != 0 && ln.dirty != 0 {
					addr := (ln.tag<<lvl.setBits() | uint64(s)) << lvl.lineBits
					ops = append(ops, MemOp{Addr: addr, IsWrite: true, Sectors: ln.dirty, Sectored: ln.sectored})
					ln.dirty = 0
				}
			}
		}
	}
	// Deduplicate lines dirty in several levels (upper level is newest, but
	// tag-only modeling makes them equivalent; keep the first occurrence).
	if h.flushSeen == nil {
		h.flushSeen = make(map[uint64]bool, len(ops))
	} else {
		clear(h.flushSeen)
	}
	seen := h.flushSeen
	out := ops[:0]
	for _, op := range ops {
		if !seen[op.Addr] {
			seen[op.Addr] = true
			out = append(out, op)
		}
	}
	return out
}

// InvalidateAll clears every level.
func (h *Hierarchy) InvalidateAll() {
	for _, l := range h.levels {
		l.InvalidateAll()
	}
}

// lineAddr exposes line alignment for MemOps.
func (c *Cache) lineAddr(addr uint64) uint64 {
	return addr &^ (1<<c.lineBits - 1)
}

package cache

import (
	"fmt"
	"math/bits"
)

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
	// MemOps lists line fills and writebacks that must go to memory. It is
	// the hierarchy's scratch: valid until the next hierarchy call.
	MemOps []MemOp
}

// Hierarchy is one core's view of the cache system: private upper levels
// plus a shared last level. Fills propagate to every level (allocate-all);
// dirty evictions write back to the next level down and, from the last
// level, to memory.
type Hierarchy struct {
	levels []*Cache // levels[0] = L1, last = LLC (possibly shared)
	// probes holds each level's lookup from the current Access, so the
	// fills after a miss reuse it.
	probes []probe
	// ops backs every op list the hierarchy returns (AccessResult.MemOps,
	// FillLines, FlushDirty). Callers consume each list before the next
	// call, so one buffer serves all of them and the access path does not
	// allocate.
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
	return &Hierarchy{levels: levels, probes: make([]probe, len(levels))}
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
//
// Every missed level is filled through the probe it took on the way down.
// The levels fill bottom-up and a fill only pushes evictions (and carves
// sets) further down, so a level's set, and its record's place in the
// level's backing, are unchanged between its probe and its fill.
func (h *Hierarchy) Access(addr uint64, size int, write, sectored bool) AccessResult {
	res := AccessResult{MemOps: h.ops[:0]}
	fillFrom := len(h.levels) - 1 // deepest missed level
	for i, lvl := range h.levels {
		var out Outcome
		h.probes[i], out = lvl.access(addr, size, write)
		if out == Hit {
			res.HitLevel = i + 1
			fillFrom = i - 1
			break
		}
	}
	if res.HitLevel == 0 {
		// Miss everywhere: fetch from memory and allocate in every level.
		llc := h.LLC()
		res.MemOps = append(res.MemOps, MemOp{Addr: llc.lineAddr(addr), Sectors: accessSectors(llc, addr, size, sectored), Sectored: sectored})
	}
	for i := fillFrom; i >= 0; i-- {
		h.fillLevel(i, h.probes[i], accessSectors(h.levels[i], addr, size, sectored), write, sectored, &res)
	}
	h.ops = res.MemOps[:0]
	return res
}

// accessSectors is the sector bitmap an access fills at level c: the
// touched sectors for strided data, the whole line otherwise.
func accessSectors(c *Cache, addr uint64, size int, sectored bool) uint64 {
	if sectored {
		return c.sectorMask(addr, size)
	}
	return c.FullSectorMask()
}

// LineFill names one line a strided fetch (partially) fills: its address
// and the sectors the burst delivered.
type LineFill struct {
	LineAddr uint64
	Sectors  uint64
}

// FillLines installs the given sectors of each line into every level
// without a demand access — the sibling fills of a strided fetch, which
// brings the same-offset sector of Reach lines in one burst. Lines fill in
// order, each bottom-up. It returns the memory writebacks the allocations
// displaced, in that order, in the hierarchy's scratch (valid until the
// next hierarchy call).
func (h *Hierarchy) FillLines(fills []LineFill, sectored bool) []MemOp {
	res := AccessResult{MemOps: h.ops[:0]}
	for _, f := range fills {
		for i := len(h.levels) - 1; i >= 0; i-- {
			h.fillLevel(i, h.levels[i].lookup(f.LineAddr), f.Sectors, false, sectored, &res)
		}
	}
	h.ops = res.MemOps[:0]
	return res.MemOps
}

// fillLevel fills level i through probe p and writes a dirty victim back
// down the hierarchy.
func (h *Hierarchy) fillLevel(i int, p probe, sectors uint64, write, sectored bool, res *AccessResult) {
	lvl := h.levels[i]
	ev, dirty := lvl.fill(p, sectors, write, sectored)
	if dirty {
		lvl.Stats.WritebacksToBelow++
		h.pushDown(i+1, ev, res)
	}
}

// pushDown writes a dirty eviction into level i; past the last level it
// becomes a memory writeback.
func (h *Hierarchy) pushDown(i int, ev Eviction, res *AccessResult) {
	if i == len(h.levels) {
		res.MemOps = append(res.MemOps, MemOp{Addr: ev.LineAddr, IsWrite: true, Sectors: ev.Dirty, Sectored: ev.Sectored})
		return
	}
	h.fillLevel(i, h.levels[i].lookup(ev.LineAddr), ev.Dirty, true, ev.Sectored, res)
}

// FlushDirty writes every dirty line in every level back to memory,
// returning the writeback ops (used at end of a workload phase so write
// traffic is fully accounted). The last level's lines come first, then
// each level above it, each in set-index order (not backing/touch order),
// so the op sequence, which feeds the memory system, is independent of
// the sets' first-touch history. A line dirty in several levels is written
// once, from the deepest of them: tag-only modeling makes the copies
// equivalent. Like AccessResult.MemOps, the list lives in the hierarchy's
// scratch and is valid until the next hierarchy call.
func (h *Hierarchy) FlushDirty() []MemOp {
	n := 0
	for _, lvl := range h.levels {
		lvl.forDirty(func(*set, int, int) { n++ })
	}
	ops := h.ops[:0]
	if cap(ops) < n {
		ops = make([]MemOp, 0, n)
	}
	for li := len(h.levels) - 1; li >= 0; li-- {
		lvl := h.levels[li]
		lvl.forDirty(func(s *set, idx, w int) {
			addr := lvl.lineAddrOf(s.tag[w], idx)
			for _, below := range h.levels[li+1:] {
				if below.dirtyLine(addr) {
					return
				}
			}
			ops = append(ops, MemOp{Addr: addr, IsWrite: true, Sectors: uint64(s.dirty[w]), Sectored: s.sectored>>w&1 != 0})
		})
	}
	for _, lvl := range h.levels {
		lvl.forDirty(func(s *set, _, w int) { s.dirty[w] = 0 })
		clear(lvl.dirtySets)
	}
	h.ops = ops[:0]
	return ops
}

// forDirty calls f for every valid way with dirty sectors, in set-index
// then way order. Only sets marked in dirtySets can hold such ways.
func (c *Cache) forDirty(f func(s *set, idx, w int)) {
	for wi, word := range c.dirtySets {
		for ; word != 0; word &= word - 1 {
			idx := wi*64 + bits.TrailingZeros64(word)
			s := c.peek(idx)
			for w := 0; w < c.cfg.Ways; w++ {
				if s.valid[w] != 0 && s.dirty[w] != 0 {
					f(s, idx, w)
				}
			}
		}
	}
}

// dirtyLine reports whether the line at addr is resident with dirty
// sectors.
func (c *Cache) dirtyLine(addr uint64) bool {
	p := c.lookup(addr)
	return p.way >= 0 && p.s.dirty[p.way] != 0
}

// lineAddr exposes line alignment for MemOps.
func (c *Cache) lineAddr(addr uint64) uint64 {
	return addr &^ (1<<c.lineBits - 1)
}

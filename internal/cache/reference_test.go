package cache

import "fmt"

// refCache and refHierarchy are the sector cache as it was before sets
// became 64-byte records, kept verbatim as a test-only oracle: one 40-byte
// line per way with a 64-bit tag, and a per-cache clock that stamps every
// hit and fill, the victim being the first invalid way, else the lowest
// stamp; every fill locates and scans its set afresh. Its observable
// behaviour (outcomes, evictions, memory ops and Stats) defines
// correctness for the set-record Cache; differential_test.go drives both
// on randomized operation streams and requires identical results.
//
// Do not "improve" these types: their value is that they stay frozen.

type refLine struct {
	tag      uint64
	valid    uint64 // sector valid bitmap
	dirty    uint64 // sector dirty bitmap
	sectored bool   // filled by a strided access (affects writeback shape)
	lru      uint64
}

// refCache is one level. Sets are allocated lazily: the directory maps each
// set index to its way array inside one flat, pointer-free backing slice,
// carved out on the set's first Fill. Building (and flushing) a large,
// mostly untouched level therefore costs the int32 directory only, not
// SizeBytes/LineBytes lines of zeroed backing — and the GC never scans
// per-set slice headers.
type refCache struct {
	cfg      Config
	setOff   []int32   // per set: 1 + backing offset of its ways; 0 = untouched
	backing  []refLine // way arrays of touched sets, in first-touch order
	setMask  uint64
	lineBits uint
	setShift uint
	secBytes int
	clock    uint64
	Stats    Stats
}

// newRefCache builds a level; it panics on invalid configuration.
func newRefCache(cfg Config) *refCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	if nSets&(nSets-1) != 0 {
		panic(fmt.Sprintf("cache: %s set count %d not a power of two", cfg.Name, nSets))
	}
	lineBits := uint(0)
	for 1<<lineBits < cfg.LineBytes {
		lineBits++
	}
	setShift := uint(0)
	for 1<<setShift < nSets {
		setShift++
	}
	return &refCache{
		cfg:      cfg,
		setOff:   make([]int32, nSets),
		setMask:  uint64(nSets - 1),
		lineBits: lineBits,
		setShift: setShift,
		secBytes: cfg.LineBytes / cfg.Sectors,
	}
}

// peek returns set idx's way array, or nil while the set is untouched.
func (c *refCache) peek(idx int) []refLine {
	off := c.setOff[idx]
	if off == 0 {
		return nil
	}
	b := int(off - 1)
	return c.backing[b : b+c.cfg.Ways]
}

// set returns set idx's way array, carving it from the backing on first use.
func (c *refCache) set(idx int) []refLine {
	if s := c.peek(idx); s != nil {
		return s
	}
	w := c.cfg.Ways
	base := len(c.backing)
	if cap(c.backing)-base < w {
		newCap := 4 * cap(c.backing)
		if min := base + w; newCap < min {
			newCap = min
		}
		if newCap < 64*w {
			newCap = 64 * w
		}
		nb := make([]refLine, base, newCap)
		copy(nb, c.backing)
		c.backing = nb
	}
	c.backing = c.backing[:base+w]
	s := c.backing[base : base+w]
	clear(s)
	c.setOff[idx] = int32(base) + 1
	return s
}

// Config returns the level configuration.
func (c *refCache) Config() Config { return c.cfg }

// SectorBytes returns the sector granularity.
func (c *refCache) SectorBytes() int { return c.secBytes }

func (c *refCache) setBits() uint { return c.setShift }

func (c *refCache) locate(addr uint64) (setIdx int, tag uint64) {
	lineAddr := addr >> c.lineBits
	return int(lineAddr & c.setMask), lineAddr >> c.setBits()
}

func (c *refCache) sectorOf(addr uint64) int {
	return int(addr&(1<<c.lineBits-1)) / c.secBytes
}

// sectorMask returns the bitmap of sectors an access [addr, addr+size)
// touches within its line.
func (c *refCache) sectorMask(addr uint64, size int) uint64 {
	first := c.sectorOf(addr)
	last := c.sectorOf(addr + uint64(size) - 1)
	var m uint64
	for s := first; s <= last; s++ {
		m |= 1 << s
	}
	return m
}

// Access probes the level for [addr, addr+size). On a line miss the caller
// must Fill before the data is usable; on a sector miss the line exists but
// the touched sectors are invalid. Write hits mark sectors dirty.
func (c *refCache) Access(addr uint64, size int, write bool) Outcome {
	if size <= 0 || uint64(size) > uint64(c.cfg.LineBytes)-(addr&(1<<c.lineBits-1)) {
		panic(fmt.Sprintf("cache: access [%x,+%d) crosses a line boundary", addr, size))
	}
	setIdx, tag := c.locate(addr)
	mask := c.sectorMask(addr, size)
	c.clock++
	set := c.peek(setIdx)
	for i := range set {
		ln := &set[i]
		if ln.valid != 0 && ln.tag == tag {
			if ln.valid&mask == mask {
				ln.lru = c.clock
				if write {
					ln.dirty |= mask
				}
				c.Stats.Hits++
				return Hit
			}
			c.Stats.SectorMisses++
			c.Stats.Misses++
			return SectorMiss
		}
	}
	c.Stats.Misses++
	return LineMiss
}

// Fill installs (or widens) the line containing addr with the given sector
// bitmap, returning an eviction if a victim was displaced. markDirty sets
// the filled sectors dirty (write-allocate); sectored tags the line as
// strided-filled.
func (c *refCache) Fill(addr uint64, sectors uint64, markDirty, sectored bool) (ev Eviction, evicted bool) {
	setIdx, tag := c.locate(addr)
	c.clock++
	set := c.set(setIdx)
	// One pass: widen an existing line if present, otherwise remember the
	// victim (first invalid way, else LRU).
	victim, invalid := 0, -1
	for i := range set {
		ln := &set[i]
		if ln.valid == 0 {
			if invalid < 0 {
				invalid = i
			}
			continue
		}
		if ln.tag == tag {
			ln.valid |= sectors
			if markDirty {
				ln.dirty |= sectors
			}
			ln.sectored = ln.sectored || sectored
			ln.lru = c.clock
			return Eviction{}, false
		}
		if ln.lru < set[victim].lru {
			victim = i
		}
	}
	if invalid >= 0 {
		victim = invalid
	}
	ln := &set[victim]
	if ln.valid != 0 {
		c.Stats.Evictions++
		if ln.dirty != 0 {
			c.Stats.DirtyEvictions++
		}
		ev = Eviction{
			LineAddr: ((ln.tag<<c.setBits() | uint64(setIdx)) << c.lineBits),
			Dirty:    ln.dirty,
			Sectored: ln.sectored,
		}
		evicted = ln.dirty != 0
	}
	*ln = refLine{tag: tag, valid: sectors, lru: c.clock, sectored: sectored}
	if markDirty {
		ln.dirty = sectors
	}
	c.Stats.FillsFromBelow++
	if sectored {
		c.Stats.StridedLineInserts++
	}
	return ev, evicted
}

// Contains reports whether the full sector mask for [addr,addr+size) is
// resident and valid.
func (c *refCache) Contains(addr uint64, size int) bool {
	setIdx, tag := c.locate(addr)
	mask := c.sectorMask(addr, size)
	set := c.peek(setIdx)
	for i := range set {
		ln := &set[i]
		if ln.valid != 0 && ln.tag == tag {
			return ln.valid&mask == mask
		}
	}
	return false
}

// FullSectorMask returns the bitmap covering every sector of a line.
func (c *refCache) FullSectorMask() uint64 {
	return 1<<uint(c.cfg.Sectors) - 1
}

// refHierarchy is one core's view of the cache system: private upper levels
// plus a shared last level. Fills propagate to every level (allocate-all);
// dirty evictions write back to the next level down and, from the last
// level, to memory.
type refHierarchy struct {
	levels []*refCache // levels[0] = L1, last = LLC (possibly shared)
	// flushSeen is the dedup scratch for FlushDirty, owned by the
	// hierarchy and cleared per call instead of reallocated — the access
	// path is single-threaded per engine.
	flushSeen map[uint64]bool
	// ops backs every AccessResult.MemOps and FillLine result. Callers
	// consume each op list before the next call, so one buffer serves all
	// of them and the access path does not allocate.
	ops []MemOp
}

// newRefHierarchy builds a hierarchy from outermost private to shared last
// level. All levels must agree on line size.
func newRefHierarchy(levels ...*refCache) *refHierarchy {
	if len(levels) == 0 {
		panic("cache: empty hierarchy")
	}
	lb := levels[0].Config().LineBytes
	for _, l := range levels[1:] {
		if l.Config().LineBytes != lb {
			panic(fmt.Sprintf("cache: mixed line sizes %d vs %d", l.Config().LineBytes, lb))
		}
	}
	return &refHierarchy{levels: levels}
}

// Levels returns the number of levels.
func (h *refHierarchy) Levels() int { return len(h.levels) }

// Level returns level i (0-based).
func (h *refHierarchy) Level(i int) *refCache { return h.levels[i] }

// LLC returns the last level.
func (h *refHierarchy) LLC() *refCache { return h.levels[len(h.levels)-1] }

// Access performs a demand access of size bytes at addr. Regular accesses
// fill whole lines; pass sectored=true for strided data, which fills only
// the touched sectors (the sector-cache behaviour of Section 5.1).
func (h *refHierarchy) Access(addr uint64, size int, write, sectored bool) AccessResult {
	res := AccessResult{MemOps: h.ops[:0]}
	hitAt := 0
	for i, lvl := range h.levels {
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
func (h *refHierarchy) fillAll(addr uint64, sectored, write bool, size int, res *AccessResult) {
	for i := len(h.levels) - 1; i >= 0; i-- {
		h.fillLevel(i, addr, sectored, write, size, res)
	}
}

func (h *refHierarchy) fillLevel(i int, addr uint64, sectored, write bool, size int, res *AccessResult) {
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
func (h *refHierarchy) FillLine(addr uint64, sectors uint64, sectored bool) []MemOp {
	res := AccessResult{MemOps: h.ops[:0]}
	for i := len(h.levels) - 1; i >= 0; i-- {
		h.fillLevelSectors(i, addr, sectors, false, sectored, &res)
	}
	h.ops = res.MemOps[:0]
	return res.MemOps
}

func (h *refHierarchy) fillLevelSectors(i int, addr uint64, sectors uint64, write, sectored bool, res *AccessResult) {
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

func (h *refHierarchy) pushDown(i int, ev Eviction, res *AccessResult) {
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
func (h *refHierarchy) FlushDirty() []MemOp {
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

// lineAddr exposes line alignment for MemOps.
func (c *refCache) lineAddr(addr uint64) uint64 {
	return addr &^ (1<<c.lineBits - 1)
}

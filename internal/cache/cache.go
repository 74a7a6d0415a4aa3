// Package cache implements the sector-cache hierarchy of Section 5.1: set
// associative write-back caches whose lines are divided into 16B sectors
// with independent valid and dirty bits, so SAM's strided data (one chipkill
// codeword's worth per line) can live in the hierarchy without dragging
// whole cachelines around.
//
// The caches are timing/traffic models: they track tags and sector state,
// not payload bytes (the executor reads and writes values in imdb.Table
// directly).
package cache

import (
	"fmt"
	"math/bits"
)

// Config sizes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	LineBytes  int
	Ways       int // at most 8: one set record holds 8 ways
	Sectors    int // sectors per line, at most 8; 1 disables sectoring
	HitLatency int // CPU cycles for a hit at this level
}

// Geometry limits of the set record.
const (
	maxWays    = 8
	maxSectors = 8
)

// Validate checks the level geometry.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 || c.Sectors <= 0:
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	case c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache: %dB line not a power of two", c.LineBytes)
	case c.Ways > maxWays:
		return fmt.Errorf("cache: set record limited to %d ways, got %d", maxWays, c.Ways)
	case c.Sectors > maxSectors:
		return fmt.Errorf("cache: sector bitmap limited to %d, got %d", maxSectors, c.Sectors)
	case c.SizeBytes%(c.LineBytes*c.Ways) != 0:
		return fmt.Errorf("cache: size %d not divisible by line*ways", c.SizeBytes)
	case c.LineBytes%c.Sectors != 0:
		return fmt.Errorf("cache: %d sectors do not divide %dB line", c.Sectors, c.LineBytes)
	}
	return nil
}

// Stats counts per-level activity.
type Stats struct {
	Hits, Misses       uint64
	SectorMisses       uint64 // line present but sector invalid
	Evictions          uint64
	DirtyEvictions     uint64
	FillsFromBelow     uint64
	WritebacksToBelow  uint64
	StridedLineInserts uint64
}

// set is one cache set in 64 bytes, one host cache line. Way w's tag and
// sector bitmaps sit at index w (a way is valid while any of its sectors
// is), bit w of live is set while way w is valid, and bit w of sectored
// marks it strided-filled, which shapes its writeback. order lists the way
// indices one per byte, most recently used in the low byte (see touch).
type set struct {
	tag      [maxWays]uint32
	valid    [maxWays]uint8
	dirty    [maxWays]uint8
	order    uint64
	sectored uint8
	live     uint8
}

// freshOrder is the recency order of a newly carved set. Any permutation
// of the ways would do: a set fills its invalid ways first, and each fill
// moves its way to the front.
const freshOrder uint64 = 0x0706050403020100

// lanes has the low bit of every byte set.
const lanes uint64 = 0x0101010101010101

// touch makes way w the most recently used. Every hit and fill touches
// exactly one way, so the order ranks the valid ways exactly as distinct
// per-operation stamps would, and the last byte of the first Ways is the
// least recently used way; bytes past Ways never move.
func (s *set) touch(w int) {
	// x has a zero byte exactly where w sits; the lowest byte the zero-byte
	// test flags is exact (only bytes above a zero byte can be false hits).
	x := s.order ^ lanes*uint64(w)
	p := uint(bits.TrailingZeros64((x-lanes)&^x&(lanes<<7))) &^ 7
	newer := uint64(1)<<p - 1
	s.order = s.order&^(newer|0xff<<p) | (s.order&newer)<<8 | uint64(w)
}

// Cache is one level. Sets are allocated lazily: the directory maps each
// set index to its record inside one flat, pointer-free backing slice,
// carved out on the set's first fill. Building (and flushing) a large,
// mostly untouched level therefore costs the int32 directory only, not
// SizeBytes/LineBytes lines of zeroed backing, and the GC never scans
// per-set slice headers.
type Cache struct {
	cfg      Config
	setOff   []int32 // per set: 1 + backing index of its record; 0 = untouched
	backing  []set   // records of touched sets, in first-touch order
	setMask  uint64
	lineBits uint
	setShift uint
	lruShift uint // bit offset of the least recently used way in set.order
	secShift uint // log2 of the sector size: a power-of-two line splits into power-of-two sectors
	Stats    Stats

	// dirtySets has bit idx set once set idx may hold dirty sectors, so a
	// flush visits only those sets. Allocated on the first dirty mark; a
	// bit may outlive its set's dirty ways (eviction).
	dirtySets []uint64
}

// New builds a level; it panics on invalid configuration.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	if nSets&(nSets-1) != 0 {
		panic(fmt.Sprintf("cache: %s set count %d not a power of two", cfg.Name, nSets))
	}
	return &Cache{
		cfg:      cfg,
		setOff:   make([]int32, nSets),
		setMask:  uint64(nSets - 1),
		lineBits: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setShift: uint(bits.TrailingZeros(uint(nSets))),
		lruShift: 8 * uint(cfg.Ways-1),
		secShift: uint(bits.TrailingZeros(uint(cfg.LineBytes / cfg.Sectors))),
	}
}

// peek returns set idx's record, or nil while the set is untouched.
func (c *Cache) peek(idx int) *set {
	off := c.setOff[idx]
	if off == 0 {
		return nil
	}
	return &c.backing[off-1]
}

// carve gives the untouched set idx its record in the backing. Growing
// the backing moves every record, so it invalidates the sets of this
// level's earlier probes.
func (c *Cache) carve(idx int) *set {
	n := len(c.backing)
	if n == cap(c.backing) {
		nb := make([]set, n, min(max(4*n, 64), len(c.setOff)))
		copy(nb, c.backing)
		c.backing = nb
	}
	c.backing = append(c.backing, set{order: freshOrder})
	c.setOff[idx] = int32(n) + 1
	return &c.backing[n]
}

// Config returns the level configuration.
func (c *Cache) Config() Config { return c.cfg }

// locate splits addr into its set index and tag. Tags are 32 bits wide,
// which covers addresses below 2^(32+lineBits+setBits).
func (c *Cache) locate(addr uint64) (setIdx int, tag uint32) {
	lineAddr := addr >> c.lineBits
	t := lineAddr >> c.setShift
	if t>>32 != 0 {
		panic(fmt.Sprintf("cache: %s: address %#x exceeds the 32-bit tag", c.cfg.Name, addr))
	}
	return int(lineAddr & c.setMask), uint32(t)
}

// lineAddrOf rebuilds the address of the line with the given tag in set
// setIdx.
func (c *Cache) lineAddrOf(tag uint32, setIdx int) uint64 {
	return (uint64(tag)<<c.setShift | uint64(setIdx)) << c.lineBits
}

func (c *Cache) sectorOf(addr uint64) int {
	return int(addr&(1<<c.lineBits-1)) >> c.secShift
}

// sectorMask returns the bitmap of sectors an access [addr, addr+size)
// touches within its line.
func (c *Cache) sectorMask(addr uint64, size int) uint64 {
	first := c.sectorOf(addr)
	last := c.sectorOf(addr + uint64(size) - 1)
	return 1<<(last+1) - 1<<first
}

// Outcome classifies one access at this level.
type Outcome int

// Access outcomes.
const (
	Hit Outcome = iota
	SectorMiss
	LineMiss
)

// Eviction describes a line pushed out to make room.
type Eviction struct {
	LineAddr uint64
	Dirty    uint64 // dirty sector bitmap (0 = clean eviction)
	Sectored bool
}

// probe is one lookup of a line: its set record (nil while the set is
// untouched), its set index, its tag and the way holding it (-1 when the
// line is absent). A probe stays valid until the level's set changes or
// the level carves a set, so Hierarchy.Access fills a missed level through
// the probe it took on the way down instead of locating and scanning the
// set again.
type probe struct {
	s   *set
	idx int
	tag uint32
	way int
}

// lookup locates addr's line. It compares all eight tags without a
// branch: each comparison yields one bit of a match bitmap, which live
// masks down to the valid ways (a dead way may hold a stale tag); a line
// lives in at most one valid way.
func (c *Cache) lookup(addr uint64) probe {
	idx, tag := c.locate(addr)
	p := probe{s: c.peek(idx), idx: idx, tag: tag, way: -1}
	if s := p.s; s != nil {
		m := tagEq(s.tag[0], tag) | tagEq(s.tag[1], tag)<<1 |
			tagEq(s.tag[2], tag)<<2 | tagEq(s.tag[3], tag)<<3 |
			tagEq(s.tag[4], tag)<<4 | tagEq(s.tag[5], tag)<<5 |
			tagEq(s.tag[6], tag)<<6 | tagEq(s.tag[7], tag)<<7
		if m &= uint64(s.live); m != 0 {
			p.way = bits.TrailingZeros64(m)
		}
	}
	return p
}

// tagEq is 1 when a == b and 0 otherwise, computed without a branch: a^b
// fits in 32 bits, so subtracting 1 borrows into bit 63 only from zero.
func tagEq(a, b uint32) uint64 {
	return (uint64(a^b) - 1) >> 63
}

// access probes the level for [addr, addr+size) and returns the probe it
// took. On a line miss the caller must fill before the data is usable; on a
// sector miss the line exists but the touched sectors are invalid. Write
// hits mark sectors dirty.
func (c *Cache) access(addr uint64, size int, write bool) (probe, Outcome) {
	if size <= 0 || uint64(size) > uint64(c.cfg.LineBytes)-(addr&(1<<c.lineBits-1)) {
		panic(fmt.Sprintf("cache: access [%x,+%d) crosses a line boundary", addr, size))
	}
	p := c.lookup(addr)
	if p.way < 0 {
		c.Stats.Misses++
		return p, LineMiss
	}
	s := p.s
	mask := uint8(c.sectorMask(addr, size))
	if s.valid[p.way]&mask != mask {
		c.Stats.SectorMisses++
		c.Stats.Misses++
		return p, SectorMiss
	}
	c.Stats.Hits++
	s.touch(p.way)
	if write {
		s.dirty[p.way] |= mask
		c.markDirty(p.idx)
	}
	return p, Hit
}

// fill installs (or widens) the line of probe p with the given sector
// bitmap, returning the victim it displaced and whether that victim was
// dirty. It widens the way the probe found, or else replaces the set's
// first invalid way, else its least recently used one. An untouched set
// is carved here, on its first fill. markDirty sets the filled sectors
// dirty (write-allocate); sectored tags the line as strided-filled.
func (c *Cache) fill(p probe, sectors uint64, markDirty, sectored bool) (ev Eviction, evicted bool) {
	if sectors>>c.cfg.Sectors != 0 {
		panic(fmt.Sprintf("cache: %s: sector bitmap %#x exceeds %d sectors", c.cfg.Name, sectors, c.cfg.Sectors))
	}
	sec := uint8(sectors)
	var dirty uint8
	if markDirty {
		dirty = sec
	}
	var strided uint8
	if sectored {
		strided = 1
	}
	s := p.s
	if s == nil {
		s = c.carve(p.idx)
	}
	if markDirty {
		c.markDirty(p.idx)
	}
	w := p.way
	if w >= 0 {
		s.valid[w] |= sec
		s.dirty[w] |= dirty
		s.sectored |= strided << w
		s.touch(w)
		return Eviction{}, false
	}
	w = c.victim(s)
	if s.valid[w] != 0 {
		c.Stats.Evictions++
		if s.dirty[w] != 0 {
			c.Stats.DirtyEvictions++
		}
		ev = Eviction{
			LineAddr: c.lineAddrOf(s.tag[w], p.idx),
			Dirty:    uint64(s.dirty[w]),
			Sectored: s.sectored>>w&1 != 0,
		}
		evicted = s.dirty[w] != 0
	}
	s.tag[w] = p.tag
	s.valid[w] = sec
	s.dirty[w] = dirty
	s.sectored = s.sectored&^(1<<w) | strided<<w
	s.live &^= 1 << w
	if sec != 0 {
		s.live |= 1 << w
	}
	s.touch(w)
	c.Stats.FillsFromBelow++
	if sectored {
		c.Stats.StridedLineInserts++
	}
	return ev, evicted
}

// markDirty records that set idx may hold dirty sectors.
func (c *Cache) markDirty(idx int) {
	if c.dirtySets == nil {
		c.dirtySets = make([]uint64, (len(c.setOff)+63)/64)
	}
	c.dirtySets[idx/64] |= 1 << (idx % 64)
}

// victim picks the way a fill replaces: the first invalid way, else the
// least recently used.
func (c *Cache) victim(s *set) int {
	if w := bits.TrailingZeros8(^s.live); w < c.cfg.Ways {
		return w
	}
	return int(s.order >> c.lruShift & 0xff)
}

// FullSectorMask returns the bitmap covering every sector of a line.
func (c *Cache) FullSectorMask() uint64 {
	return 1<<uint(c.cfg.Sectors) - 1
}

package cache

import (
	"math/rand"
	"testing"
)

func smallCache(sectors int) *Cache {
	return New(Config{
		Name: "test", SizeBytes: 4096, LineBytes: 64, Ways: 4,
		Sectors: sectors, HitLatency: 4,
	})
}

// contains reports whether the full sector mask for [addr,addr+size) is
// resident and valid.
func contains(c *Cache, addr uint64, size int) bool {
	p := c.lookup(addr)
	if p.way < 0 {
		return false
	}
	mask := uint8(c.sectorMask(addr, size))
	return p.s.valid[p.way]&mask == mask
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, LineBytes: 64, Ways: 4, Sectors: 1},
		{SizeBytes: 4096, LineBytes: 64, Ways: 3, Sectors: 1},
		{SizeBytes: 4096, LineBytes: 64, Ways: 4, Sectors: 7},
		{SizeBytes: 4096, LineBytes: 64, Ways: 4, Sectors: 128},
		{SizeBytes: 6144, LineBytes: 96, Ways: 4, Sectors: 1},
		{SizeBytes: 4096, LineBytes: 64, Ways: 16, Sectors: 1},
		{SizeBytes: 4096, LineBytes: 64, Ways: 4, Sectors: 16},
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	good := Config{Name: "L1", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, Sectors: 4, HitLatency: 4}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

// TestOutOfRangePanics pins the set record's limits: an address whose tag
// needs more than 32 bits, or a sector bitmap wider than the line, must
// panic rather than alias or truncate.
func TestOutOfRangePanics(t *testing.T) {
	c := smallCache(4) // 64B lines, 16 sets: 10 bits below the tag
	c.fill(c.lookup(1<<42-64), 0b1111, false, false)
	if !contains(c, 1<<42-64, 8) {
		t.Fatal("line with the widest tag not resident")
	}
	for name, f := range map[string]func(){
		"tag":     func() { c.access(1<<42, 8, false) },
		"sectors": func() { c.fill(c.lookup(0x1000), 0b10000, false, true) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range input accepted")
				}
			}()
			f()
		})
	}
}

func TestMissThenHit(t *testing.T) {
	c := smallCache(1)
	if _, got := c.access(0x1000, 8, false); got != LineMiss {
		t.Fatalf("first access = %v, want LineMiss", got)
	}
	c.fill(c.lookup(0x1000), c.FullSectorMask(), false, false)
	if _, got := c.access(0x1000, 8, false); got != Hit {
		t.Fatalf("after fill = %v, want Hit", got)
	}
	if _, got := c.access(0x1038, 8, false); got != Hit {
		t.Fatalf("same line different offset = %v, want Hit", got)
	}
}

func TestSectorMiss(t *testing.T) {
	c := smallCache(4)
	c.fill(c.lookup(0x1000), 0b0001, false, true) // only sector 0 valid
	if _, got := c.access(0x1000, 8, false); got != Hit {
		t.Fatalf("sector 0 = %v, want Hit", got)
	}
	if _, got := c.access(0x1010, 8, false); got != SectorMiss {
		t.Fatalf("sector 1 = %v, want SectorMiss", got)
	}
	c.fill(c.lookup(0x1010), 0b0010, false, true)
	if _, got := c.access(0x1010, 8, false); got != Hit {
		t.Fatalf("sector 1 after widen = %v, want Hit", got)
	}
	if c.Stats.SectorMisses != 1 {
		t.Fatalf("sector miss count = %d", c.Stats.SectorMisses)
	}
}

func TestAccessSpanningSectors(t *testing.T) {
	c := smallCache(4)
	c.fill(c.lookup(0x1000), 0b0011, false, true)
	// [0x100c, 0x1014) touches sectors 0 and 1, both valid.
	if _, got := c.access(0x100c, 8, false); got != Hit {
		t.Fatalf("cross-sector access = %v, want Hit", got)
	}
	// [0x101c, 0x1024) touches sectors 1 and 2; 2 invalid.
	if _, got := c.access(0x101c, 8, false); got != SectorMiss {
		t.Fatalf("cross into invalid sector = %v, want SectorMiss", got)
	}
}

func TestAccessCrossingLinePanics(t *testing.T) {
	c := smallCache(1)
	defer func() {
		if recover() == nil {
			t.Fatal("line-crossing access did not panic")
		}
	}()
	c.access(0x103c, 16, false)
}

func TestLRUEviction(t *testing.T) {
	c := smallCache(1)
	// 16 sets; same set = addresses 64*16 apart. Fill 5 lines in one set.
	base := uint64(0)
	step := uint64(64 * 16)
	for i := uint64(0); i < 4; i++ {
		c.fill(c.lookup(base+i*step), 1, false, false)
	}
	// Touch line 0 so line 1 is LRU.
	c.access(base, 8, false)
	ev, dirty := c.fill(c.lookup(base+4*step), 1, false, false)
	if dirty {
		t.Fatal("clean eviction flagged dirty")
	}
	if ev.LineAddr != base+1*step {
		t.Fatalf("evicted %x, want LRU line %x", ev.LineAddr, base+step)
	}
	if contains(c, base+step, 8) {
		t.Fatal("evicted line still present")
	}
	if !contains(c, base, 8) {
		t.Fatal("recently used line evicted")
	}
}

func TestDirtyEvictionCarriesSectorShape(t *testing.T) {
	c := smallCache(4)
	base := uint64(0)
	step := uint64(64 * 16)
	c.fill(c.lookup(base), 0b0100, true, true) // strided dirty sector 2
	for i := uint64(1); i < 4; i++ {
		c.fill(c.lookup(base+i*step), c.FullSectorMask(), false, false)
	}
	ev, dirty := c.fill(c.lookup(base+4*step), c.FullSectorMask(), false, false)
	if !dirty {
		t.Fatal("dirty line evicted silently")
	}
	if ev.Dirty != 0b0100 || !ev.Sectored {
		t.Fatalf("eviction lost sector shape: %+v", ev)
	}
}

func TestWriteMarksDirty(t *testing.T) {
	c := smallCache(4)
	c.fill(c.lookup(0x2000), c.FullSectorMask(), false, false)
	c.access(0x2010, 8, true)
	// Evict it and check dirty bitmap has sector 1.
	step := uint64(64 * 16)
	for i := uint64(1); i <= 4; i++ {
		c.fill(c.lookup(0x2000+i*step), c.FullSectorMask(), false, false)
	}
	if c.Stats.DirtyEvictions != 1 {
		t.Fatalf("dirty evictions = %d", c.Stats.DirtyEvictions)
	}
}

func TestEvictionAddressReconstruction(t *testing.T) {
	c := smallCache(1)
	rng := rand.New(rand.NewSource(3))
	step := uint64(64 * 16)
	for trial := 0; trial < 100; trial++ {
		c = smallCache(1)
		addr := uint64(rng.Intn(1<<20)) &^ 63
		c.fill(c.lookup(addr), 1, true, false)
		var ev Eviction
		var got bool
		for i := uint64(1); i <= 4 && !got; i++ {
			ev, got = c.fill(c.lookup(addr+i*step), 1, false, false)
		}
		if !got {
			t.Fatal("victim never evicted")
		}
		if ev.LineAddr != addr {
			t.Fatalf("reconstructed %x, want %x", ev.LineAddr, addr)
		}
	}
}

package cache

import (
	"math/rand"
	"testing"
)

func testHierarchy(sectors int) *Hierarchy {
	l1 := New(Config{Name: "L1", SizeBytes: 1 << 10, LineBytes: 64, Ways: 2, Sectors: sectors, HitLatency: 4})
	l2 := New(Config{Name: "L2", SizeBytes: 4 << 10, LineBytes: 64, Ways: 4, Sectors: sectors, HitLatency: 12})
	llc := New(Config{Name: "LLC", SizeBytes: 16 << 10, LineBytes: 64, Ways: 8, Sectors: sectors, HitLatency: 38})
	return NewHierarchy(l1, l2, llc)
}

func TestHierarchyMissFillsAllLevels(t *testing.T) {
	h := testHierarchy(1)
	res := h.Access(0x1000, 8, false, false)
	if res.HitLevel != 0 {
		t.Fatalf("cold access hit level %d", res.HitLevel)
	}
	if len(res.MemOps) != 1 || res.MemOps[0].IsWrite {
		t.Fatalf("cold access memops: %+v", res.MemOps)
	}
	for i := 0; i < h.Levels(); i++ {
		if st := h.Level(i).Stats; st.Misses != 1 || st.FillsFromBelow != 1 {
			t.Fatalf("level %d: %d misses, %d fills; a cold miss traverses and fills every level", i+1, st.Misses, st.FillsFromBelow)
		}
	}
	res = h.Access(0x1000, 8, false, false)
	if res.HitLevel != 1 || len(res.MemOps) != 0 {
		t.Fatalf("second access: %+v", res)
	}
	for i := 1; i < h.Levels(); i++ {
		if st := h.Level(i).Stats; st.Hits != 0 || st.Misses != 1 {
			t.Fatalf("level %d probed by an L1 hit: %+v", i+1, st)
		}
	}
}

func TestHierarchyL2HitRefillsL1(t *testing.T) {
	h := testHierarchy(1)
	h.Access(0x1000, 8, false, false)
	// Evict from tiny L1 (2 ways, 8 sets -> same set every 64*8 bytes).
	step := uint64(64 * 8)
	h.Access(0x1000+step, 8, false, false)
	h.Access(0x1000+2*step, 8, false, false)
	res := h.Access(0x1000, 8, false, false)
	if res.HitLevel != 2 && res.HitLevel != 3 {
		t.Fatalf("expected lower-level hit, got level %d", res.HitLevel)
	}
	if len(res.MemOps) != 0 {
		t.Fatalf("lower-level hit generated memops: %+v", res.MemOps)
	}
	// Now it must be back in L1.
	res = h.Access(0x1000, 8, false, false)
	if res.HitLevel != 1 {
		t.Fatalf("refill into L1 failed, hit level %d", res.HitLevel)
	}
}

func TestHierarchySectoredFillOnlyTouchedSectors(t *testing.T) {
	h := testHierarchy(4)
	res := h.Access(0x2010, 8, false, true) // sector 1 only
	if res.HitLevel != 0 {
		t.Fatal("expected cold miss")
	}
	if res.MemOps[0].Sectors != 0b0010 || !res.MemOps[0].Sectored {
		t.Fatalf("sectored fill shape: %+v", res.MemOps[0])
	}
	// Same sector hits; neighbour sector misses.
	if r := h.Access(0x2010, 8, false, true); r.HitLevel != 1 {
		t.Fatal("sector re-access missed")
	}
	if r := h.Access(0x2020, 8, false, true); r.HitLevel != 0 {
		t.Fatal("other sector should miss to memory")
	}
}

func TestHierarchyDirtyWritebackReachesMemory(t *testing.T) {
	h := testHierarchy(1)
	h.Access(0x0, 8, true, false) // dirty in all levels
	// Thrash the LLC set: LLC has 32 sets, 8 ways -> same set every 64*32.
	step := uint64(64 * 32)
	var wbs []MemOp
	for i := uint64(1); i <= 20; i++ {
		res := h.Access(i*step, 8, false, false)
		for _, op := range res.MemOps {
			if op.IsWrite {
				wbs = append(wbs, op)
			}
		}
	}
	// The dirty line may still be resident (push-downs refresh its LRU);
	// either way it must reach memory by flush time, exactly once.
	wbs = append(wbs, h.FlushDirty()...)
	found := 0
	for _, wb := range wbs {
		if wb.Addr == 0 {
			found++
		}
	}
	if found != 1 {
		t.Fatalf("dirty line 0 written back %d times, want 1 (wbs=%v)", found, wbs)
	}
}

func TestHierarchyFlushDirty(t *testing.T) {
	h := testHierarchy(4)
	h.Access(0x1008, 8, true, true)
	h.Access(0x5000, 8, true, false)
	ops := h.FlushDirty()
	if len(ops) != 2 {
		t.Fatalf("flush produced %d ops, want 2: %+v", len(ops), ops)
	}
	addrs := map[uint64]MemOp{}
	for _, op := range ops {
		if !op.IsWrite {
			t.Fatalf("flush produced a read: %+v", op)
		}
		addrs[op.Addr] = op
	}
	if op, ok := addrs[0x1000]; !ok || op.Sectors != 0b0001 || !op.Sectored {
		t.Fatalf("strided dirty line flushed wrong: %+v", op)
	}
	if _, ok := addrs[0x5000]; !ok {
		t.Fatal("regular dirty line not flushed")
	}
	// Second flush is a no-op.
	if again := h.FlushDirty(); len(again) != 0 {
		t.Fatalf("second flush not empty: %+v", again)
	}
}

func TestHierarchyMixedLineSizesPanic(t *testing.T) {
	l1 := New(Config{Name: "a", SizeBytes: 1024, LineBytes: 64, Ways: 2, Sectors: 1, HitLatency: 1})
	l2 := New(Config{Name: "b", SizeBytes: 4096, LineBytes: 128, Ways: 2, Sectors: 1, HitLatency: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("mixed line sizes accepted")
		}
	}()
	NewHierarchy(l1, l2)
}

// TestHierarchyNoLostDirtyData is the tag-level version of invariant 5: a
// reference model tracks which lines hold unwritten-back modifications;
// every dirty line must either still be resident somewhere or have produced
// a memory writeback.
func TestHierarchyNoLostDirtyData(t *testing.T) {
	h := testHierarchy(4)
	rng := rand.New(rand.NewSource(21))
	dirtyLines := map[uint64]bool{}
	writtenBack := map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(1<<16)) &^ 7
		write := rng.Intn(3) == 0
		sectored := rng.Intn(2) == 0
		res := h.Access(addr, 8, write, sectored)
		if write {
			dirtyLines[addr&^63] = true
			delete(writtenBack, addr&^63)
		}
		for _, op := range res.MemOps {
			if op.IsWrite {
				writtenBack[op.Addr] = true
			}
		}
	}
	for _, op := range h.FlushDirty() {
		writtenBack[op.Addr] = true
	}
	for line := range dirtyLines {
		if !writtenBack[line] {
			t.Fatalf("dirty line %x vanished without a writeback", line)
		}
	}
}

func TestHierarchyStridedAndRegularInterleave(t *testing.T) {
	// A strided fill followed by a regular full-line access must widen the
	// line, not alias or duplicate it.
	h := testHierarchy(4)
	h.Access(0x4010, 8, false, true) // sector 1
	res := h.Access(0x4000, 64, false, false)
	if res.HitLevel != 0 {
		t.Fatalf("full-line access over partial line: hit level %d, want memory fill", res.HitLevel)
	}
	res = h.Access(0x4000, 64, false, false)
	if res.HitLevel != 1 {
		t.Fatalf("widened line not resident: %+v", res)
	}
}

package cache

import "testing"

// table2Hierarchy is the Table 2 hierarchy of a strided design: 32KB L1,
// 256KB L2 and 8MB LLC, 8 ways, 64B lines of eight 8B sectors.
func table2Hierarchy() *Hierarchy {
	mk := func(name string, size, lat int) *Cache {
		return New(Config{Name: name, SizeBytes: size, LineBytes: 64, Ways: 8, Sectors: 8, HitLatency: lat})
	}
	return NewHierarchy(mk("L1", 32<<10, 4), mk("L2", 256<<10, 12), mk("LLC", 8<<20, 38))
}

// stream is a strided scan over four times the LLC: step i reads (every
// fourth step writes) sector i/groups%8 of one line of gather group
// i%groups, and a miss fills that sector of the group's other seven lines
// in one group fill, the way a strided fetch's sibling fills do. Every step
// misses to memory once the scan has wrapped.
type stream struct {
	h     *Hierarchy
	step  int
	ops   int // memory ops issued, so the work cannot be optimized away
	fills []LineFill
}

const (
	streamGroups    = 4 * (8 << 20) / 512
	streamGroupSize = 8 * 64
)

func (s *stream) next() {
	i := s.step
	s.step++
	g, sec := i%streamGroups, i/streamGroups%8
	base := uint64(g) * streamGroupSize
	addr := base + uint64(i%8)*64 + uint64(sec)*8
	res := s.h.Access(addr, 8, i%4 == 0, true)
	s.ops += len(res.MemOps)
	if res.HitLevel != 0 {
		return
	}
	s.fills = s.fills[:0]
	for line := uint64(0); line < 8; line++ {
		if sib := base + line*64; sib != addr&^63 {
			s.fills = append(s.fills, LineFill{LineAddr: sib, Sectors: 1 << sec})
		}
	}
	s.ops += len(s.h.FillLines(s.fills, true))
}

// BenchmarkHierarchyAccess measures one streaming strided miss: the
// demand access through all three levels plus its seven-line group fill, at
// Table 2 geometry on a warm hierarchy.
func BenchmarkHierarchyAccess(b *testing.B) {
	s := &stream{h: table2Hierarchy()}
	for s.step < streamGroups {
		s.next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.next()
	}
}

// TestHierarchyAccessZeroAllocs pins the warm access path at zero
// allocations: once the scan has carved every set it touches, demand
// misses, group fills, dirty writebacks and FlushDirty all reuse the
// hierarchy's sets and op buffer.
func TestHierarchyAccessZeroAllocs(t *testing.T) {
	s := &stream{h: table2Hierarchy()}
	for s.step < streamGroups {
		s.next()
	}
	allocs := testing.AllocsPerRun(200, func() {
		for range 64 {
			s.next()
		}
		s.ops += len(s.h.FlushDirty())
	})
	if allocs != 0 {
		t.Fatalf("warm hierarchy access allocates %.1f times per run", allocs)
	}
	if s.ops == 0 {
		t.Fatal("stream issued no memory ops")
	}
}

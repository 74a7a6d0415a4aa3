package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

func TestSetRecordIsOneHostLine(t *testing.T) {
	if n := unsafe.Sizeof(set{}); n != 64 {
		t.Fatalf("set record is %d bytes, want 64", n)
	}
}

// TestCacheDifferential drives the set-record hierarchy and the frozen
// stamp-LRU reference with identical seeded streams of demand accesses,
// group fills of sibling lines, flushes, and level-local fills, accesses
// and lookups, over every supported ways x sectors geometry. Outcomes,
// evictions, memory ops and Stats must agree.
func TestCacheDifferential(t *testing.T) {
	for _, ways := range []int{2, 4, 8} {
		for _, sectors := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("ways%d/sectors%d", ways, sectors), func(t *testing.T) {
				cacheDifferential(t, ways, sectors, int64(100*ways+sectors))
			})
		}
	}
}

func cacheDifferential(t *testing.T, ways, sectors int, seed int64) {
	const lineBytes = 64
	var got []*Cache
	var want []*refCache
	// 4, 8 and 32 sets: small enough that every stream evicts constantly.
	for i, nSets := range []int{4, 8, 32} {
		cfg := Config{
			Name: fmt.Sprintf("L%d", i+1), SizeBytes: nSets * ways * lineBytes, LineBytes: lineBytes,
			Ways: ways, Sectors: sectors, HitLatency: 4 << i,
		}
		got = append(got, New(cfg))
		want = append(want, newRefCache(cfg))
	}
	h, ref := NewHierarchy(got...), newRefHierarchy(want...)

	rng := rand.New(rand.NewSource(seed))
	full := uint64(1)<<sectors - 1
	// Lines come from a few regions, one just below the top of the 32-bit
	// L1 tag, so tags of every width meet in the same sets.
	regions := []uint64{0, 1 << 20, 1<<40 - 1<<16}
	sameOps := func(step int, what string, a, b []MemOp) {
		t.Helper()
		if (len(a) != 0 || len(b) != 0) && !reflect.DeepEqual(a, b) {
			t.Fatalf("step %d %s: ops %+v, reference %+v", step, what, a, b)
		}
	}
	var fills []LineFill
	var refOps []MemOp
	for step := 0; step < 20000; step++ {
		a := regions[rng.Intn(len(regions))] + uint64(rng.Intn(1<<13))
		size := 1 + rng.Intn(lineBytes-int(a%lineBytes))
		if rng.Intn(2) == 0 {
			size = min(size, 8)
		}
		mask := 1 + uint64(rng.Int63n(int64(full)))
		write, sectored := rng.Intn(3) == 0, rng.Intn(2) == 0
		l := rng.Intn(len(got))
		switch op := rng.Intn(100); {
		case op < 55:
			r, w := h.Access(a, size, write, sectored), ref.Access(a, size, write, sectored)
			if r.HitLevel != w.HitLevel {
				t.Fatalf("step %d access %#x+%d: hit level %d, reference %d",
					step, a, size, r.HitLevel, w.HitLevel)
			}
			sameOps(step, "access", r.MemOps, w.MemOps)
		case op < 75:
			// A group fill of 1-8 lines against the reference's one
			// FillLine per line, whose ops are copied out of its scratch.
			fills = fills[:0]
			refOps = refOps[:0]
			for range 1 + rng.Intn(8) {
				f := LineFill{
					LineAddr: regions[rng.Intn(len(regions))] + uint64(rng.Intn(1<<13))&^(lineBytes-1),
					Sectors:  1 + uint64(rng.Int63n(int64(full))),
				}
				fills = append(fills, f)
				refOps = append(refOps, ref.FillLine(f.LineAddr, f.Sectors, sectored)...)
			}
			sameOps(step, "fill lines", h.FillLines(fills, sectored), refOps)
		case op < 80:
			ev, ok := got[l].fill(got[l].lookup(a), mask, write, sectored)
			wev, wok := want[l].Fill(a, mask, write, sectored)
			if ev != wev || ok != wok {
				t.Fatalf("step %d L%d fill %#x: %+v %v, reference %+v %v", step, l+1, a, ev, ok, wev, wok)
			}
		case op < 85:
			_, o := got[l].access(a, size, write)
			if w := want[l].Access(a, size, write); o != w {
				t.Fatalf("step %d L%d access %#x+%d: %v, reference %v", step, l+1, a, size, o, w)
			}
		case op < 96:
			if o, w := contains(got[l], a, size), want[l].Contains(a, size); o != w {
				t.Fatalf("step %d L%d contains %#x+%d: %v, reference %v", step, l+1, a, size, o, w)
			}
		default:
			sameOps(step, "flush", h.FlushDirty(), ref.FlushDirty())
		}
		for i := range got {
			if got[i].Stats != want[i].Stats {
				t.Fatalf("step %d L%d stats %+v, reference %+v", step, i+1, got[i].Stats, want[i].Stats)
			}
		}
	}
	sameOps(-1, "final flush", h.FlushDirty(), ref.FlushDirty())
}

package sim

import (
	"testing"

	"sam/internal/design"
	"sam/internal/imdb"
)

// TestStridedReadsZeroAllocs pins the per-access data plane of a warm
// system at zero allocations: strided field reads (hits, and misses that
// build the gather, fill its sibling lines and go through the controller)
// and whole-record reads. The caches are shrunk below the table so every
// sweep misses as well as hits; the first sweep warms the lazily grown
// cache sets, and the measured sweeps must then reuse the hierarchy's
// MemOp buffer, the placer's gather and transaction scratch, the streamed
// log's chunk and the controller's queues. Each sweep ends by decoding
// the partial chunk, as RunPlan does, so every request it issued reaches
// the controller inside the measured region.
func TestStridedReadsZeroAllocs(t *testing.T) {
	s := NewSystem(design.New(design.SAMEn, design.Options{}))
	s.Caches = CacheParams{L1Bytes: 4 << 10, L2Bytes: 8 << 10, LLCBytes: 32 << 10, Ways: 8}
	s.reset()
	const records = 2048 // 256KB of Tb: eight times the LLC
	s.AddTable(imdb.NewTable(imdb.Tb(records), 0x5EED), false)
	pl := s.placers["Tb"]
	b := newBackEnd(s)
	l := s.streamLog(&b)
	e := newLogEngine(s, l)

	fields := func() {
		for _, f := range []int{imdb.PredicateField, 9} {
			for rec := 0; rec < records; rec++ {
				e.do(pl.ReadField(rec, f))
			}
		}
		l.flush()
	}
	rows := func() {
		for rec := 0; rec < records; rec += 7 {
			e.doAll(pl.ReadRecord(rec))
		}
		l.flush()
	}
	for _, c := range []struct {
		name     string
		sweep    func()
		wantHits bool
	}{
		{"strided fields", fields, true},
		{"records", rows, false},
	} {
		c.sweep() // warm: grow every cache set and the scratch buffers once
		l1, llc := s.Hierarchy.Level(0), s.Hierarchy.LLC()
		hits, misses := l1.Stats.Hits, llc.Stats.Misses
		reads := s.ChannelController(0).Stats.Reads
		if allocs := testing.AllocsPerRun(3, c.sweep); allocs != 0 {
			t.Errorf("%s: %.1f allocs per sweep, want 0", c.name, allocs)
		}
		if llc.Stats.Misses == misses || s.ChannelController(0).Stats.Reads == reads {
			t.Errorf("%s: the measured sweeps never missed to memory", c.name)
		}
		if c.wantHits && l1.Stats.Hits == hits {
			t.Errorf("%s: the measured sweeps never hit", c.name)
		}
	}
}

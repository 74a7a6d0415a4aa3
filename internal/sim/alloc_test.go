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
				e.field(pl, rec, f, false)
			}
		}
		l.flush()
	}
	rows := func() {
		for rec := 0; rec < records; rec += 7 {
			e.record(pl.ReadRecord(rec))
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
		reads := s.controllers[0].Stats.Reads
		if allocs := testing.AllocsPerRun(3, c.sweep); allocs != 0 {
			t.Errorf("%s: %.1f allocs per sweep, want 0", c.name, allocs)
		}
		if llc.Stats.Misses == misses || s.controllers[0].Stats.Reads == reads {
			t.Errorf("%s: the measured sweeps never missed to memory", c.name)
		}
		if c.wantHits && l1.Stats.Hits == hits {
			t.Errorf("%s: the measured sweeps never hit", c.name)
		}
	}
}

// BenchmarkFieldScan times the front end's field-access path alone, in ns
// per field: a warm 4-channel baseline system reads the predicate field
// f10 of every Tb record once per op through engine.field. Tb has
// SmallWorkload's 16Ki records (core.SmallWorkload; sim cannot import
// core), 2 MB that fit in the LLC, so after the untimed warm-up sweep
// every read misses L1 and L2, hits the LLC and refills both — the path of
// a warm HTAP query.
func BenchmarkFieldScan(b *testing.B) {
	const records = 16 << 10
	d := design.New(design.Baseline, design.Options{})
	d.Mem.Geometry.Channels = 4
	s := NewSystem(d)
	s.AddTable(imdb.NewTable(imdb.Tb(records), 0xDA7ABA5E+1), false)
	pl := s.placers["Tb"]
	be := newBackEnd(s)
	l := s.streamLog(&be)
	e := newLogEngine(s, l)
	sweep := func() {
		for rec := 0; rec < records; rec++ {
			e.field(pl, rec, imdb.PredicateField, false)
		}
		l.flush()
	}
	sweep()
	llc := s.Hierarchy.LLC()
	misses := llc.Stats.Misses
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
	b.StopTimer()
	if llc.Stats.Misses != misses {
		b.Fatalf("warm sweeps missed the LLC %d times", llc.Stats.Misses-misses)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/field")
}

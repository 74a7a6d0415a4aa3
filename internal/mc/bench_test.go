package mc

import (
	"math/rand"
	"testing"

	"sam/internal/dram"
)

// benchStream pre-generates a request mix with realistic row locality:
// runs of row hits interleaved with conflicts, ~25% writes (enough to trip
// the drain watermarks), and ~20% strided requests. Arrival times are
// stamped at enqueue so the queue always has arrived work.
func benchStream(n int) []Request {
	rng := rand.New(rand.NewSource(0xBE7C4))
	m := NewAddrMap(dram.DDR4_2400().Geometry)
	reqs := make([]Request, n)
	base := m.Decode(uint64(rng.Intn(1 << 28)))
	for i := range reqs {
		var addr uint64
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // row-local
			co := base
			co.Col = rng.Intn(m.geo.LinesPerRow())
			addr = m.Encode(co)
		case 6: // conflict in the same bank
			co := base
			co.Row = rng.Intn(1 << 12)
			addr = m.Encode(co)
		case 7: // move the locality window
			base = m.Decode(uint64(rng.Intn(1 << 28)))
			addr = m.Encode(base)
		default:
			addr = uint64(rng.Intn(1 << 28))
		}
		reqs[i] = Request{ID: uint64(i), Addr: addr, IsWrite: rng.Intn(4) == 0}
		if rng.Intn(5) == 0 {
			reqs[i].Stride = true
			reqs[i].Lane = rng.Intn(4)
		}
	}
	return reqs
}

// benchServiceLoop drives a scheduler through reqs at steady-state queue
// depth: prefill to ~depth, then one enqueue + one service per iteration.
func benchServiceLoop(b *testing.B, s scheduler, depth int, reqs []Request) {
	j := 0
	var comp Completion
	next := func() Request {
		r := reqs[j%len(reqs)]
		j++
		r.Arrival = s.Now()
		return r
	}
	for i := 0; i < depth; i++ {
		r := next()
		if !s.CanAccept(r.IsWrite) {
			s.ServiceOne(&comp)
		}
		if s.CanAccept(r.IsWrite) {
			s.Enqueue(r)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := next()
		for !s.CanAccept(r.IsWrite) {
			s.ServiceOne(&comp)
		}
		s.Enqueue(r)
		s.ServiceOne(&comp)
	}
}

// BenchmarkControllerServiceOne measures the decode-once scheduler's
// steady-state service cost at a deep queue. The acceptance bar is >= 3x
// over BenchmarkControllerServiceOneReference with 0 allocs/op.
func BenchmarkControllerServiceOne(b *testing.B) {
	c := NewController(dram.NewDevice(dram.DDR4_2400()), DefaultConfig())
	benchServiceLoop(b, c, 48, benchStream(4096))
}

// BenchmarkControllerServiceOneReference is the same loop on the frozen
// pre-optimization scheduler — the denominator of the speedup claim.
func BenchmarkControllerServiceOneReference(b *testing.B) {
	c := newReferenceController(dram.NewDevice(dram.DDR4_2400()), DefaultConfig())
	benchServiceLoop(b, c, 48, benchStream(4096))
}

// prepareAheadStream is the bank-heavy mix the preparation pass is built
// for: requests dealt over all 64 DDR5 banks, a few rows per bank.
func prepareAheadStream() []Request {
	m := NewAddrMap(dram.DDR5_4800().Geometry)
	return bankSpreadStream(rand.New(rand.NewSource(0x9E9A)), m, 4096, false)
}

// BenchmarkControllerPrepareAhead measures ServiceOne where bank
// preparation dominates: a deep queue (80 of 96 slots) spread over dozens
// of occupied banks, every entry arrived. Compare with
// BenchmarkControllerPrepareAheadReference, the frozen linear walk.
func BenchmarkControllerPrepareAhead(b *testing.B) {
	c := NewController(dram.NewDevice(dram.DDR5_4800()), DefaultConfig())
	benchServiceLoop(b, c, 80, prepareAheadStream())
}

// BenchmarkControllerPrepareAheadReference is the same loop on the frozen
// reference scheduler.
func BenchmarkControllerPrepareAheadReference(b *testing.B) {
	c := newReferenceController(dram.NewDevice(dram.DDR5_4800()), DefaultConfig())
	benchServiceLoop(b, c, 80, prepareAheadStream())
}

// BenchmarkControllerEnqueue isolates the enqueue path (one decode, no
// allocation) at a shallow standing queue.
func BenchmarkControllerEnqueue(b *testing.B) {
	c := NewController(dram.NewDevice(dram.DDR4_2400()), DefaultConfig())
	reqs := benchStream(4096)
	var comp Completion
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := reqs[i%len(reqs)]
		r.Arrival = c.Now()
		for !c.CanAccept(r.IsWrite) {
			c.ServiceOne(&comp)
		}
		c.Enqueue(r)
		if c.Pending() > 8 {
			c.ServiceOne(&comp)
		}
	}
}

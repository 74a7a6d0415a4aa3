package mc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sam/internal/dram"
)

// qOrder walks the arrival-order list and returns the request IDs.
func qOrder(q *reqQueue) []uint64 {
	var ids []uint64
	for i := q.head; i != nilSlot; i = q.slots[i].next {
		ids = append(ids, q.slots[i].req.ID)
	}
	return ids
}

// qBank walks one bank's pending list and returns the request IDs as a set.
func qBank(q *reqQueue, bank int) map[uint64]bool {
	ids := make(map[uint64]bool)
	for i := q.bankHead[bank]; i != nilSlot; i = q.slots[i].bankNext {
		ids[q.slots[i].req.ID] = true
	}
	return ids
}

func TestReqQueueOrderAndBankIndex(t *testing.T) {
	// Model-based check: against a plain slice model, the queue must keep
	// enqueue order under arbitrary interleaved removals, and each bank
	// list must hold exactly the pending requests of that bank.
	rng := rand.New(rand.NewSource(99))
	const banks = 8
	q := newReqQueue(16, banks)
	type modelEntry struct {
		id   uint64
		bank int32
	}
	var model []modelEntry
	var nextID uint64
	for step := 0; step < 5000; step++ {
		if q.n != len(model) {
			t.Fatalf("step %d: n=%d model=%d", step, q.n, len(model))
		}
		if q.n < 16 && (q.n == 0 || rng.Intn(2) == 0) {
			bank := int32(rng.Intn(banks))
			push(&q, Request{ID: nextID}, Coord{}, bank, nextID)
			model = append(model, modelEntry{nextID, bank})
			nextID++
		} else {
			// Remove a random live entry by walking to the k-th slot.
			k := rng.Intn(len(model))
			slot := q.head
			for j := 0; j < k; j++ {
				slot = q.slots[slot].next
			}
			if q.slots[slot].req.ID != model[k].id {
				t.Fatalf("step %d: order diverged at %d: %d vs %d", step, k, q.slots[slot].req.ID, model[k].id)
			}
			q.remove(slot)
			model = append(model[:k], model[k+1:]...)
		}
		// Full order check.
		ids := qOrder(&q)
		if len(ids) != len(model) {
			t.Fatalf("step %d: order length %d, want %d", step, len(ids), len(model))
		}
		for i, id := range ids {
			if id != model[i].id {
				t.Fatalf("step %d: order[%d]=%d, want %d", step, i, id, model[i].id)
			}
		}
		// Bank list check.
		for b := 0; b < banks; b++ {
			got := qBank(&q, b)
			want := make(map[uint64]bool)
			for _, e := range model {
				if e.bank == int32(b) {
					want[e.id] = true
				}
			}
			if len(got) != len(want) {
				t.Fatalf("step %d bank %d: %v vs %v", step, b, got, want)
			}
			for id := range want {
				if !got[id] {
					t.Fatalf("step %d bank %d: missing %d", step, b, id)
				}
			}
		}
	}
}

func TestReqQueueCapacityReuse(t *testing.T) {
	// Fill/drain cycles must recycle the same slots without growth.
	q := newReqQueue(4, 2)
	for round := 0; round < 100; round++ {
		for i := 0; i < 4; i++ {
			push(&q, Request{ID: uint64(i)}, Coord{}, int32(i%2), uint64(i))
		}
		if q.n != 4 {
			t.Fatalf("n=%d", q.n)
		}
		// Remove out of order: middle, head, tail, last.
		order := qOrder(&q)
		_ = order
		q.remove(q.slots[q.head].next) // second
		q.remove(q.head)
		q.remove(q.tail)
		q.remove(q.head)
		if q.n != 0 || q.head != nilSlot || q.tail != nilSlot {
			t.Fatalf("round %d: queue not empty: n=%d head=%d tail=%d", round, q.n, q.head, q.tail)
		}
	}
}

func TestReqQueueOverflowPanics(t *testing.T) {
	q := newReqQueue(2, 1)
	push(&q, Request{}, Coord{}, 0, 0)
	push(&q, Request{}, Coord{}, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("overflow accepted")
		}
	}()
	push(&q, Request{}, Coord{}, 0, 2)
}

func TestAddrMapChannelAgreesWithDecode(t *testing.T) {
	geo := dram.DDR4_2400().Geometry
	geo.Channels = 4
	m := NewAddrMap(geo)
	f := func(addr uint64) bool {
		addr &= 1<<33 - 1
		return m.Channel(addr) == m.Decode(addr).Channel
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestEnqueueDecodesOnce pins the decode-once property structurally: the
// entry stored at Enqueue must carry the same coordinates and flat bank
// index the amap/device would produce on demand.
func TestEnqueueDecodesOnce(t *testing.T) {
	dev := dram.NewDevice(dram.DDR4_2400())
	c := NewController(dev, DefaultConfig())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		addr := uint64(rng.Intn(1 << 28))
		c.Enqueue(Request{ID: uint64(i), Addr: addr, IsWrite: i%2 == 0})
		q := &c.readQ
		if i%2 == 0 {
			q = &c.writeQ
		}
		e := &q.slots[q.tail]
		if want := c.AddrMap().Decode(addr); e.co != want {
			t.Fatalf("stored coord %+v, want %+v", e.co, want)
		}
		if want := dev.BankIndex(e.co.Rank, e.co.Group, e.co.Bank); int(e.bank) != want {
			t.Fatalf("stored bank %d, want %d", e.bank, want)
		}
		if c.Pending() > 16 {
			serviceOne(c)
			serviceOne(c)
		}
	}
}

// push enqueues a decoded request the way Enqueue does: take a slot, fill
// it in place, link it.
func push(q *reqQueue, req Request, co Coord, bank int32, seq uint64) {
	i := q.take()
	e := &q.slots[i]
	e.req, e.co, e.bank, e.seq = req, co, bank, seq
	q.link(i)
}

package mc

import "sam/internal/dram"

// This file holds the controller's scheduling data structure: a
// fixed-capacity pool of value-typed queue entries threaded by two
// intrusive doubly-linked lists — arrival (enqueue) order for the FR-FCFS
// scans, and a per-bank pending list for row-hit selection and open-row
// conflict checks. Each request's address is decoded exactly once, at
// Enqueue; the service loop never allocates and never re-decodes.
//
// Dequeue-by-index is O(1) (unlink from both lists, slot returns to the
// freelist) and preserves the relative order of the remaining entries, so
// FR-FCFS tie-breaking ("first enqueued wins among equal arrivals") is
// byte-identical to the old slice-shift implementation — the differential
// test in differential_test.go enforces this against the frozen reference
// scheduler.

// nilSlot terminates the intrusive lists.
const nilSlot = int32(-1)

// entry is one queued request with its DRAM coordinates decoded once.
type entry struct {
	req  Request
	co   Coord
	bank int32  // flat Device.BankIndex of co
	seq  uint64 // enqueue order; breaks arrival ties like queue position did

	// Arrival-order list (the queue proper).
	prev, next int32
	// Per-bank pending list (unordered; selection compares (Arrival, seq)).
	bankPrev, bankNext int32
}

// reqQueue is the fixed-capacity slot pool plus its list heads. The zero
// value is not usable; call newReqQueue.
type reqQueue struct {
	slots    []entry
	bankHead []int32 // per flat bank index, head of the pending list
	bankTail []int32 // per flat bank index, tail (newest-enqueued entry)
	free     int32   // freelist threaded through entry.next
	head     int32   // oldest-enqueued live entry
	tail     int32   // newest-enqueued live entry
	n        int     // live entries
	// sorted tracks whether every push since the queue was last empty had
	// a nondecreasing Arrival. While it holds (always, for the engine's
	// monotone compute clock), the head IS the FR-FCFS "oldest arrived,
	// earliest enqueued" pick and the O(n) aging scan is skipped.
	sorted      bool
	lastArrival dram.Cycle
	// Occupied-bank index: occBanks lists the banks with a nonempty
	// pending list (unordered, swap-removed), bankPos is each bank's
	// position in it (-1 when empty). The FR-FCFS hit scan walks occBanks
	// instead of every flat bank index; its pick is order-independent (a
	// strict (Arrival, seq) total order), so the walk order doesn't matter.
	occBanks []int32
	bankPos  []int32
}

// newReqQueue builds a queue for `capacity` requests over `banks` flat
// bank indices. Both allocations happen here, once per controller; the
// queue never grows or allocates afterwards.
func newReqQueue(capacity, banks int) reqQueue {
	q := reqQueue{
		slots:    make([]entry, capacity),
		bankHead: make([]int32, banks),
		head:     nilSlot,
		tail:     nilSlot,
		sorted:   true,
		occBanks: make([]int32, 0, banks),
		bankPos:  make([]int32, banks),
		bankTail: make([]int32, banks),
	}
	for i := range q.slots {
		q.slots[i].next = int32(i) + 1
	}
	q.slots[capacity-1].next = nilSlot
	for b := range q.bankHead {
		q.bankHead[b] = nilSlot
		q.bankTail[b] = nilSlot
		q.bankPos[b] = nilSlot
	}
	return q
}

// take pops a free slot for Enqueue to fill (req, co, bank, seq) in place
// before link. Callers must respect capacity (Controller.CanAccept).
func (q *reqQueue) take() int32 {
	i := q.free
	if i == nilSlot {
		panic("mc: reqQueue overflow")
	}
	q.free = q.slots[i].next
	return i
}

// link appends the filled slot i at the queue tail and indexes it under its
// bank (at the bank list's tail, so bank lists share the queue's enqueue —
// and, while sorted, arrival — order).
func (q *reqQueue) link(i int32) {
	e := &q.slots[i]
	if q.n > 0 && e.req.Arrival < q.lastArrival {
		q.sorted = false
	}
	q.lastArrival = e.req.Arrival
	bank := e.bank
	e.prev, e.next = q.tail, nilSlot
	e.bankPrev, e.bankNext = q.bankTail[bank], nilSlot
	if q.tail != nilSlot {
		q.slots[q.tail].next = i
	} else {
		q.head = i
	}
	q.tail = i
	if pv := e.bankPrev; pv != nilSlot {
		q.slots[pv].bankNext = i
	} else {
		q.bankHead[bank] = i
		q.bankPos[bank] = int32(len(q.occBanks))
		q.occBanks = append(q.occBanks, bank)
	}
	q.bankTail[bank] = i
	q.n++
}

// remove unlinks slot i from both lists and returns it to the freelist.
func (q *reqQueue) remove(i int32) {
	e := &q.slots[i]
	if e.prev != nilSlot {
		q.slots[e.prev].next = e.next
	} else {
		q.head = e.next
	}
	if e.next != nilSlot {
		q.slots[e.next].prev = e.prev
	} else {
		q.tail = e.prev
	}
	if e.bankPrev != nilSlot {
		q.slots[e.bankPrev].bankNext = e.bankNext
	} else {
		q.bankHead[e.bank] = e.bankNext
		if e.bankNext == nilSlot {
			// Bank emptied: swap-remove it from the occupied list.
			pos := q.bankPos[e.bank]
			last := int32(len(q.occBanks) - 1)
			moved := q.occBanks[last]
			q.occBanks[pos] = moved
			q.bankPos[moved] = pos
			q.occBanks = q.occBanks[:last]
			q.bankPos[e.bank] = nilSlot
		}
	}
	if e.bankNext != nilSlot {
		q.slots[e.bankNext].bankPrev = e.bankPrev
	} else {
		q.bankTail[e.bank] = e.bankPrev
	}
	e.next = q.free
	q.free = i
	q.n--
	if q.n == 0 {
		q.sorted = true
	}
}

// arrivedWantsRow reports whether an entry of bank that has arrived by now
// targets row. Only the bank's pending list is walked.
func (q *reqQueue) arrivedWantsRow(bank int32, row int, now dram.Cycle) bool {
	for i := q.bankHead[bank]; i != nilSlot; i = q.slots[i].bankNext {
		e := &q.slots[i]
		if e.req.Arrival > now {
			if q.sorted {
				break
			}
			continue
		}
		if e.co.Row == row {
			return true
		}
	}
	return false
}

// Package mc implements the memory controller: physical address mapping,
// the FR-FCFS open-page command scheduler with a drained write queue, and
// refresh management — the controller personality Table 2 of the paper
// specifies (open-page, FR-FCFS, 32-entry write queue, rw:rk:bk:ch:cl:offset
// mapping).
package mc

import (
	"fmt"
	"math/bits"

	"sam/internal/dram"
)

// AddrMap translates flat physical addresses to DRAM coordinates in the
// paper's rw:rk:bk:ch:cl:offset order (row in the most significant bits,
// byte offset in the least): consecutive cachelines walk the columns of
// one row.
type AddrMap struct {
	geo dram.Geometry

	// groupBits are the low bits of the bankBits-wide bank field.
	offBits, colBits, chBits, bankBits, groupBits, rankBits int
}

// NewAddrMap builds the mapping; it panics when a field is not a power of
// two (hardware address decoding requires it).
func NewAddrMap(geo dram.Geometry) *AddrMap {
	log2 := func(v int, what string) int {
		if v <= 0 || v&(v-1) != 0 {
			panic(fmt.Sprintf("mc: %s = %d is not a power of two", what, v))
		}
		return bits.TrailingZeros(uint(v))
	}
	return &AddrMap{
		geo:       geo,
		offBits:   log2(geo.LineBytes, "line bytes"),
		colBits:   log2(geo.LinesPerRow(), "lines per row"),
		chBits:    log2(geo.Channels, "channels"),
		bankBits:  log2(geo.Banks(), "banks per rank"),
		groupBits: log2(geo.BankGroups, "bank groups"),
		rankBits:  log2(geo.Ranks, "ranks"),
	}
}

// Coord is a fully decoded DRAM location.
type Coord struct {
	Channel int
	Rank    int
	Group   int
	Bank    int
	Row     int
	Col     int // cacheline column within the row
	Offset  int // byte offset within the line
}

// decode splits a physical address into DRAM coordinates, written into
// caller-owned storage: Enqueue decodes straight into the request's queue
// slot. The bank field holds Bank*BankGroups + Group, and BankGroups is a
// power of two (it divides the power-of-two bank count), so the split is
// a mask and a shift.
func (m *AddrMap) decode(addr uint64, c *Coord) {
	take := func(n int) int {
		v := addr & (1<<uint(n) - 1)
		addr >>= uint(n)
		return int(v)
	}
	c.Offset = take(m.offBits)
	c.Col = take(m.colBits)
	c.Channel = take(m.chBits)
	c.Group = take(m.groupBits)
	c.Bank = take(m.bankBits - m.groupBits)
	c.Rank = take(m.rankBits)
	c.Row = int(addr)
}

// Channel extracts just the channel field of addr without a full decode —
// the per-request routing lookup the simulator performs on every enqueue.
func (m *AddrMap) Channel(addr uint64) int {
	shift := m.offBits + m.colBits
	return int((addr >> uint(shift)) & (1<<uint(m.chBits) - 1))
}

// BankRowShifts returns the bit positions of the bank and row fields. The
// bank field holds the per-channel bank index rank-major (Rank*Banks +
// Bank*BankGroups + Group), so on channel 0 byte b of that bank's row r
// encodes to r<<row | bank<<bank | b.
func (m *AddrMap) BankRowShifts() (bank, row uint) {
	bank = uint(m.offBits + m.colBits + m.chBits)
	return bank, bank + uint(m.bankBits+m.rankBits)
}

package design

import (
	"math/bits"
	"testing"
	"testing/quick"

	"sam/internal/imdb"
	"sam/internal/mc"
)

func taPlacer(kind Kind, records int) *Placer {
	return NewPlacer(New(kind, Options{}), imdb.Ta(records), 0, false)
}

// fieldAddr is the address of field of record rec under p.
func fieldAddr(p *Placer, rec, field int) uint64 {
	addr, _ := p.Field(rec, field)
	return addr
}

func TestSeqLayoutAddresses(t *testing.T) {
	p := taPlacer(Baseline, 1024)
	if a := fieldAddr(p, 0, 0); a != 0 {
		t.Fatalf("record 0 field 0 at %x", a)
	}
	if a := fieldAddr(p, 2, 3); a != 2*1024+24 {
		t.Fatalf("record 2 field 3 at %x, want %x", a, 2*1024+24)
	}
}

func TestSeqLayoutInjective(t *testing.T) {
	p := taPlacer(Baseline, 256)
	seen := map[uint64]bool{}
	for r := 0; r < 256; r++ {
		for f := 0; f < 128; f += 7 {
			a := fieldAddr(p, r, f)
			if seen[a] {
				t.Fatalf("address collision at rec %d field %d", r, f)
			}
			seen[a] = true
		}
	}
}

func TestColStoreLayout(t *testing.T) {
	d := New(Ideal, Options{})
	p := NewPlacer(d, imdb.Ta(1024), 0, true)
	// Same field of consecutive records is contiguous.
	a0 := fieldAddr(p, 0, 5)
	a1 := fieldAddr(p, 1, 5)
	if a1-a0 != imdb.FieldBytes {
		t.Fatalf("column store stride = %d, want %d", a1-a0, imdb.FieldBytes)
	}
	// Different fields are a full column apart.
	b := fieldAddr(p, 0, 6)
	if b-a0 != 1024*imdb.FieldBytes {
		t.Fatalf("column gap = %d", b-a0)
	}
}

func TestSlotSeparation(t *testing.T) {
	d := New(Baseline, Options{})
	p0 := NewPlacer(d, imdb.Ta(1024), 0, false)
	p1 := NewPlacer(d, imdb.Tb(1024), 1, false)
	if fieldAddr(p0, 1023, 127) >= fieldAddr(p1, 0, 0) {
		t.Fatal("table slots overlap")
	}
}

func TestStrideGroupConsecutiveForIOBufferDesigns(t *testing.T) {
	p := taPlacer(SAMEn, 1024)
	for _, rec := range []int{0, 5, 9, 1000} {
		members := p.appendGroupMembers(nil, rec)
		if len(members) != 8 {
			t.Fatalf("rec %d: group size %d, want reach 8", rec, len(members))
		}
		first := (rec / 8) * 8
		for i, m := range members {
			if m != first+i {
				t.Fatalf("rec %d: member %d = %d, want %d", rec, i, m, first+i)
			}
		}
	}
}

func TestStrideGroupCoversRequester(t *testing.T) {
	// Whatever the design, the group gathered for rec must include rec —
	// otherwise the fetch would not satisfy the miss.
	for _, kind := range []Kind{SAMEn, SAMSub, GSDRAM, RCNVMWd} {
		p := taPlacer(kind, 4096)
		f := func(rec uint16) bool {
			r := int(rec) % 4096
			for _, m := range p.appendGroupMembers(nil, r) {
				if m == r {
					return true
				}
			}
			return false
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%v: %v", kind, err)
		}
	}
}

func TestStrideGroupsPartitionRecords(t *testing.T) {
	// Group membership is an equivalence relation: every record belongs to
	// exactly one group, and all members agree on the group.
	for _, kind := range []Kind{SAMEn, SAMSub, RCNVMWd} {
		p := taPlacer(kind, 512)
		for rec := 0; rec < 512; rec += 13 {
			members := p.appendGroupMembers(nil, rec)
			for _, m := range members {
				again := p.appendGroupMembers(nil, m)
				if len(again) != len(members) {
					t.Fatalf("%v: asymmetric group size at %d/%d", kind, rec, m)
				}
				for i := range members {
					if again[i] != members[i] {
						t.Fatalf("%v: group differs between members %d and %d", kind, rec, m)
					}
				}
			}
		}
	}
}

func TestStrideGroupFillsMatchSectors(t *testing.T) {
	p := taPlacer(SAMEn, 1024)
	if _, gathers := p.Field(16, 10); !gathers { // f10: byte 80 of the record
		t.Fatal("strided design should gather field misses")
	}
	// All 8 members' f10 sectors must be covered by the fills.
	covered := map[uint64]uint64{}
	for _, f := range p.Gather(16, 10).Fills {
		covered[f.LineAddr] |= f.Sectors
	}
	for _, m := range p.appendGroupMembers(nil, 16) {
		addr := p.canonAddr(m, 10)
		line := p.lineOf(addr)
		bit := p.sectorBit(addr)
		if covered[line]&bit == 0 {
			t.Fatalf("member %d's f10 sector not filled", m)
		}
	}
}

func TestStrideGroupDegeneratesForTinyRecords(t *testing.T) {
	// 8B records: the whole group lives in one cacheline; the fetch is one
	// line's worth of sectors.
	d := New(SAMEn, Options{})
	p := NewPlacer(d, imdb.Schema{Name: "T", Fields: 1, Records: 256}, 0, false)
	g := p.Gather(0, 0)
	if len(g.Fills) != 1 {
		t.Fatalf("tiny records: %d fills, want 1", len(g.Fills))
	}
	if g.Fills[0].Sectors != 0xFF {
		t.Fatalf("tiny records: sector mask %x, want all 8", g.Fills[0].Sectors)
	}
}

// bankRow reads an address's rank-major bank index and its row through
// the map's field positions, which TestAddrMapBankRowShifts pins.
func bankRow(am *mc.AddrMap, addr uint64) (bank, row int) {
	bankShift, rowShift := am.BankRowShifts()
	return int(addr>>bankShift) & (1<<(rowShift-bankShift) - 1), int(addr >> rowShift)
}

func TestStripeLayoutRowSwitchCadence(t *testing.T) {
	// Column-engine layouts switch DRAM rows every ChunkRecords records —
	// the Qs penalty knob. Verify via decoded coordinates.
	d := New(SAMSub, Options{})
	p := NewPlacer(d, imdb.Tb(4096), 0, false)
	am := mc.NewAddrMap(d.Mem.Geometry)
	chunk := d.ChunkRecords
	_, prev := bankRow(am, fieldAddr(p, 0, 0))
	switches := 0
	for rec := 1; rec < 256; rec++ {
		_, row := bankRow(am, fieldAddr(p, rec, 0))
		if row != prev {
			switches++
			if rec%chunk != 0 {
				t.Fatalf("row switch at record %d, not a multiple of chunk %d", rec, chunk)
			}
		}
		prev = row
	}
	if switches == 0 {
		t.Fatal("no row switches observed in stripe layout")
	}
}

func TestStripeLayoutSameBankWithinStripe(t *testing.T) {
	d := New(RCNVMWd, Options{})
	p := NewPlacer(d, imdb.Tb(4096), 0, false)
	am := mc.NewAddrMap(d.Mem.Geometry)
	// All records of one stripe share a bank (the paper's "multiple rows in
	// the same bank").
	first, _ := bankRow(am, fieldAddr(p, 0, 0))
	for rec := 1; rec < p.recordsPerStripe && rec < 4096; rec++ {
		if bank, _ := bankRow(am, fieldAddr(p, rec, 0)); bank != first {
			t.Fatalf("record %d left the stripe bank", rec)
		}
	}
}

func TestStripeColumnAddressesDisjointFromRowAddresses(t *testing.T) {
	// The synthetic column-direction rows must never collide with row-wise
	// data rows (they model a second decoder over the same cells).
	d := New(SAMSub, Options{})
	p := NewPlacer(d, imdb.Ta(2048), 0, false)
	am := mc.NewAddrMap(d.Mem.Geometry)
	rowRows := map[int]bool{}
	for rec := 0; rec < 2048; rec += 17 {
		_, row := bankRow(am, fieldAddr(p, rec, 0))
		rowRows[row] = true
	}
	for rec := 0; rec < 2048; rec += 17 {
		if _, gathers := p.Field(rec, 3); !gathers {
			t.Fatal("column engine without group")
		}
		g := p.Gather(rec, 3)
		if _, row := bankRow(am, g.ReqAddr); rowRows[row] {
			t.Fatalf("column-direction row collides with data row at rec %d", rec)
		}
	}
}

func TestStripeFieldSwitchChangesColumnRow(t *testing.T) {
	// Fields in different record lines must map to different column-
	// direction rows (the RC-NVM field-switch penalty); fields in the same
	// line share one.
	d := New(RCNVMWd, Options{})
	p := NewPlacer(d, imdb.Ta(2048), 0, false)
	am := mc.NewAddrMap(d.Mem.Geometry)
	rowOf := func(field int) int {
		_, row := bankRow(am, p.Gather(64, field).ReqAddr)
		return row
	}
	if rowOf(3) != rowOf(4) {
		t.Fatal("f3 and f4 share a record line; their gathers should share a column row")
	}
	if rowOf(3) == rowOf(10) {
		t.Fatal("f3 and f10 live in different record lines; gathers must differ")
	}
}

func TestRecordTxnsCoverWholeRecord(t *testing.T) {
	for _, kind := range []Kind{Baseline, SAMEn, RCNVMWd} {
		p := taPlacer(kind, 256)
		txns := p.ReadRecord(7)
		total := 0
		for _, txn := range txns {
			if txn.Write {
				t.Fatalf("%v: read record produced a write", kind)
			}
			total += txn.Size
		}
		if total != 1024 {
			t.Fatalf("%v: record txns cover %dB, want 1024", kind, total)
		}
	}
}

func TestRecordTxnsColumnStoreScatters(t *testing.T) {
	d := New(Ideal, Options{})
	p := NewPlacer(d, imdb.Ta(1024), 0, true)
	txns := p.ReadRecord(3)
	if len(txns) != 128 {
		t.Fatalf("column-store record read has %d txns, want one per field", len(txns))
	}
}

func TestWriteRecordMarksWrites(t *testing.T) {
	p := taPlacer(Baseline, 64)
	for _, txn := range p.WriteRecord(1) {
		if !txn.Write {
			t.Fatal("write record produced a read txn")
		}
	}
}

func TestLaneAssignment(t *testing.T) {
	p := taPlacer(SAMEn, 64)
	// Lane is derived from the sector index; different sectors of a line
	// should spread over the four Sx4_n modes.
	lanes := map[int]bool{}
	for f := 0; f < 8; f++ {
		lanes[p.Gather(0, f).Lane] = true
	}
	if len(lanes) < 2 {
		t.Fatalf("lane assignment degenerate: %v", lanes)
	}
	for l := range lanes {
		if l < 0 || l > 3 {
			t.Fatalf("lane %d out of Sx4 range", l)
		}
	}
}

func TestOversizeRecordPanics(t *testing.T) {
	d := New(Baseline, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("record larger than a row accepted")
		}
	}()
	NewPlacer(d, imdb.Schema{Name: "huge", Fields: 4096, Records: 4}, 0, false)
}

func TestSubFieldSplitBursts(t *testing.T) {
	bit := taPlacer(RCNVMBit, 256)
	wd := taPlacer(RCNVMWd, 256)
	if bit.Gather(0, 3).Bursts != 2*wd.Gather(0, 3).Bursts {
		t.Fatal("RC-NVM-bit should need twice the column bursts per gather")
	}
}

// fig10Swap is a test-only copy of the Fig. 10 stride-mode bit swap of
// Section 5.2: the log2(reach) line-index bits above the sector-index bits
// of an address trade places with them, so the same-offset sectors of reach
// group-aligned lines land side by side in one line.
func fig10Swap(addr uint64, sectorBytes, reach, lineBytes int) uint64 {
	secSize := uint(bits.TrailingZeros(uint(sectorBytes)))
	secBits := uint(bits.TrailingZeros(uint(lineBytes / sectorBytes)))
	reachBits := uint(bits.TrailingZeros(uint(reach)))
	low := addr & (1<<secSize - 1)
	sector := (addr >> secSize) & (1<<secBits - 1)
	line := (addr >> (secSize + secBits)) & (1<<reachBits - 1)
	out := addr >> (secSize + secBits + reachBits)
	out = out<<secBits | sector
	out = out<<reachBits | line
	return out<<secSize | low
}

// TestGatherAgreesWithDesignLayout checks the cross-layer contract that
// lets an IMDB lay records out for SAM: for line-sized records, the lines
// whose same-offset sectors the Fig. 10 remap packs into one line are
// exactly the lines the design's gather group fills.
func TestGatherAgreesWithDesignLayout(t *testing.T) {
	d := New(SAMEn, Options{})
	schema := imdb.Schema{Name: "T", Fields: 8, Records: 256} // 64B records
	p := NewPlacer(d, schema, 0, false)
	lb, reach := uint64(d.Mem.Geometry.LineBytes), uint64(d.Gran.Reach)
	const field = 5
	for _, rec := range []int{0, 7, 64, 200} {
		if _, gathers := p.Field(rec, field); !gathers {
			t.Fatal("no gather group")
		}
		g := p.Gather(rec, field)
		if len(g.Fills) != int(reach) {
			t.Fatalf("rec %d: design gathers %d lines, the remap packs %d", rec, len(g.Fills), reach)
		}
		lines := map[uint64]bool{}
		for _, f := range g.Fills {
			lines[f.LineAddr] = true
		}
		va := uint64(rec)*lb + field*imdb.FieldBytes
		first := va - va%(reach*lb) + va%lb // same offset in the group's first line
		packed := fig10Swap(first, d.Gran.SectorBytes, d.Gran.Reach, int(lb))
		for i := uint64(0); i < reach; i++ {
			a := first + i*lb
			if !lines[a&^(lb-1)] {
				t.Fatalf("rec %d: the remap packs line %#x the design gather lacks", rec, a&^(lb-1))
			}
			if got, want := fig10Swap(a, d.Gran.SectorBytes, d.Gran.Reach, int(lb)), packed+i*uint64(d.Gran.SectorBytes); got != want {
				t.Fatalf("rec %d: line %d remaps to %#x, want %#x in one line", rec, i, got, want)
			}
		}
	}
}

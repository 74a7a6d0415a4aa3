package design

import (
	"fmt"

	"sam/internal/cache"
	"sam/internal/imdb"
	"sam/internal/mc"
)

// Txn is one line-sized (or smaller) touch of a whole-record read or
// write. Record traffic never gathers, so a miss on a Txn is a plain line
// fill; field accesses go through Field and Gather instead.
type Txn struct {
	Addr  uint64
	Size  int
	Write bool
}

// StrideGroup describes the memory-side strided fetch serving a miss: one
// (or SubFieldSplit) strided burst(s) at ReqAddr that fill the listed
// sectors, plus any embedded-ECC companion traffic.
type StrideGroup struct {
	ReqAddr uint64
	Lane    int
	Gang    bool
	Bursts  int // usually 1; RC-NVM-bit's sub-field gather needs more
	Fills   []cache.LineFill
}

// Placer turns logical (record, field) coordinates into transactions under
// one design's data layout. A Placer is built per (design, table, store).
type Placer struct {
	D      *Design
	Schema imdb.Schema
	// ColStore lays the table out column-major (the ideal design's choice
	// for column-preferring queries).
	ColStore bool

	base      uint64
	lineBytes int
	rowBytes  int
	// Bit positions of the bank and row fields of a channel-0 address
	// (mc.AddrMap.BankRowShifts), so encodeBankRow is shifts alone.
	bankShift, rowShift uint

	// Stripe geometry (column engines).
	recordsPerStripe int
	chunkRecords     int // ChunkRecords, clamped to [1, records per row]
	totalBanks       int
	rowsPerBank      int
	stripeRowBase    int // row-wise rows, per-bank, where this table starts
	colRowBase       int // synthetic column-direction row space

	// live, when bound (BindTable), supplies the table's current record
	// count. Gathers are bounded by it rather than by Schema.Records, so a
	// record appended by INSERT still belongs to a (partial) group; the
	// layouts themselves stay sized by the construction-time Schema.
	live *imdb.Table

	// gathers is whether a miss on a field access is served by a strided
	// gather: the design supports stride and the table is not a column
	// store.
	gathers bool

	// Gather and transaction scratch. Gather builds into scratchGroup and
	// ReadRecord/WriteRecord return scratchTxns, so both are valid only until
	// the next call on this Placer — the engine consumes each synchronously,
	// which is the contract that lets field and record access be
	// allocation-free.
	scratchGroup   StrideGroup
	scratchMembers []int
	scratchTxns    []Txn
}

// slotBytes is the address-space stride between table slots.
const slotBytes = 1 << 30

// NewPlacer builds a placer; it panics on unusable geometry (records larger
// than a DRAM row are outside the paper's design space).
func NewPlacer(d *Design, schema imdb.Schema, slot int, colStore bool) *Placer {
	p := &Placer{
		D:         d,
		Schema:    schema,
		ColStore:  colStore,
		base:      uint64(slot) * slotBytes,
		lineBytes: d.Mem.Geometry.LineBytes,
		rowBytes:  d.Mem.Geometry.RowBytes,
		gathers:   d.SupportsStride() && !colStore,
	}
	p.bankShift, p.rowShift = mc.NewAddrMap(d.Mem.Geometry).BankRowShifts()
	if schema.RecordBytes() > p.rowBytes {
		panic(fmt.Sprintf("design: record %dB exceeds row %dB", schema.RecordBytes(), p.rowBytes))
	}
	if d.ColumnEngine {
		n := d.Gran.Reach
		p.recordsPerStripe = n * p.rowBytes / schema.RecordBytes()
		if p.recordsPerStripe < n {
			p.recordsPerStripe = n
		}
		p.chunkRecords = min(max(d.ChunkRecords, 1), p.rowBytes/schema.RecordBytes())
		p.totalBanks = d.Mem.Geometry.TotalBanks()
		p.rowsPerBank = d.Mem.Geometry.RowsPerBank()
		region := p.rowsPerBank / 8
		p.stripeRowBase = slot * region
		p.colRowBase = p.rowsPerBank/2 + slot*region
	}
	return p
}

// BindTable bounds every later gather by t's live record count. The
// simulator binds each placer to the table it lays out, so inserted records
// gather with their neighbours instead of falling outside every group.
func (p *Placer) BindTable(t *imdb.Table) { p.live = t }

// records is the record count gathers are bounded by.
func (p *Placer) records() int {
	if p.live != nil {
		return p.live.Records()
	}
	return p.Schema.Records
}

// fieldOffset returns the byte offset of a field within its record.
func fieldOffset(field int) int { return field * imdb.FieldBytes }

// seqAddr is the plain row-store address.
func (p *Placer) seqAddr(rec, field int) uint64 {
	return p.base + uint64(rec)*uint64(p.Schema.RecordBytes()) + uint64(fieldOffset(field))
}

// colAddr is the column-store address (field-major).
func (p *Placer) colAddr(rec, field int) uint64 {
	return p.base + (uint64(field)*uint64(p.Schema.Records)+uint64(rec))*imdb.FieldBytes
}

// stripeCoords decomposes a record for the stripe layout of column-engine
// designs (Fig. 11a with RC-NVM's row-scale alignment): a stripe is Reach
// rows of one bank; records fill each row contiguously before moving to the
// next row of the same bank — so row-wise scans conflict at row boundaries
// in one bank, and the column direction gathers the same in-row position
// across the stripe's rows.
// Records are dealt to the stripe's rows in chunks of ChunkRecords, so a
// row-wise scan switches rows (same bank) every chunk; pos is the record's
// position within its row.
func (p *Placer) stripeCoords(rec int) (stripe, rowInStripe, pos int) {
	stripe = rec / p.recordsPerStripe
	r := rec % p.recordsPerStripe
	c := p.chunkRecords
	n := p.D.Gran.Reach
	chunk, off := r/c, r%c
	rowInStripe = chunk % n
	pos = (chunk/n)*c + off
	return stripe, rowInStripe, pos
}

// stripeRowAddr is the row-wise (record-order) address in the stripe
// layout.
func (p *Placer) stripeRowAddr(rec, field int) uint64 {
	stripe, rowInStripe, pos := p.stripeCoords(rec)
	bank := stripe % p.totalBanks
	rowInBank := p.stripeRowBase + (stripe/p.totalBanks)*p.D.Gran.Reach + rowInStripe
	byteInRow := pos*p.Schema.RecordBytes() + fieldOffset(field)
	return p.encodeBankRow(bank, rowInBank, byteInRow)
}

// stripeColAddr is the synthetic column-direction address used for the
// timing of a strided gather: the "row" is (stripe, line-of-record), so
// scanning one field walks columns (row hits) while switching to a field in
// a different record line forces a row conflict in the same bank — the
// field-switch cost of Section 6.2.
func (p *Placer) stripeColAddr(rec, field int) uint64 {
	stripe, _, pos := p.stripeCoords(rec)
	bank := stripe % p.totalBanks
	fieldLine := fieldOffset(field) / p.lineBytes
	linesPerRecord := (p.Schema.RecordBytes() + p.lineBytes - 1) / p.lineBytes
	rowInBank := p.colRowBase + (stripe/p.totalBanks)*linesPerRecord + fieldLine
	byteInRow := (pos * p.lineBytes) % p.rowBytes
	return p.encodeBankRow(bank, rowInBank, byteInRow)
}

// encodeBankRow is the channel-0 address of byte byteInRow of row row in
// the channel's bank-th bank (rank-major).
func (p *Placer) encodeBankRow(bank, row, byteInRow int) uint64 {
	return uint64(row)<<p.rowShift | uint64(bank)<<p.bankShift | uint64(byteInRow)
}

// canonAddr is the CPU-visible address of (rec, field) — what the cache is
// indexed by.
func (p *Placer) canonAddr(rec, field int) uint64 {
	switch {
	case p.ColStore:
		return p.colAddr(rec, field)
	case p.D.ColumnEngine:
		return p.stripeRowAddr(rec, field)
	default:
		return p.seqAddr(rec, field)
	}
}

func (p *Placer) lineOf(addr uint64) uint64 {
	return addr &^ uint64(p.lineBytes-1)
}

func (p *Placer) sectorBit(addr uint64) uint64 {
	off := int(addr) & (p.lineBytes - 1)
	return 1 << uint(off/p.D.Gran.SectorBytes)
}

// appendGroupMembers appends to members the records one strided burst
// gathers along with rec. For I/O-buffer designs that is Reach
// *consecutive* aligned records (Fig. 11a); for column engines it is the
// records at rec's in-row position across the stripe's Reach rows (the
// crossbar's column direction). The hot path passes the placer's member
// scratch, so it does not allocate per access.
func (p *Placer) appendGroupMembers(members []int, rec int) []int {
	n := p.D.Gran.Reach
	records := p.records()
	if !p.D.ColumnEngine {
		first := (rec / n) * n
		for r := first; r < first+n && r < records; r++ {
			members = append(members, r)
		}
		return members
	}
	stripe, _, pos := p.stripeCoords(rec)
	c := p.chunkRecords
	slot, off := pos/c, pos%c
	for row := 0; row < n; row++ {
		chunk := slot*n + row
		r := stripe*p.recordsPerStripe + chunk*c + off
		if r < records {
			members = append(members, r)
		}
	}
	return members
}

// Field returns the CPU-visible address of field of record rec — what the
// cache is indexed by — and whether a miss on it is served by a strided
// gather (Gather) rather than a plain line fill. A field access is
// imdb.FieldBytes wide.
func (p *Placer) Field(rec, field int) (addr uint64, gathers bool) {
	return p.canonAddr(rec, field), p.gathers
}

// Gather builds the strided gather serving a field-access miss of rec's
// alignment group: the same field sector of the group's records in one
// burst. Only a miss reaches memory, so only a miss asks for it, and only
// on a placer whose Field reports that it gathers. The group is the
// placer's scratch, valid until the next Gather call.
func (p *Placer) Gather(rec, field int) *StrideGroup {
	g := &p.scratchGroup
	*g = StrideGroup{
		Lane:   (fieldOffset(field) / p.D.Gran.SectorBytes) % 4,
		Gang:   p.D.Gran.Gang,
		Bursts: p.D.SubFieldSplit,
		Fills:  g.Fills[:0],
	}
	members := p.appendGroupMembers(p.scratchMembers[:0], rec)
	p.scratchMembers = members[:0]
	if p.D.ColumnEngine {
		g.ReqAddr = p.stripeColAddr(members[0], field)
	} else {
		g.ReqAddr = p.seqAddr(members[0], field)
	}
	// Collect the (line, sector) fills, merging records that share a line —
	// a linear scan keeps first-seen order and, with at most Reach members,
	// beats a map without allocating. An I/O-buffer group's members are
	// consecutive records, so each address is the previous one's plus a
	// record.
	addr := g.ReqAddr
	for _, r := range members {
		if p.D.ColumnEngine {
			addr = p.stripeRowAddr(r, field)
		}
		line := p.lineOf(addr)
		merged := false
		for i := range g.Fills {
			if g.Fills[i].LineAddr == line {
				g.Fills[i].Sectors |= p.sectorBit(addr)
				merged = true
				break
			}
		}
		if !merged {
			g.Fills = append(g.Fills, cache.LineFill{LineAddr: line, Sectors: p.sectorBit(addr)})
		}
		addr += uint64(p.Schema.RecordBytes())
	}
	return g
}

// recordTxns covers a whole record line by line (row-wise access).
func (p *Placer) recordTxns(rec int, write bool) []Txn {
	txns := p.scratchTxns[:0]
	if p.ColStore {
		// Column store scatters the record across field columns.
		for f := 0; f < p.Schema.Fields; f++ {
			txns = append(txns, Txn{Addr: p.colAddr(rec, f), Size: imdb.FieldBytes, Write: write})
		}
	} else {
		txns = p.appendLineTxns(txns, p.canonAddr(rec, 0), p.Schema.RecordBytes(), write)
	}
	p.scratchTxns = txns[:0]
	return txns
}

// appendLineTxns appends the line-by-line transactions covering n bytes
// from start.
func (p *Placer) appendLineTxns(txns []Txn, start uint64, n int, write bool) []Txn {
	for off := 0; off < n; {
		addr := start + uint64(off)
		span := p.lineBytes - int(addr)&(p.lineBytes-1)
		if span > n-off {
			span = n - off
		}
		txns = append(txns, Txn{Addr: addr, Size: span, Write: write})
		off += span
	}
	return txns
}

// ReadRecord returns the transactions reading a whole record. The slice is
// the placer's scratch, valid until the next ReadRecord or WriteRecord.
func (p *Placer) ReadRecord(rec int) []Txn { return p.recordTxns(rec, false) }

// WriteRecord returns the transactions writing a whole record (INSERT),
// in the same scratch as ReadRecord.
func (p *Placer) WriteRecord(rec int) []Txn { return p.recordTxns(rec, true) }

package cache

import "fmt"

// MDA implements the multi-dimensional-access cache the paper weighs
// against the sector cache (Section 5.1.1, citing MDACache): strided data
// is cached as dedicated *column lines* — one line holding the same-offset
// sectors of a gather group — in a separate structure from the regular
// row-wise lines. The same bytes can therefore live in both views, and
// keeping them coherent is MDA's known weakness: every write to one view
// must invalidate the overlapping lines of the other.
//
// The paper picks the sector cache because IMDB scans reuse data too
// little for MDA's duplication to pay; this model exists so the trade-off
// is measurable rather than asserted.
type MDA struct {
	rows *Cache // regular row-wise lines
	cols *Cache // column lines, tagged by (group base, sector index)

	lineBytes   int
	sectorBytes int
	reach       int

	Stats MDAStats
}

// MDAStats counts MDA-specific events.
type MDAStats struct {
	RowHits, RowMisses uint64
	ColHits, ColMisses uint64
	// CoherenceInvalidations counts cross-view invalidations on writes —
	// the overhead that motivates the paper's sector-cache choice.
	CoherenceInvalidations uint64
	DuplicatedFills        uint64
}

// NewMDA builds an MDA cache. Half the capacity backs each view.
func NewMDA(sizeBytes, lineBytes, ways, sectorBytes, reach, hitLatency int) *MDA {
	if sectorBytes <= 0 || reach <= 0 || sectorBytes*reach > lineBytes*reach {
		panic(fmt.Sprintf("cache: bad MDA geometry sector=%d reach=%d", sectorBytes, reach))
	}
	mk := func(name string) *Cache {
		return New(Config{
			Name: name, SizeBytes: sizeBytes / 2, LineBytes: lineBytes,
			Ways: ways, Sectors: 1, HitLatency: hitLatency,
		})
	}
	return &MDA{
		rows:        mk("mda-rows"),
		cols:        mk("mda-cols"),
		lineBytes:   lineBytes,
		sectorBytes: sectorBytes,
		reach:       reach,
	}
}

// colLineAddr derives the synthetic address of the column line holding
// addr's sector view: the gather group's base line, offset by the sector
// index so distinct sectors get distinct column lines.
func (m *MDA) colLineAddr(addr uint64) uint64 {
	group := addr / (uint64(m.lineBytes) * uint64(m.reach))
	sector := (addr % uint64(m.lineBytes)) / uint64(m.sectorBytes)
	// Column lines live in their own cache (cols), so this address never
	// meets a row-view tag.
	return group*uint64(m.lineBytes)*16 + sector*uint64(m.lineBytes)
}

// AccessStrided probes the column view for a strided access; on a miss the
// caller fetches the group and calls FillStrided.
func (m *MDA) AccessStrided(addr uint64, write bool) bool {
	ca := m.colLineAddr(addr)
	hit := m.cols.Access(ca, 8, write) == Hit
	if hit {
		m.Stats.ColHits++
		if write {
			m.coherenceInvalidateRow(addr)
		}
	} else {
		m.Stats.ColMisses++
	}
	return hit
}

// FillStrided installs the column line for addr's group/sector.
func (m *MDA) FillStrided(addr uint64, write bool) {
	m.cols.Fill(m.colLineAddr(addr), 1, write, true)
	m.Stats.DuplicatedFills++
	if write {
		m.coherenceInvalidateRow(addr)
	}
}

// AccessRow probes the row view; on a miss the caller fills with FillRow.
func (m *MDA) AccessRow(addr uint64, size int, write bool) bool {
	hit := m.rows.Access(addr, size, write) == Hit
	if hit {
		m.Stats.RowHits++
		if write {
			m.coherenceInvalidateCols(addr)
		}
	} else {
		m.Stats.RowMisses++
	}
	return hit
}

// FillRow installs the row line containing addr.
func (m *MDA) FillRow(addr uint64, write bool) {
	m.rows.Fill(addr, 1, write, false)
	if write {
		m.coherenceInvalidateCols(addr)
	}
}

// coherenceInvalidateCols drops every column line overlapping a row line
// write (one per sector of the written line).
func (m *MDA) coherenceInvalidateCols(addr uint64) {
	base := addr &^ uint64(m.lineBytes-1)
	for s := 0; s < m.lineBytes/m.sectorBytes; s++ {
		ca := m.colLineAddr(base + uint64(s*m.sectorBytes))
		if m.cols.Contains(ca, 8) {
			m.cols.invalidateLine(ca)
			m.Stats.CoherenceInvalidations++
		}
	}
}

// coherenceInvalidateRow drops every row line overlapping a column-line
// write (one per member of the gather group).
func (m *MDA) coherenceInvalidateRow(addr uint64) {
	groupBase := addr / (uint64(m.lineBytes) * uint64(m.reach)) * uint64(m.lineBytes) * uint64(m.reach)
	for i := 0; i < m.reach; i++ {
		ra := groupBase + uint64(i*m.lineBytes)
		if m.rows.Contains(ra, 8) {
			m.rows.invalidateLine(ra)
			m.Stats.CoherenceInvalidations++
		}
	}
}

// invalidateLine drops one line (no writeback — MDA coherence is modeled
// as invalidate-on-write; a production design would forward dirty data).
func (c *Cache) invalidateLine(addr uint64) {
	p := c.lookup(addr)
	if p.way < 0 {
		return
	}
	s := c.peek(p.idx)
	s.valid[p.way] = 0
	s.dirty[p.way] = 0
	s.sectored &^= 1 << p.way
}

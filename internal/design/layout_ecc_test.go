package design

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"sam/internal/ecc"
	"sam/internal/imdb"
)

// samKinds are the designs that keep rank-level chipkill while striding —
// the ones whose bursts must carry whole codewords (Section 4.4). GS-DRAM
// gathers across per-chip rows and structurally cannot (see
// ecc.GSDRAMStridedBurst), so it is excluded by design, not oversight.
var samKinds = []Kind{SAMSub, SAMIO, SAMEn}

var allGrans = []Granularity{Gran16, Gran8, Gran4}

// TestBurstSchemeOrientation pins the scheme-selection rule: only SAM-IO's
// transposed 8-bit-symbol layouts move to the Fig. 4c variant; 4-bit SSC-DSD
// and every Fig. 4b design keep the canonical orientation.
func TestBurstSchemeOrientation(t *testing.T) {
	for _, k := range []Kind{Baseline, Ideal, SAMSub, SAMIO, SAMEn, GSDRAMecc} {
		for _, g := range allGrans {
			d := New(k, Options{Gran: g})
			got := d.BurstScheme()
			want := d.Chipkill
			if k == SAMIO && d.Chipkill == ecc.SchemeSSC {
				want = ecc.SchemeSSCVariant
			}
			if got != want {
				t.Errorf("%v/%d-bit: BurstScheme %v, want %v", k, g.BitsPerChip, got, want)
			}
		}
	}
}

// TestStrideGeometryMatchesECC is the arithmetic cross-check between the
// granularity table (Fig. 14b) and the codec: one strided burst's gather —
// SectorBytes x Reach, doubled when the 4-bit granularity gangs both ranks —
// must exactly fill the burst scheme's data payload. A mismatch would mean
// strided bursts carry partial codewords and the design's chipkill claim is
// void.
func TestStrideGeometryMatchesECC(t *testing.T) {
	for _, k := range samKinds {
		for _, g := range allGrans {
			d := New(k, Options{Gran: g})
			codec := ecc.NewChipkill(d.BurstScheme())
			gather := d.Gran.SectorBytes * d.Gran.Reach
			if d.Gran.Gang {
				gather *= 2
			}
			if gather != codec.DataBytes() {
				t.Errorf("%v/%d-bit: gather %dB vs codeword payload %dB",
					k, g.BitsPerChip, gather, codec.DataBytes())
			}
			if want := d.Mem.Geometry.LineBytes / d.Gran.SectorBytes; d.SectorsPerLine() != want {
				t.Errorf("%v/%d-bit: SectorsPerLine %d, want %d", k, g.BitsPerChip, d.SectorsPerLine(), want)
			}
		}
	}
}

// TestStrideGroupFillsCodewordProperty quick.Checks the layout half of the
// chipkill argument over random (design, granularity, schema, record, field)
// points: the sectors a full strided group fills add up to exactly one
// rank's share of the burst payload, every fill stays inside its line, lanes
// stay in the 4-lane I/O-buffer range, and no line is filled twice.
func TestStrideGroupFillsCodewordProperty(t *testing.T) {
	prop := func(kindSel, granSel uint8, recU uint16, fieldU uint8, wide bool) bool {
		d := New(samKinds[int(kindSel)%len(samKinds)], Options{Gran: allGrans[int(granSel)%len(allGrans)]})
		schema := imdb.Tb(1 << 14)
		if wide {
			schema = imdb.Ta(1 << 12)
		}
		p := NewPlacer(d, schema, 0, false)
		field := int(fieldU) % schema.Fields
		// Keep the whole alignment group in range so the group is full.
		rec := int(recU) % (schema.Records - d.Gran.Reach*p.recordsPerRowPublicTestHook())

		g := p.Gather(rec, field)
		if g.Lane < 0 || g.Lane >= 4 {
			t.Logf("lane %d out of range", g.Lane)
			return false
		}
		if g.Gang != d.Gran.Gang || g.Bursts != d.SubFieldSplit {
			t.Logf("gang/bursts mismatch: %+v vs design %+v", g, d.Gran)
			return false
		}
		sectorsPerLine := d.SectorsPerLine()
		seen := map[uint64]bool{}
		total := 0
		for _, f := range g.Fills {
			if f.LineAddr%uint64(d.Mem.Geometry.LineBytes) != 0 {
				t.Logf("fill line %#x not line-aligned", f.LineAddr)
				return false
			}
			if seen[f.LineAddr] {
				t.Logf("line %#x filled twice", f.LineAddr)
				return false
			}
			seen[f.LineAddr] = true
			if f.Sectors == 0 || f.Sectors>>uint(sectorsPerLine) != 0 {
				t.Logf("fill sectors %#x outside %d sectors/line", f.Sectors, sectorsPerLine)
				return false
			}
			total += bits.OnesCount64(f.Sectors)
		}
		// A full group gathers Reach sectors: one rank's share of the burst
		// (the mirror rank contributes the other half when ganged).
		gatherBytes := total * d.Gran.SectorBytes
		want := ecc.NewChipkill(d.BurstScheme()).DataBytes()
		if d.Gran.Gang {
			want /= 2
		}
		if gatherBytes != want {
			t.Logf("%v/%d-bit rec %d field %d: gathered %dB, codeword share %dB",
				d.Kind, d.Gran.BitsPerChip, rec, field, gatherBytes, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{
		MaxCount: 400,
		Rand:     rand.New(rand.NewSource(0x5A11A6E)),
	}); err != nil {
		t.Fatal(err)
	}
}

// recordsPerRowPublicTestHook bounds the group span for the property test:
// column engines deal records across a stripe, so the last safe record is
// conservatively a full stripe from the end; I/O-buffer designs only need
// the aligned Reach-record group in range.
func (p *Placer) recordsPerRowPublicTestHook() int {
	if p.D.ColumnEngine {
		return p.recordsPerStripe / p.D.Gran.Reach
	}
	return 1
}

// TestTransposedBurstsCarryWholeCodewords quick.Checks the ecc half: under
// every burst orientation a SAM design selects — SAM-en's Fig. 4b, SAM-IO's
// transposed Fig. 4c, and the ganged SSC-DSD geometry — an encoded burst
// holds valid codewords, and killing any single chip (the chipkill fault
// model) still round-trips the payload exactly. This is the property that
// makes the fault campaign's "zero silent corruptions" claim meaningful for
// the SAM layouts.
func TestTransposedBurstsCarryWholeCodewords(t *testing.T) {
	prop := func(kindSel, granSel uint8, seed int64, chipSel uint16, garbage byte) bool {
		d := New(samKinds[int(kindSel)%len(samKinds)], Options{Gran: allGrans[int(granSel)%len(allGrans)]})
		codec := ecc.NewChipkill(d.BurstScheme())

		rng := rand.New(rand.NewSource(seed))
		payload := make([]byte, codec.DataBytes())
		rng.Read(payload)

		b := codec.Encode(payload)
		if !codec.IntegrityOK(b) {
			t.Logf("%v: fresh encode fails integrity", d.Kind)
			return false
		}
		if garbage == 0 {
			garbage = 0xA5
		}
		chip := int(chipSel) % codec.Chips()
		b.CorruptChip(chip, garbage)

		data, corrected, err := codec.Decode(b)
		if err != nil {
			t.Logf("%v/%v: single dead chip %d uncorrectable: %v", d.Kind, codec.Scheme, chip, err)
			return false
		}
		if corrected == 0 {
			t.Logf("%v/%v: corruption of chip %d went unnoticed", d.Kind, codec.Scheme, chip)
			return false
		}
		for i := range data {
			if data[i] != payload[i] {
				t.Logf("%v/%v: payload byte %d corrupted after correction", d.Kind, codec.Scheme, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{
		MaxCount: 300,
		Rand:     rand.New(rand.NewSource(0xC0DEC)),
	}); err != nil {
		t.Fatal(err)
	}
}

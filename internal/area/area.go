// Package area is the analytical chip-area model of Section 6.1: wire
// routing overhead from metal-layer track counting per subarray, plus
// peripheral-logic overhead from CACTI-class constants. It reproduces the
// paper's numbers — SAM-sub ~7.2%, SAM-IO <0.01%, SAM-en ~0.7% — and the
// comparison bars of Fig. 14c.
package area

// SubarrayTracks describes M2 routing of one DRAM subarray in the Rambus
// model the paper cites: a 512-row subarray routes 128 global wordlines
// plus 12 tracks for four differential local data-line pairs and four
// wordline-select lines.
type SubarrayTracks struct {
	GlobalWordlines int // M2 tracks for global WLs
	LDLAndWLSel     int // M2 tracks for differential LDLs + WL selects
}

// Baseline512 is the paper's reference subarray.
func Baseline512() SubarrayTracks {
	return SubarrayTracks{GlobalWordlines: 128, LDLAndWLSel: 12}
}

// Total returns baseline M2 tracks.
func (s SubarrayTracks) Total() int { return s.GlobalWordlines + s.LDLAndWLSel }

// WireOverhead returns the fractional area cost of adding extraTracks M2
// routing tracks to the subarray.
func (s SubarrayTracks) WireOverhead(extraTracks int) float64 {
	return float64(extraTracks) / float64(s.Total())
}

// DieModel holds the peripheral-logic reference areas (32nm CACTI-3DD
// class, Section 6.1): the 0.14 mm^2 extra global sense amps correspond to
// 0.8% of the die.
type DieModel struct {
	DieAreaMM2 float64
}

// ReferenceDie matches the paper's implied die size (0.14 mm^2 == 0.8%).
func ReferenceDie() DieModel { return DieModel{DieAreaMM2: 0.14 / 0.008} }

// LogicOverhead converts an absolute logic area into a die fraction.
func (d DieModel) LogicOverhead(mm2 float64) float64 { return mm2 / d.DieAreaMM2 }

// Overhead describes one design's cost (fractions of die/storage).
type Overhead struct {
	Design      string
	Wiring      float64 // in-array routing (M2/M3 tracks)
	Peripheral  float64 // extra logic (sense amps, decoders, registers)
	Storage     float64 // extra bits (embedded ECC, duplicated copies)
	MetalLayers int     // extra metal layers required (NVM designs)
}

// Area returns total silicon area overhead (wiring + peripheral).
func (o Overhead) Area() float64 { return o.Wiring + o.Peripheral }

// SAMSub derives the SAM-sub overhead from first principles: 8 extra M2
// tracks (4 differential row-wise global bitlines) -> 5.7%; M3 control
// lines for the column-wise subarray -> 0.7%; extra global SAs 0.14 mm^2 ->
// 0.8%; a simplified column decoder 0.002 mm^2 -> <0.01%.
func SAMSub() Overhead {
	sub := Baseline512()
	die := ReferenceDie()
	return Overhead{
		Design:     "SAM-sub",
		Wiring:     sub.WireOverhead(8) + 0.007,
		Peripheral: die.LogicOverhead(0.14) + die.LogicOverhead(0.002),
	}
}

// SAMIO has only the 7-bit I/O mode register.
func SAMIO() Overhead {
	die := ReferenceDie()
	return Overhead{
		Design:     "SAM-IO",
		Peripheral: die.LogicOverhead(0.0005),
	}
}

// SAMEn has SAM-sub's control lines plus a second serializer set.
func SAMEn() Overhead {
	die := ReferenceDie()
	return Overhead{
		Design:     "SAM-en",
		Wiring:     0.007,
		Peripheral: die.LogicOverhead(0.0005) + die.LogicOverhead(0.001),
	}
}

// RCNVMBit duplicates peripheral circuits and needs two extra metal layers
// (~15% silicon, Section 3.3.2).
func RCNVMBit() Overhead {
	return Overhead{Design: "RC-NVM-bit", Wiring: 0.05, Peripheral: 0.10, MetalLayers: 2}
}

// RCNVMWord reshapes subarrays to squares, multiplying global bitlines
// (~33%, Section 3.3.2).
func RCNVMWord() Overhead {
	return Overhead{Design: "RC-NVM-wd", Wiring: 0.28, Peripheral: 0.05, MetalLayers: 2}
}

// GSDRAM adds shift/gather logic near the chip I/O — small area, no
// reliability.
func GSDRAM() Overhead {
	return Overhead{Design: "GS-DRAM", Peripheral: 0.005}
}

// GSDRAMecc adds embedded ECC: the check bits move in-page, costing 1/8 of
// storage (8 ECC bytes per 64 data bytes) on top of GS-DRAM's logic.
func GSDRAMecc() Overhead {
	o := GSDRAM()
	o.Design = "GS-DRAM-ecc"
	o.Storage = 8.0 / 64.0
	return o
}

// All returns the Fig. 14c comparison set in presentation order.
func All() []Overhead {
	return []Overhead{
		RCNVMBit(), RCNVMWord(), GSDRAM(), GSDRAMecc(), SAMSub(), SAMIO(), SAMEn(),
	}
}

// TimingInflation returns the factor by which array timing parameters grow
// for a design, following the paper's rule that latencies scale
// proportionally with area overhead (Section 6.1's setup notes).
func TimingInflation(o Overhead) float64 { return 1 + o.Area() }

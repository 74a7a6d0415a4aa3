package ecc

import (
	"errors"
	"fmt"
)

// This file models how chipkill codewords are laid out across the chips and
// beats of a memory burst (Fig. 4), which is the crux of the paper's
// reliability argument: a design is chipkill-compatible exactly when every
// burst it produces carries whole codewords.
//
// A burst is what one BL8 transfer delivers: for a rank of x4 chips, each
// chip contributes 4 bits x 8 beats = 32 bits. We model it as a per-chip
// 4-byte word with bit (beat*4 + dq) of the word carrying DQ dq at beat.

// Burst geometry for the SSC rank (16 data + 2 check chips).
const (
	SSCChips     = 18
	SSCDataChips = 16
	// SSCDSDChips is the doubled-channel geometry (32 data + 4 check).
	SSCDSDChips     = 36
	SSCDSDDataChips = 32
	BytesPerChip    = 4 // 4 DQ x 8 beats = 32 bits
)

// Burst holds the raw bits one BL8 transfer moves, per chip.
type Burst struct {
	Chips [][BytesPerChip]byte
}

// NewBurst allocates an all-zero burst for the given chip count.
func NewBurst(chips int) *Burst {
	return &Burst{Chips: make([][BytesPerChip]byte, chips)}
}

// checkBit validates a (chip, beat, dq) coordinate against the burst shape:
// 8 beats and 4 DQs per chip, chip within the burst's rank width.
func (b *Burst) checkBit(chip, beat, dq int) {
	if chip < 0 || chip >= len(b.Chips) || beat < 0 || beat >= 8 || dq < 0 || dq >= 4 {
		panic(fmt.Sprintf("ecc: bit (chip=%d, beat=%d, dq=%d) outside %d-chip BL8 burst",
			chip, beat, dq, len(b.Chips)))
	}
}

// Bit returns DQ dq of chip at the given beat.
func (b *Burst) Bit(chip, beat, dq int) byte {
	b.checkBit(chip, beat, dq)
	idx := beat*4 + dq
	return (b.Chips[chip][idx/8] >> (idx % 8)) & 1
}

// SetBit sets DQ dq of chip at the given beat.
func (b *Burst) SetBit(chip, beat, dq int, v byte) {
	b.checkBit(chip, beat, dq)
	idx := beat*4 + dq
	if v&1 != 0 {
		b.Chips[chip][idx/8] |= 1 << (idx % 8)
	} else {
		b.Chips[chip][idx/8] &^= 1 << (idx % 8)
	}
}

// CorruptChip overwrites every bit a chip contributes, simulating a dead
// chip for the burst (the chipkill failure model).
func (b *Burst) CorruptChip(chip int, garbage byte) {
	for i := range b.Chips[chip] {
		b.Chips[chip][i] ^= garbage
		garbage = garbage<<1 | garbage>>7 // vary per byte, never identity for nonzero
	}
}

// Scheme identifies a codeword layout from Fig. 4.
type Scheme int

// Layout schemes.
const (
	// SchemeSSC (Fig. 4b): one 8-bit symbol per chip per two beats; a burst
	// carries four 18-symbol codewords; the default server layout with
	// critical-word-first.
	SchemeSSC Scheme = iota
	// SchemeSSCVariant (Fig. 4c): one 8-bit symbol per DQ across the whole
	// burst (lane-wise); the layout SAM-IO's transposed data uses.
	SchemeSSCVariant
	// SchemeSSCDSD: doubled channel of 36 x4 chips; 4-bit beat symbols,
	// paired across two beats into GF(2^8) RS symbols; corrects one chip,
	// detects two.
	SchemeSSCDSD
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case SchemeSSC:
		return "SSC"
	case SchemeSSCVariant:
		return "SSC-variant"
	case SchemeSSCDSD:
		return "SSC-DSD"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Chipkill encodes/decodes bursts under one of the Fig. 4 layouts.
//
// The codec owns a codeword scratch buffer (and its RS code owns the
// decoder workspaces), so EncodeInto/DecodeInto are allocation-free — and a
// Chipkill is therefore NOT goroutine-safe. One codec per injector/channel,
// per rank model, or per goroutine.
type Chipkill struct {
	Scheme Scheme
	rs     *RS
	cw     []byte // codeword scratch, n symbols
}

// NewChipkill builds a codec for the scheme.
func NewChipkill(s Scheme) *Chipkill {
	c := &Chipkill{Scheme: s}
	switch s {
	case SchemeSSC, SchemeSSCVariant:
		c.rs = NewRS(SSCChips, SSCDataChips, 1)
	case SchemeSSCDSD:
		c.rs = NewRS(SSCDSDChips, SSCDSDDataChips, 1)
	default:
		panic("ecc: unknown chipkill scheme")
	}
	c.cw = make([]byte, c.rs.N())
	return c
}

// DataBytes returns the data payload a single burst carries under the
// scheme (64 for single-width SSC layouts, 128 for the doubled channel).
func (c *Chipkill) DataBytes() int {
	if c.Scheme == SchemeSSCDSD {
		return 128
	}
	return 64
}

// Chips returns the rank width in chips.
func (c *Chipkill) Chips() int {
	if c.Scheme == SchemeSSCDSD {
		return SSCDSDChips
	}
	return SSCChips
}

// CodewordsPerBurst returns how many codewords one burst carries (4 for
// every scheme here).
func (c *Chipkill) CodewordsPerBurst() int { return 4 }

// Encode lays out data (len == DataBytes()) plus freshly computed check
// symbols into a burst.
func (c *Chipkill) Encode(data []byte) *Burst {
	b := NewBurst(c.Chips())
	c.EncodeInto(b, data)
	return b
}

// EncodeInto is Encode with a caller-provided burst: it lays data plus
// freshly computed check symbols into b, overwriting every bit, with no
// allocation. b must carry the scheme's chip count.
func (c *Chipkill) EncodeInto(b *Burst, data []byte) {
	if len(data) != c.DataBytes() {
		panic(fmt.Sprintf("ecc: Encode wants %d bytes, got %d", c.DataBytes(), len(data)))
	}
	if len(b.Chips) != c.Chips() {
		panic(fmt.Sprintf("ecc: EncodeInto wants a %d-chip burst, got %d", c.Chips(), len(b.Chips)))
	}
	k := c.rs.K()
	for j := 0; j < c.CodewordsPerBurst(); j++ {
		c.rs.EncodeInto(c.cw, data[j*k:(j+1)*k])
		c.placeCodeword(b, j, c.cw)
	}
}

// ErrGeometry reports a burst whose chip count does not match the codec's
// scheme; such a burst cannot hold the scheme's codewords at all.
var ErrGeometry = errors.New("ecc: burst geometry does not match scheme")

// Decode extracts and corrects the burst's codewords, returning the data
// payload, the total number of corrected symbols, and ErrDetected when any
// codeword is uncorrectable under the scheme's policy.
//
// Policy: beyond the per-codeword MaxCorrect=1 bound, all corrections within
// one burst must name the same chip. The chipkill fault model is a single
// failing device; corrections scattered across different chips mean the burst
// was hit by something the model does not cover, and letting each codeword
// "fix" its own chip is exactly the miscorrection path a DUE should close.
// Inconsistent corrections therefore return ErrDetected.
func (c *Chipkill) Decode(b *Burst) (data []byte, corrected int, err error) {
	data = make([]byte, c.DataBytes())
	corrected, err = c.DecodeInto(data, b)
	if err != nil {
		return nil, corrected, err
	}
	return data, corrected, nil
}

// DecodeInto is Decode with a caller-provided payload buffer (len ==
// DataBytes()): it extracts and corrects the burst's codewords into data
// with no allocation, returning the total corrected symbol count and the
// same errors — ErrGeometry for a wrong-shape burst, ErrDetected under the
// burst-consistency policy documented on Decode. On error, data holds the
// partially scattered payload and must not be used.
func (c *Chipkill) DecodeInto(data []byte, b *Burst) (corrected int, err error) {
	if len(b.Chips) != c.Chips() {
		return 0, ErrGeometry
	}
	if len(data) != c.DataBytes() {
		panic(fmt.Sprintf("ecc: DecodeInto wants a %d-byte buffer, got %d", c.DataBytes(), len(data)))
	}
	errChip := -1
	for j := 0; j < c.CodewordsPerBurst(); j++ {
		c.extractCodewordInto(c.cw, b, j)
		pos, derr := c.rs.decodeReport(c.cw)
		if derr != nil {
			return corrected, derr
		}
		for _, p := range pos {
			// Codeword symbol index == chip index for every scheme here.
			if errChip == -1 {
				errChip = p
			} else if errChip != p {
				return corrected, ErrDetected
			}
		}
		corrected += len(pos)
		c.scatterData(data, j, c.cw)
	}
	return corrected, nil
}

// scatterData writes codeword j's (corrected) data symbols back into the
// payload buffer.
func (c *Chipkill) scatterData(data []byte, j int, cw []byte) {
	k := c.rs.K()
	copy(data[j*k:(j+1)*k], cw[:k])
}

// placeCodeword writes an n-symbol codeword into the burst per the scheme.
func (c *Chipkill) placeCodeword(b *Burst, j int, cw []byte) {
	switch c.Scheme {
	case SchemeSSC, SchemeSSCDSD:
		// Symbol of chip ch = its two beats 2j and 2j+1 (byte j of the
		// chip's 32-bit burst word).
		for ch := 0; ch < c.Chips(); ch++ {
			b.Chips[ch][j] = cw[ch]
		}
	case SchemeSSCVariant:
		// Symbol of chip ch in codeword j = DQ j of chip ch across beats.
		for ch := 0; ch < c.Chips(); ch++ {
			for beat := 0; beat < 8; beat++ {
				b.SetBit(ch, beat, j, (cw[ch]>>beat)&1)
			}
		}
	}
}

// extractCodewordInto reads codeword j back out of the burst into cw
// (len == Chips()).
func (c *Chipkill) extractCodewordInto(cw []byte, b *Burst, j int) {
	switch c.Scheme {
	case SchemeSSC, SchemeSSCDSD:
		for ch := 0; ch < c.Chips(); ch++ {
			cw[ch] = b.Chips[ch][j]
		}
	case SchemeSSCVariant:
		for ch := 0; ch < c.Chips(); ch++ {
			var sym byte
			for beat := 0; beat < 8; beat++ {
				sym |= b.Bit(ch, beat, j) << beat
			}
			cw[ch] = sym
		}
	}
}

// GSDRAMStridedBurst models the Gather-Scatter layout under strided access:
// each chip returns data from a *different row*, so chip ch's symbols come
// from row ch's codeword while the check chips can only return one row's
// check symbols. The returned burst therefore mixes symbols from rows[0..15]
// with check symbols of rows[0] — the structural reason GS-DRAM cannot keep
// chipkill (Section 3.3.1). rows must contain 16 encoded single-row bursts.
func GSDRAMStridedBurst(rows []*Burst) *Burst {
	if len(rows) != SSCDataChips {
		panic("ecc: GSDRAMStridedBurst wants 16 row bursts")
	}
	out := NewBurst(SSCChips)
	for ch := 0; ch < SSCDataChips; ch++ {
		out.Chips[ch] = rows[ch].Chips[ch]
	}
	// The two check chips hold row 0's check symbols — matching only one of
	// the sixteen gathered rows.
	out.Chips[16] = rows[0].Chips[16]
	out.Chips[17] = rows[0].Chips[17]
	return out
}

// IntegrityOK reports whether a burst holds valid codewords (no error and
// no miscorrection) under the codec. A burst of the wrong geometry cannot
// hold the scheme's codewords, so it reports false.
func (c *Chipkill) IntegrityOK(b *Burst) bool {
	if len(b.Chips) != c.Chips() {
		return false
	}
	for j := 0; j < c.CodewordsPerBurst(); j++ {
		c.extractCodewordInto(c.cw, b, j)
		if !c.rs.syndromesInto(c.rs.syn, c.cw) {
			return false
		}
	}
	return true
}

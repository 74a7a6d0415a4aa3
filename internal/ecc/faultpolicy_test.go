package ecc

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestChipkillDecodeWrongGeometry pins the bugfix: a burst whose chip count
// does not match the scheme must come back as ErrGeometry, not a panic.
func TestChipkillDecodeWrongGeometry(t *testing.T) {
	for _, s := range []Scheme{SchemeSSC, SchemeSSCVariant, SchemeSSCDSD} {
		c := NewChipkill(s)
		for _, chips := range []int{0, 1, 4, c.Chips() - 1, c.Chips() + 1, 72} {
			b := NewBurst(chips)
			data, corrected, err := c.Decode(b)
			if !errors.Is(err, ErrGeometry) {
				t.Errorf("%v: Decode(%d-chip burst) err = %v, want ErrGeometry", s, chips, err)
			}
			if data != nil || corrected != 0 {
				t.Errorf("%v: Decode(%d-chip burst) = (%v, %d), want (nil, 0)", s, chips, data, corrected)
			}
			if c.IntegrityOK(b) {
				t.Errorf("%v: IntegrityOK(%d-chip burst) = true", s, chips)
			}
		}
		// The matching geometry still round-trips.
		payload := make([]byte, c.DataBytes())
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		data, corrected, err := c.Decode(c.Encode(payload))
		if err != nil || corrected != 0 || !bytes.Equal(data, payload) {
			t.Errorf("%v: clean round trip broken: corrected=%d err=%v", s, corrected, err)
		}
	}
}

// TestBurstBitBounds pins the Bit/SetBit argument validation: out-of-range
// chip, beat, or dq must fail loudly with a descriptive panic instead of a
// raw index error (or, worse, silently aliasing another bit).
func TestBurstBitBounds(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: no panic", name)
				return
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "ecc: bit") {
				t.Errorf("%s: panic %v, want descriptive ecc bounds message", name, r)
			}
		}()
		fn()
	}
	b := NewBurst(SSCChips)
	mustPanic("chip high", func() { b.Bit(SSCChips, 0, 0) })
	mustPanic("chip negative", func() { b.Bit(-1, 0, 0) })
	mustPanic("beat high", func() { b.Bit(0, 8, 0) })
	mustPanic("beat negative", func() { b.SetBit(0, -1, 0, 1) })
	mustPanic("dq high", func() { b.SetBit(0, 0, 4, 1) })
	mustPanic("dq negative", func() { b.Bit(0, 0, -1) })
	// In-range corners stay usable.
	b.SetBit(SSCChips-1, 7, 3, 1)
	if b.Bit(SSCChips-1, 7, 3) != 1 {
		t.Fatal("corner bit did not round-trip")
	}
}

// TestChipkillInconsistentCorrectionsDetected pins the burst-level policy:
// two single-symbol errors that land in *different* codewords are each
// individually correctable, but they name two different chips — outside the
// single-failing-device model — so Decode must refuse with ErrDetected
// rather than correct them.
func TestChipkillInconsistentCorrectionsDetected(t *testing.T) {
	for _, s := range []Scheme{SchemeSSC, SchemeSSCVariant, SchemeSSCDSD} {
		c := NewChipkill(s)
		payload := make([]byte, c.DataBytes())
		for i := range payload {
			payload[i] = byte(i ^ 0x5A)
		}
		b := c.Encode(payload)
		// One bit of chip 2 in codeword 0, one bit of chip 9 in codeword 1.
		switch s {
		case SchemeSSC, SchemeSSCDSD:
			b.Chips[2][0] ^= 0x01 // byte j carries codeword j's symbol
			b.Chips[9][1] ^= 0x01
		case SchemeSSCVariant:
			b.SetBit(2, 0, 0, b.Bit(2, 0, 0)^1) // DQ j carries codeword j's symbol
			b.SetBit(9, 0, 1, b.Bit(9, 0, 1)^1)
		}
		if _, _, err := c.Decode(b); !errors.Is(err, ErrDetected) {
			t.Errorf("%v: cross-chip corrections err = %v, want ErrDetected", s, err)
		}
		// The same two errors on ONE chip stay correctable.
		b = c.Encode(payload)
		switch s {
		case SchemeSSC, SchemeSSCDSD:
			b.Chips[2][0] ^= 0x01
			b.Chips[2][1] ^= 0x01
		case SchemeSSCVariant:
			b.SetBit(2, 0, 0, b.Bit(2, 0, 0)^1)
			b.SetBit(2, 0, 1, b.Bit(2, 0, 1)^1)
		}
		data, corrected, err := c.Decode(b)
		if err != nil || corrected != 2 || !bytes.Equal(data, payload) {
			t.Errorf("%v: same-chip corrections: corrected=%d err=%v", s, corrected, err)
		}
	}
}

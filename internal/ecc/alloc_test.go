package ecc

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestEncodeIntoDecodeIntoMatchAllocating pins the Into variants to the
// allocating API bit for bit: same burst layout from EncodeInto as Encode,
// same payload/corrected/error from DecodeInto as Decode — clean bursts and
// dead-chip bursts alike, for every scheme.
func TestEncodeIntoDecodeIntoMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, scheme := range []Scheme{SchemeSSC, SchemeSSCVariant, SchemeSSCDSD} {
		c := NewChipkill(scheme)
		buf := NewBurst(c.Chips())
		payload := make([]byte, c.DataBytes())
		for trial := 0; trial < 50; trial++ {
			data := randomPayload(rng, c.DataBytes())
			want := c.Encode(data)
			c.EncodeInto(buf, data)
			for ch := range want.Chips {
				if want.Chips[ch] != buf.Chips[ch] {
					t.Fatalf("%v trial %d: EncodeInto chip %d differs from Encode", scheme, trial, ch)
				}
			}
			if trial%2 == 1 {
				chip := rng.Intn(c.Chips())
				garbage := byte(rng.Intn(255) + 1)
				want.CorruptChip(chip, garbage)
				buf.CorruptChip(chip, garbage)
			}
			wantData, wantCorr, wantErr := c.Decode(want)
			gotCorr, gotErr := c.DecodeInto(payload, buf)
			if wantErr != gotErr || wantCorr != gotCorr {
				t.Fatalf("%v trial %d: DecodeInto (%d,%v) vs Decode (%d,%v)",
					scheme, trial, gotCorr, gotErr, wantCorr, wantErr)
			}
			if wantErr == nil && !bytes.Equal(payload, wantData) {
				t.Fatalf("%v trial %d: DecodeInto payload differs from Decode", scheme, trial)
			}
		}
	}
}

// TestChipkillIntoZeroAllocs pins EncodeInto and DecodeInto — including a
// dead-chip correction, the worst decode path — at exactly zero allocations
// per op for every scheme.
func TestChipkillIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, scheme := range []Scheme{SchemeSSC, SchemeSSCVariant, SchemeSSCDSD} {
		c := NewChipkill(scheme)
		data := randomPayload(rng, c.DataBytes())
		b := NewBurst(c.Chips())
		payload := make([]byte, c.DataBytes())

		if n := testing.AllocsPerRun(200, func() {
			c.EncodeInto(b, data)
		}); n != 0 {
			t.Errorf("%v: EncodeInto allocates %.1f/op, want 0", scheme, n)
		}
		if n := testing.AllocsPerRun(200, func() {
			c.EncodeInto(b, data)
			b.CorruptChip(3, 0x5A)
			if _, err := c.DecodeInto(payload, b); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%v: dead-chip DecodeInto allocates %.1f/op, want 0", scheme, n)
		}
	}
}

// TestRSIntoZeroAllocs pins the raw RS paths the chipkill codecs sit on.
func TestRSIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	r := NewRS(18, 16, 1)
	data := randomPayload(rng, 16)
	out := make([]byte, 18)
	if n := testing.AllocsPerRun(200, func() {
		r.EncodeInto(out, data)
		out[4] ^= 0x1F
		if _, err := decode(r, out); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("RS EncodeInto+Decode allocates %.1f/op, want 0", n)
	}
}

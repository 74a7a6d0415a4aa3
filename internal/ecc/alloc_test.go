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

// TestBurstResetClearsEveryPlane: Reset must return a corrupted burst to the
// all-zero state.
func TestBurstResetClearsEveryPlane(t *testing.T) {
	b := NewBurst(SSCChips)
	for ch := range b.Chips {
		b.CorruptChip(ch, byte(ch+1))
	}
	b.Reset()
	for ch := range b.Chips {
		if b.Chips[ch] != [BytesPerChip]byte{} {
			t.Fatalf("chip %d not zeroed after Reset", ch)
		}
	}
}

// TestBurstPoolRecycledBurstIsClean is the regression test for the reuse
// bug class this PR closes: a burst that went through fault injection and
// decode-with-corrections must come back from the pool with no trace of the
// prior fault pattern, so a clean encode/decode cycle on it sees zero
// corrections.
func TestBurstPoolRecycledBurstIsClean(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	c := NewChipkill(SchemeSSC)
	var pool BurstPool
	payload := make([]byte, c.DataBytes())

	// Dirty a burst thoroughly: encode, kill a chip, decode (mutates in
	// place), corrupt again so it is NOT a valid codeword when recycled.
	dirty := pool.Get(c.Chips())
	c.EncodeInto(dirty, randomPayload(rng, c.DataBytes()))
	dirty.CorruptChip(5, 0x3C)
	if _, err := c.DecodeInto(payload, dirty); err != nil {
		t.Fatal(err)
	}
	dirty.CorruptChip(9, 0x77)
	pool.Put(dirty)

	got := pool.Get(c.Chips())
	if got != dirty {
		t.Fatal("pool did not recycle the burst (test needs the dirty one back)")
	}
	for ch := range got.Chips {
		if got.Chips[ch] != [BytesPerChip]byte{} {
			t.Fatalf("recycled burst leaks prior fault data on chip %d", ch)
		}
	}
	// And a clean encode/decode on the recycled burst sees zero corrections.
	data := randomPayload(rng, c.DataBytes())
	c.EncodeInto(got, data)
	n, err := c.DecodeInto(payload, got)
	if err != nil || n != 0 {
		t.Fatalf("clean decode on recycled burst: corrected=%d err=%v, want 0,nil", n, err)
	}
	if !bytes.Equal(payload, data) {
		t.Fatal("recycled burst round trip corrupted the payload")
	}
}

// TestBurstPoolKeyedByChipCount: recycling an SSC burst must not satisfy a
// DSD Get.
func TestBurstPoolKeyedByChipCount(t *testing.T) {
	var pool BurstPool
	pool.Put(NewBurst(SSCChips))
	b := pool.Get(SSCDSDChips)
	if len(b.Chips) != SSCDSDChips {
		t.Fatalf("Get(%d) returned a %d-chip burst", SSCDSDChips, len(b.Chips))
	}
	if list := pool.free[SSCChips]; len(list) != 1 {
		t.Fatalf("the %d-chip burst should still be pooled", SSCChips)
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
		if _, err := r.Decode(out); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("RS EncodeInto+Decode allocates %.1f/op, want 0", n)
	}
}

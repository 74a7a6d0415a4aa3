package ecc

import (
	"bytes"
	"testing"
)

// fuzzPayload expands a seed into a deterministic payload (splitmix64).
func fuzzPayload(seed uint64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		out[i] = byte(z ^ (z >> 31))
	}
	return out
}

// FuzzChipkillDecode throws arbitrary corruption at every chipkill scheme and
// checks the decode contract:
//   - never panics, whatever the corruption;
//   - clean bursts round-trip with zero corrections;
//   - a single corrupted chip is always corrected back to the payload;
//   - within SSC-DSD's guaranteed envelope (distance 5, up to 3 chips hit,
//     MaxCorrect=1) a multi-chip error is NEVER silently miscorrected: the
//     decoder errors or returns the exact payload;
//   - for the distance-3 SSC layouts, 2-chip detection is only
//     probabilistic — a 2-symbol error can be byte-identical to "other
//     codeword + 1 symbol error" (~7% of patterns), which no decoder can
//     distinguish. The oracle instead pins what IS guaranteed: whenever
//     Decode accepts a burst, the data it returns must be self-consistent,
//     i.e. re-encoding it reproduces the received burst up to the single
//     chip the decoder claims to have corrected. A violation means a real
//     decoder bug (bad Forney magnitude, wrong position, missed residual
//     check), not an inherent code limit.
func FuzzChipkillDecode(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint8(0), uint8(0), byte(0), byte(0), []byte{})
	f.Add(uint8(0), uint64(2), uint8(3), uint8(3), byte(0xA5), byte(0), []byte{})
	f.Add(uint8(1), uint64(3), uint8(7), uint8(9), byte(0x01), byte(0x80), []byte{})
	f.Add(uint8(2), uint64(4), uint8(35), uint8(0), byte(0xFF), byte(0x10), []byte{1, 0, 0, 0, 2})
	f.Add(uint8(2), uint64(5), uint8(11), uint8(12), byte(0x42), byte(0x42), []byte{0xFF})
	f.Fuzz(func(t *testing.T, schemeSel uint8, seed uint64, c0, c1 uint8, g0, g1 byte, raw []byte) {
		scheme := Scheme(int(schemeSel) % 3)
		codec := NewChipkill(scheme)
		payload := fuzzPayload(seed, codec.DataBytes())
		clean := codec.Encode(payload)
		b := codec.Encode(payload)

		// Structured whole-chip corruption plus arbitrary byte-level XOR.
		if g0 != 0 {
			b.CorruptChip(int(c0)%codec.Chips(), g0)
		}
		if g1 != 0 {
			b.CorruptChip(int(c1)%codec.Chips(), g1)
		}
		span := codec.Chips() * BytesPerChip
		for i, v := range raw {
			if i >= span {
				break
			}
			b.Chips[i/BytesPerChip][i%BytesPerChip] ^= v
		}

		// Ground truth: which chips actually differ from the clean burst.
		hit := 0
		for ch := range b.Chips {
			if b.Chips[ch] != clean.Chips[ch] {
				hit++
			}
		}

		data, corrected, err := codec.Decode(b)
		switch {
		case hit == 0:
			if err != nil || corrected != 0 || !bytes.Equal(data, payload) {
				t.Fatalf("%v: clean burst: corrected=%d err=%v", scheme, corrected, err)
			}
		case hit == 1:
			if err != nil {
				t.Fatalf("%v: single corrupted chip not corrected: %v", scheme, err)
			}
			if !bytes.Equal(data, payload) {
				t.Fatalf("%v: single corrupted chip decoded to wrong data", scheme)
			}
		default:
			if err == nil && !bytes.Equal(data, payload) {
				if scheme == SchemeSSCDSD && hit <= 3 {
					t.Fatalf("%v: silent miscorrection with %d chips hit — inside the distance-5 guarantee", scheme, hit)
				}
				// Inherent-miscorrection envelope: the accepted data must
				// still be explainable as at most one chip error on the
				// burst we handed in.
				enc := codec.Encode(data)
				diff := 0
				for ch := range enc.Chips {
					if enc.Chips[ch] != b.Chips[ch] {
						diff++
					}
				}
				if diff > 1 {
					t.Fatalf("%v: accepted data is %d chips away from the received burst, want <= 1", scheme, diff)
				}
			}
		}
	})
}

// FuzzRSDecode drives the raw RS decoder (both chipkill geometries and a
// four-error-correcting one) with arbitrary received words: it must never
// panic, never accept an invalid codeword, never claim more corrections than
// its policy allows, and always round-trip freshly encoded data.
func FuzzRSDecode(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{1, 2, 3})
	f.Add(uint8(2), bytes.Repeat([]byte{0xAB}, 72))
	f.Fuzz(func(t *testing.T, geom uint8, raw []byte) {
		var r *RS
		switch geom % 3 {
		case 0:
			r = NewRS(SSCChips, SSCDataChips, 1)
		case 1:
			r = NewRS(SSCDSDChips, SSCDSDDataChips, 1)
		case 2:
			r = NewRS(72, 64, 4) // t=4: the multi-error Berlekamp-Massey path
		}
		recv := make([]byte, r.N())
		copy(recv, raw)
		orig := append([]byte(nil), recv...)

		corrected, err := decode(r, recv)
		if err == nil {
			if corrected > r.MaxCorrect {
				t.Fatalf("corrected %d > MaxCorrect %d", corrected, r.MaxCorrect)
			}
			for _, s := range syndromes(r, recv) {
				if s != 0 {
					t.Fatal("Decode accepted a word with nonzero residual syndromes")
				}
			}
			diff := 0
			for i := range recv {
				if recv[i] != orig[i] {
					diff++
				}
			}
			if diff != corrected {
				t.Fatalf("changed %d symbols but reported %d corrections", diff, corrected)
			}
		}

		// Clean encode/decode round trip from the same fuzz bytes.
		data := make([]byte, r.K())
		copy(data, raw)
		cw := encode(r, data)
		n, err := decode(r, cw)
		if n != 0 || err != nil {
			t.Fatalf("fresh codeword: corrected=%d err=%v", n, err)
		}
		if !bytes.Equal(cw[:r.K()], data) {
			t.Fatal("fresh codeword data slot mutated")
		}
	})
}

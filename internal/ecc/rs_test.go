package ecc

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRSEncodeProducesValidCodeword(t *testing.T) {
	rs := NewRS(18, 16, 1)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, 16)
		rng.Read(data)
		cw := rs.Encode(data)
		if len(cw) != 18 {
			t.Fatalf("codeword length %d, want 18", len(cw))
		}
		if !bytes.Equal(cw[:16], data) {
			t.Fatal("code is not systematic")
		}
		for i, s := range rs.Syndromes(cw) {
			if s != 0 {
				t.Fatalf("syndrome %d nonzero for fresh codeword", i)
			}
		}
	}
}

func TestRSCorrectsSingleSymbol(t *testing.T) {
	rs := NewRS(18, 16, 1)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		data := make([]byte, 16)
		rng.Read(data)
		cw := rs.Encode(data)
		orig := append([]byte(nil), cw...)
		pos := rng.Intn(18)
		cw[pos] ^= byte(1 + rng.Intn(255))
		n, err := rs.Decode(cw)
		if err != nil {
			t.Fatalf("trial %d: decode failed: %v", trial, err)
		}
		if n != 1 {
			t.Fatalf("trial %d: corrected %d symbols, want 1", trial, n)
		}
		if !bytes.Equal(cw, orig) {
			t.Fatalf("trial %d: decode did not restore codeword", trial)
		}
	}
}

func TestRSDetectsDoubleSymbolUnderPolicy(t *testing.T) {
	// MaxCorrect=1 with 2 check symbols: two-symbol errors must never be
	// silently "corrected" into the wrong codeword... with only d=3 a
	// 2-error can alias to a different codeword's 1-error ball, so we only
	// require that it never returns the original data unchanged silently.
	rs := NewRS(36, 32, 1) // d=5: two errors are always detectable with t=1 policy
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 32)
		rng.Read(data)
		cw := rs.Encode(data)
		p1 := rng.Intn(36)
		p2 := (p1 + 1 + rng.Intn(35)) % 36
		cw[p1] ^= byte(1 + rng.Intn(255))
		cw[p2] ^= byte(1 + rng.Intn(255))
		_, err := rs.Decode(cw)
		if err != ErrDetected {
			t.Fatalf("trial %d: double-symbol error not detected (err=%v)", trial, err)
		}
	}
}

func TestRSFullPowerCorrectsTwoSymbols(t *testing.T) {
	rs := NewRS(36, 32, 0) // full power: t = 2
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 32)
		rng.Read(data)
		cw := rs.Encode(data)
		orig := append([]byte(nil), cw...)
		p1 := rng.Intn(36)
		p2 := (p1 + 1 + rng.Intn(35)) % 36
		cw[p1] ^= byte(1 + rng.Intn(255))
		cw[p2] ^= byte(1 + rng.Intn(255))
		n, err := rs.Decode(cw)
		if err != nil {
			t.Fatalf("trial %d: decode failed: %v", trial, err)
		}
		if n != 2 {
			t.Fatalf("trial %d: corrected %d, want 2", trial, n)
		}
		if !bytes.Equal(cw, orig) {
			t.Fatalf("trial %d: wrong correction", trial)
		}
	}
}

func TestRSZeroErrorFastPath(t *testing.T) {
	rs := NewRS(18, 16, 1)
	data := make([]byte, 16)
	cw := rs.Encode(data)
	n, err := rs.Decode(cw)
	if n != 0 || err != nil {
		t.Fatalf("clean codeword: n=%d err=%v", n, err)
	}
}

func TestRSPropertyRoundTrip(t *testing.T) {
	rs := NewRS(18, 16, 1)
	f := func(data [16]byte, pos uint8, flip byte) bool {
		cw := rs.Encode(data[:])
		if flip == 0 {
			n, err := rs.Decode(cw)
			return n == 0 && err == nil && bytes.Equal(cw[:16], data[:])
		}
		cw[int(pos)%18] ^= flip
		n, err := rs.Decode(cw)
		return err == nil && n == 1 && bytes.Equal(cw[:16], data[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRSGeometryValidation(t *testing.T) {
	for _, bad := range [][2]int{{16, 16}, {10, 12}, {300, 200}, {5, 0}, {26, 16}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRS(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			NewRS(bad[0], bad[1], 1)
		}()
	}
}

func TestRSEncodeLengthValidation(t *testing.T) {
	rs := NewRS(18, 16, 1)
	defer func() {
		if recover() == nil {
			t.Error("Encode with wrong length did not panic")
		}
	}()
	rs.Encode(make([]byte, 10))
}

func BenchmarkRSEncodeSSC(b *testing.B) {
	rs := NewRS(18, 16, 1)
	data := make([]byte, 16)
	for i := range data {
		data[i] = byte(i * 37)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rs.Encode(data)
	}
}

func BenchmarkRSDecodeSingleError(b *testing.B) {
	rs := NewRS(18, 16, 1)
	data := make([]byte, 16)
	cw := rs.Encode(data)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cw[5] ^= 0x42
		if _, err := rs.Decode(cw); err != nil {
			b.Fatal(err)
		}
	}
}

package ecc

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomPayload(rng *rand.Rand, n int) []byte {
	p := make([]byte, n)
	rng.Read(p)
	return p
}

func TestChipkillRoundTripAllSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, scheme := range []Scheme{SchemeSSC, SchemeSSCVariant, SchemeSSCDSD} {
		c := NewChipkill(scheme)
		for trial := 0; trial < 100; trial++ {
			data := randomPayload(rng, c.DataBytes())
			b := c.Encode(data)
			got, corrected, err := c.Decode(b)
			if err != nil {
				t.Fatalf("%v trial %d: %v", scheme, trial, err)
			}
			if corrected != 0 {
				t.Fatalf("%v trial %d: spurious corrections", scheme, trial)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%v trial %d: data mismatch", scheme, trial)
			}
		}
	}
}

func TestChipkillSurvivesDeadChip(t *testing.T) {
	// The chipkill promise: kill any ONE chip's contribution to a burst and
	// every scheme still recovers the data exactly.
	rng := rand.New(rand.NewSource(13))
	for _, scheme := range []Scheme{SchemeSSC, SchemeSSCVariant, SchemeSSCDSD} {
		c := NewChipkill(scheme)
		for chip := 0; chip < c.Chips(); chip++ {
			data := randomPayload(rng, c.DataBytes())
			b := c.Encode(data)
			b.CorruptChip(chip, byte(1+rng.Intn(255)))
			got, corrected, err := c.Decode(b)
			if err != nil {
				t.Fatalf("%v chip %d: decode failed: %v", scheme, chip, err)
			}
			if corrected == 0 {
				t.Fatalf("%v chip %d: corruption went unnoticed", scheme, chip)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%v chip %d: wrong data after correction", scheme, chip)
			}
		}
	}
}

func TestChipkillDetectsTwoDeadChipsDSD(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c := NewChipkill(SchemeSSCDSD)
	for trial := 0; trial < 50; trial++ {
		data := randomPayload(rng, c.DataBytes())
		b := c.Encode(data)
		c1 := rng.Intn(c.Chips())
		c2 := (c1 + 1 + rng.Intn(c.Chips()-1)) % c.Chips()
		b.CorruptChip(c1, byte(1+rng.Intn(255)))
		b.CorruptChip(c2, byte(1+rng.Intn(255)))
		_, _, err := c.Decode(b)
		if err != ErrDetected {
			t.Fatalf("trial %d: two dead chips not detected (err=%v)", trial, err)
		}
	}
}

func TestChipkillVariantSurvivesAllDQFailure(t *testing.T) {
	// Fig. 4c's selling point: with lane-wise symbols, one chip failing on
	// ALL four DQs puts exactly one bad symbol in each of the four
	// codewords, so the burst corrects four symbol errors total.
	rng := rand.New(rand.NewSource(19))
	c := NewChipkill(SchemeSSCVariant)
	data := randomPayload(rng, 64)
	b := c.Encode(data)
	b.CorruptChip(7, 0xA5)
	got, corrected, err := c.Decode(b)
	if err != nil {
		t.Fatalf("decode failed: %v", err)
	}
	if corrected != 4 {
		t.Fatalf("corrected %d symbols, want 4 (one per codeword)", corrected)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("wrong data")
	}
}

func TestGSDRAMStridedBurstBreaksIntegrity(t *testing.T) {
	// Executable version of Section 3.3.1: gather 16 different rows'
	// same-chip data into one burst and the codewords no longer verify,
	// because the check chips can only speak for one row.
	rng := rand.New(rand.NewSource(23))
	c := NewChipkill(SchemeSSC)
	rows := make([]*Burst, SSCDataChips)
	for i := range rows {
		rows[i] = c.Encode(randomPayload(rng, 64))
	}
	gathered := GSDRAMStridedBurst(rows)
	if c.IntegrityOK(gathered) {
		t.Fatal("GS-DRAM strided burst unexpectedly passed chipkill verification")
	}
	// Whereas a straight single-row burst verifies.
	if !c.IntegrityOK(rows[3]) {
		t.Fatal("single-row burst should verify")
	}
}

func TestGSDRAMStridedBurstIdenticalRowsDegenerate(t *testing.T) {
	// Degenerate sanity case: if all sixteen rows hold identical data the
	// gathered burst is a real codeword again.
	c := NewChipkill(SchemeSSC)
	data := bytes.Repeat([]byte{0x5A}, 64)
	rows := make([]*Burst, SSCDataChips)
	for i := range rows {
		rows[i] = c.Encode(data)
	}
	if !c.IntegrityOK(GSDRAMStridedBurst(rows)) {
		t.Fatal("identical-row gather should trivially verify")
	}
}

func TestBurstBitAccessors(t *testing.T) {
	b := NewBurst(18)
	for chip := 0; chip < 18; chip += 5 {
		for beat := 0; beat < 8; beat++ {
			for dq := 0; dq < 4; dq++ {
				b.SetBit(chip, beat, dq, 1)
				if b.Bit(chip, beat, dq) != 1 {
					t.Fatalf("bit chip=%d beat=%d dq=%d not set", chip, beat, dq)
				}
				b.SetBit(chip, beat, dq, 0)
				if b.Bit(chip, beat, dq) != 0 {
					t.Fatalf("bit chip=%d beat=%d dq=%d not cleared", chip, beat, dq)
				}
			}
		}
	}
}

func TestChipkillVariantLayoutIsTransposed(t *testing.T) {
	// In the variant layout, codeword j must occupy DQ j: flipping a single
	// DQ lane bit corrupts exactly one codeword.
	c := NewChipkill(SchemeSSCVariant)
	data := make([]byte, 64)
	b := c.Encode(data)
	b.SetBit(4, 3, 2, 1) // chip 4, beat 3, DQ 2
	bad := 0
	for j := 0; j < 4; j++ {
		cw := make([]byte, c.Chips())
		c.extractCodewordInto(cw, b, j)
		for _, s := range syndromes(c.rs, cw) {
			if s != 0 {
				bad++
				break
			}
		}
	}
	if bad != 1 {
		t.Fatalf("single DQ-lane flip corrupted %d codewords, want exactly 1", bad)
	}
}

func TestChipkillPropertySingleChipAnyScheme(t *testing.T) {
	type input struct {
		Seed int64
		Chip uint8
		Junk byte
	}
	for _, scheme := range []Scheme{SchemeSSC, SchemeSSCVariant, SchemeSSCDSD} {
		c := NewChipkill(scheme)
		f := func(in input) bool {
			if in.Junk == 0 {
				return true
			}
			rng := rand.New(rand.NewSource(in.Seed))
			data := randomPayload(rng, c.DataBytes())
			b := c.Encode(data)
			b.CorruptChip(int(in.Chip)%c.Chips(), in.Junk)
			got, _, err := c.Decode(b)
			return err == nil && bytes.Equal(got, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%v: %v", scheme, err)
		}
	}
}

func TestSchemeString(t *testing.T) {
	cases := map[Scheme]string{
		SchemeSSC:        "SSC",
		SchemeSSCVariant: "SSC-variant",
		SchemeSSCDSD:     "SSC-DSD",
		Scheme(99):       "Scheme(99)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

func BenchmarkChipkillEncodeSSC(b *testing.B) {
	c := NewChipkill(SchemeSSC)
	data := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Encode(data)
	}
}

func BenchmarkChipkillDecodeDeadChip(b *testing.B) {
	c := NewChipkill(SchemeSSC)
	data := make([]byte, 64)
	clean := c.Encode(data)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		burst := NewBurst(c.Chips())
		copy(burst.Chips, clean.Chips)
		burst.CorruptChip(9, 0x3C)
		if _, _, err := c.Decode(burst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChipkillEncodeIntoSSC(b *testing.B) {
	c := NewChipkill(SchemeSSC)
	data := make([]byte, 64)
	burst := NewBurst(c.Chips())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.EncodeInto(burst, data)
	}
}

func BenchmarkChipkillDecodeIntoDeadChip(b *testing.B) {
	c := NewChipkill(SchemeSSC)
	data := make([]byte, 64)
	clean := c.Encode(data)
	burst := NewBurst(c.Chips())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(burst.Chips, clean.Chips)
		burst.CorruptChip(9, 0x3C)
		if _, err := c.DecodeInto(data, burst); err != nil {
			b.Fatal(err)
		}
	}
}

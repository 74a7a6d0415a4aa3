package dram

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// The x4 path and the 4-bit interleaved MUX below are the halves of the
// Fig. 7 datapath that only the functional models in these tests drive:
// the rank model reads regular columns through them, and the Section 4.4
// checks pin the nibble interleave.

// LoadRegular loads one 32-bit column word (the chip's share of one
// cacheline burst) into buffer 0, the x4 path.
func (io *IOBuffer) LoadRegular(word [BufBytes]byte) {
	io.Buf[0] = word
}

// SerializeRegular returns the 32 bits the four DQs emit over eight beats
// in x4 mode: buffer 0, all lanes.
func (io *IOBuffer) SerializeRegular() [BufBytes]byte {
	return io.Buf[0]
}

// SerializeStrideFine returns the 16 bits two DQs emit for 4-bit strided
// granularity (Section 4.4): the interleaved MUX pairs lanes (2k, 2k+1) and
// picks the high or low nibble of each, so four 4-bit symbols — one per
// buffer-pair position — travel on two DQs in one burst.
//
// pair selects which lane pair (0 or 1), hi selects the nibble. The two
// returned bytes are the two DQs' eight beats each.
func (io *IOBuffer) SerializeStrideFine(pair int, hi bool) [2]byte {
	if pair < 0 || pair*2+1 >= LanesPerBuf {
		panic(fmt.Sprintf("dram: lane pair %d out of range", pair))
	}
	nib := func(b byte) byte {
		if hi {
			return b >> 4
		}
		return b & 0xF
	}
	var out [2]byte
	// DQ 0 carries buffers 0,1; DQ 1 carries buffers 2,3 — two 4-bit
	// symbols per DQ, interleaved between the paired lanes.
	out[0] = nib(io.Buf[0][pair*2]) | nib(io.Buf[1][pair*2+1])<<4
	out[1] = nib(io.Buf[2][pair*2]) | nib(io.Buf[3][pair*2+1])<<4
	return out
}

func randWords(rng *rand.Rand) [NumIOBuffers][BufBytes]byte {
	var w [NumIOBuffers][BufBytes]byte
	for b := range w {
		for l := range w[b] {
			w[b][l] = byte(rng.Intn(256))
		}
	}
	return w
}

func TestSerializeRegularReturnsBufferZero(t *testing.T) {
	var io IOBuffer
	io.LoadRegular([BufBytes]byte{1, 2, 3, 4})
	if io.SerializeRegular() != [BufBytes]byte{1, 2, 3, 4} {
		t.Fatal("regular serialization mismatch")
	}
}

func TestSerializeStrideExtractsLane(t *testing.T) {
	// Invariant 2 (DESIGN.md): Sx4_n returns exactly lane n of each buffer,
	// i.e. the same-offset byte of four consecutive column words.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		var io IOBuffer
		words := randWords(rng)
		io.LoadWide(words)
		for lane := 0; lane < LanesPerBuf; lane++ {
			got := io.SerializeStride(lane)
			for b := 0; b < NumIOBuffers; b++ {
				if got[b] != words[b][lane] {
					t.Fatalf("lane %d buffer %d: got %02x want %02x", lane, b, got[b], words[b][lane])
				}
			}
		}
	}
}

func TestTransposeIsInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var io IOBuffer
		io.LoadWide(randWords(rng))
		return io.Transpose().Transpose() == io
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestYZReadEqualsTransposedXYRead(t *testing.T) {
	// The 2-D buffer symmetry of SAM-en (Fig. 8c/d): reading "buffer" i
	// through the added yz serializers equals reading buffer i of the
	// transposed cube through the normal path.
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 50; trial++ {
		var io IOBuffer
		io.LoadWide(randWords(rng))
		tr := io.Transpose()
		for i := 0; i < NumIOBuffers; i++ {
			if io.SerializeYZ(i) != tr.Buf[i] {
				t.Fatalf("yz read %d differs from transposed buffer", i)
			}
		}
	}
}

func TestYZAndStrideAgreeOnContent(t *testing.T) {
	// SerializeYZ(i)[l] and SerializeStride(l)[i] both name Buf[l][i]-ish
	// cells; pin the exact relationship so layout regressions are caught.
	rng := rand.New(rand.NewSource(41))
	var io IOBuffer
	io.LoadWide(randWords(rng))
	for i := 0; i < NumIOBuffers; i++ {
		yz := io.SerializeYZ(i)
		for l := 0; l < LanesPerBuf; l++ {
			if yz[l] != io.Buf[l][i] {
				t.Fatalf("yz(%d)[%d] != Buf[%d][%d]", i, l, l, i)
			}
		}
	}
}

func TestSerializeStrideFineInterleavesNibbles(t *testing.T) {
	var io IOBuffer
	var words [NumIOBuffers][BufBytes]byte
	// Distinct nibbles everywhere: buffer b lane l = (b<<4)|l replicated.
	for b := 0; b < NumIOBuffers; b++ {
		for l := 0; l < LanesPerBuf; l++ {
			words[b][l] = byte(b<<4 | l)
		}
	}
	io.LoadWide(words)
	out := io.SerializeStrideFine(0, false)
	// DQ0 low nibble = low nibble of Buf[0][0] = 0; high = low nibble of Buf[1][1] = 1.
	if out[0] != 0x10 {
		t.Fatalf("fine DQ0 = %02x, want 0x10", out[0])
	}
	// DQ1 low = low nibble of Buf[2][0] = 0, high = low nibble of Buf[3][1] = 1.
	if out[1] != 0x10 {
		t.Fatalf("fine DQ1 = %02x, want 0x10", out[1])
	}
	hi := io.SerializeStrideFine(1, true)
	// pair 1 -> lanes 2,3; high nibbles of Buf[0][2] (=0) and Buf[1][3] (=1).
	if hi[0] != 0x10 {
		t.Fatalf("fine hi DQ0 = %02x", hi[0])
	}
}

func TestSerializeBoundsPanic(t *testing.T) {
	var io IOBuffer
	for name, fn := range map[string]func(){
		"stride lane": func() { io.SerializeStride(4) },
		"yz buffer":   func() { io.SerializeYZ(-1) },
		"fine pair":   func() { io.SerializeStrideFine(2, false) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of range did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestStrideModesCoverWholeBuffer(t *testing.T) {
	// The four stride modes together must read out every byte of the wide
	// fetch exactly once — no data is unreachable and none is duplicated.
	rng := rand.New(rand.NewSource(43))
	var io IOBuffer
	words := randWords(rng)
	io.LoadWide(words)
	seen := map[byte]int{}
	var total int
	for lane := 0; lane < LanesPerBuf; lane++ {
		out := io.SerializeStride(lane)
		for _, b := range out {
			seen[b]++
			total++
		}
	}
	if total != NumIOBuffers*LanesPerBuf {
		t.Fatalf("stride modes read %d bytes, want %d", total, NumIOBuffers*LanesPerBuf)
	}
	// Every source byte must be covered (values may repeat, so compare
	// multiset against the loaded words).
	want := map[byte]int{}
	for b := range words {
		for l := range words[b] {
			want[words[b][l]]++
		}
	}
	for v, n := range want {
		if seen[v] != n {
			t.Fatalf("byte %02x read %d times, want %d", v, seen[v], n)
		}
	}
}

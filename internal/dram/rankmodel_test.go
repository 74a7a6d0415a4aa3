package dram

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"sam/internal/ecc"
)

// RankModel is the functional (bit-level) model of one memory rank: every
// chip stores its slice of each row, and reads flow through the real I/O
// buffer datapath — LoadRegular/SerializeRegular for x4 accesses,
// LoadWide/SerializeStride for the Sx4_n stride modes, and the transposed
// serializers for SAM-en. Combined with the ecc codecs it closes the loop
// on the paper's reliability claims: the bytes a strided burst delivers
// are exactly the bytes whole chipkill codewords occupy.
//
// The timing model (Device) and this functional model are deliberately
// independent; tests wire them together.
type RankModel struct {
	chips    int
	rowBytes int // rank-level row size
	rows     map[int][]chipRow
	scheme   ecc.Scheme
	codec    *ecc.Chipkill
	pool     burstPool // burst free list; with the scratch codec, reads stop allocating bursts
}

type chipRow struct {
	data []byte // this chip's slice of the row, 4 bytes per burst column
}

// NewRankModel builds a functional rank for the chipkill scheme.
func NewRankModel(rowBytes int, scheme ecc.Scheme) *RankModel {
	codec := ecc.NewChipkill(scheme)
	if rowBytes%codec.DataBytes() != 0 {
		panic(fmt.Sprintf("dram: row %dB not a multiple of burst payload %dB", rowBytes, codec.DataBytes()))
	}
	return &RankModel{
		chips:    codec.Chips(),
		rowBytes: rowBytes,
		rows:     make(map[int][]chipRow),
		scheme:   scheme,
		codec:    codec,
	}
}

// Chips returns the rank width (data + check chips).
func (r *RankModel) Chips() int { return r.chips }

// ColumnsPerRow returns how many burst-sized columns one row holds.
func (r *RankModel) ColumnsPerRow() int { return r.rowBytes / r.codec.DataBytes() }

// chipRowBytes is each chip's share of a row: 4 bytes per column word.
func (r *RankModel) chipRowBytes() int { return r.ColumnsPerRow() * ecc.BytesPerChip }

func (r *RankModel) row(idx int, create bool) []chipRow {
	row, ok := r.rows[idx]
	if !ok && create {
		row = make([]chipRow, r.chips)
		for c := range row {
			row[c].data = make([]byte, r.chipRowBytes())
		}
		r.rows[idx] = row
	}
	return row
}

// WriteColumn encodes data (one burst payload) with fresh check symbols and
// stores it at (row, col) across the chips.
func (r *RankModel) WriteColumn(rowIdx, col int, data []byte) {
	if col < 0 || col >= r.ColumnsPerRow() {
		panic(fmt.Sprintf("dram: column %d out of row", col))
	}
	burst := r.pool.Get(r.chips)
	r.codec.EncodeInto(burst, data)
	row := r.row(rowIdx, true)
	off := col * ecc.BytesPerChip
	for c := 0; c < r.chips; c++ {
		copy(row[c].data[off:off+ecc.BytesPerChip], burst.Chips[c][:])
	}
	r.pool.Put(burst)
}

// readBurst gathers the raw burst stored at (row, col) into a pooled burst
// the caller must Put back; missing rows read as zero (a valid all-zero
// codeword region is NOT guaranteed, so callers should only read what they
// wrote).
func (r *RankModel) readBurst(rowIdx, col int) *ecc.Burst {
	b := r.pool.Get(r.chips)
	row := r.row(rowIdx, false)
	if row == nil {
		return b
	}
	off := col * ecc.BytesPerChip
	for c := 0; c < r.chips; c++ {
		copy(b.Chips[c][:], row[c].data[off:off+ecc.BytesPerChip])
	}
	return b
}

// ReadColumn performs a regular access: fetch the column through each
// chip's x4 path (buffer 0) and decode the chipkill codewords.
func (r *RankModel) ReadColumn(rowIdx, col int) (data []byte, corrected int, err error) {
	raw := r.readBurst(rowIdx, col)
	onBus := r.pool.Get(r.chips)
	for c := 0; c < r.chips; c++ {
		var io IOBuffer
		io.LoadRegular(raw.Chips[c])
		onBus.Chips[c] = io.SerializeRegular()
	}
	data, corrected, err = r.codec.Decode(onBus)
	r.pool.Put(raw)
	r.pool.Put(onBus)
	return data, corrected, err
}

// ReadStride performs an Sx4_lane access: each chip wide-fetches four
// consecutive columns starting at baseCol into its four I/O buffers and
// serializes lane `lane` of each — delivering the same-offset byte of four
// consecutive columns in one burst. The returned payload is the gathered
// strided data; under the SSC-variant layout it still decodes as whole
// codewords (the SAM-IO compatibility argument of Section 4.2.2).
func (r *RankModel) ReadStride(rowIdx, baseCol, lane int) []byte {
	if baseCol%NumIOBuffers != 0 {
		panic("dram: stride base column must be buffer-aligned")
	}
	out := make([]byte, r.chips*ecc.BytesPerChip)
	for c := 0; c < r.chips; c++ {
		var io IOBuffer
		var words [NumIOBuffers][BufBytes]byte
		for w := 0; w < NumIOBuffers; w++ {
			b := r.readBurst(rowIdx, baseCol+w)
			words[w] = b.Chips[c]
			r.pool.Put(b)
		}
		io.LoadWide(words)
		lanes := io.SerializeStride(lane)
		copy(out[c*ecc.BytesPerChip:], lanes[:])
	}
	return out
}

// GatherExpected computes, straight from the stored rows, the bytes a
// strided read *should* return: byte `lane` of chip c's word in each of
// the four columns. Tests compare ReadStride against this independent
// path.
func (r *RankModel) GatherExpected(rowIdx, baseCol, lane int) []byte {
	out := make([]byte, r.chips*ecc.BytesPerChip)
	for c := 0; c < r.chips; c++ {
		for w := 0; w < NumIOBuffers; w++ {
			b := r.readBurst(rowIdx, baseCol+w)
			out[c*ecc.BytesPerChip+w] = b.Chips[c][lane]
			r.pool.Put(b)
		}
	}
	return out
}

// CorruptChipRow simulates a dead chip for one whole row.
func (r *RankModel) CorruptChipRow(rowIdx, chip int, garbage byte) {
	row := r.row(rowIdx, true)
	for i := range row[chip].data {
		row[chip].data[i] ^= garbage
	}
}

// ReadColumnCorrected reads a column and reports whether ECC had to work.
func (r *RankModel) ReadColumnCorrected(rowIdx, col int) ([]byte, bool, error) {
	data, n, err := r.ReadColumn(rowIdx, col)
	return data, n > 0, err
}

// burstPool is a free list of Bursts keyed by chip count, so the rank
// model's reads stop allocating bursts. Get returns a zeroed burst
// (recycled bursts carry the prior transfer's corruption, so the Get path
// always zeroes it); Put recycles a burst of any geometry. The pool is not
// goroutine-safe: one pool belongs to one rank model.
type burstPool struct {
	free map[int][]*ecc.Burst
}

// Get returns an all-zero burst with the given chip count, reusing a
// recycled one when available.
func (p *burstPool) Get(chips int) *ecc.Burst {
	if list := p.free[chips]; len(list) > 0 {
		b := list[len(list)-1]
		p.free[chips] = list[:len(list)-1]
		clear(b.Chips)
		return b
	}
	return ecc.NewBurst(chips)
}

// Put recycles a burst for a later Get of the same chip count.
func (p *burstPool) Put(b *ecc.Burst) {
	if b == nil {
		return
	}
	if p.free == nil {
		p.free = make(map[int][]*ecc.Burst)
	}
	p.free[len(b.Chips)] = append(p.free[len(b.Chips)], b)
}

func filledRank(t *testing.T, rng *rand.Rand, scheme ecc.Scheme, rows, cols int) (*RankModel, [][]([]byte)) {
	t.Helper()
	codec := ecc.NewChipkill(scheme)
	r := NewRankModel(cols*codec.DataBytes(), scheme)
	stored := make([][]([]byte), rows)
	for row := 0; row < rows; row++ {
		stored[row] = make([][]byte, cols)
		for col := 0; col < cols; col++ {
			data := make([]byte, codec.DataBytes())
			rng.Read(data)
			r.WriteColumn(row, col, data)
			stored[row][col] = data
		}
	}
	return r, stored
}

func TestRankRegularReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	r, stored := filledRank(t, rng, ecc.SchemeSSC, 4, 8)
	for row := range stored {
		for col := range stored[row] {
			got, corrected, err := r.ReadColumn(row, col)
			if err != nil {
				t.Fatalf("(%d,%d): %v", row, col, err)
			}
			if corrected != 0 {
				t.Fatalf("(%d,%d): spurious correction", row, col)
			}
			if !bytes.Equal(got, stored[row][col]) {
				t.Fatalf("(%d,%d): data mismatch", row, col)
			}
		}
	}
}

func TestRankStrideReadMatchesIndependentGather(t *testing.T) {
	// Invariant 2 end to end: the Sx4_n datapath output equals a gather
	// computed without the I/O buffer model.
	rng := rand.New(rand.NewSource(103))
	r, _ := filledRank(t, rng, ecc.SchemeSSC, 2, 16)
	for row := 0; row < 2; row++ {
		for base := 0; base < 16; base += NumIOBuffers {
			for lane := 0; lane < LanesPerBuf; lane++ {
				got := r.ReadStride(row, base, lane)
				want := r.GatherExpected(row, base, lane)
				if !bytes.Equal(got, want) {
					t.Fatalf("row %d base %d lane %d: stride datapath diverges", row, base, lane)
				}
			}
		}
	}
}

func TestRankStrideGathersStoredBytes(t *testing.T) {
	// The strided payload must consist of the same-offset bytes of the
	// four gathered columns' stored payloads (for data chips; check chips
	// carry check symbols).
	rng := rand.New(rand.NewSource(107))
	codec := ecc.NewChipkill(ecc.SchemeSSC)
	r, stored := filledRank(t, rng, ecc.SchemeSSC, 1, 4)
	lane := 2
	got := r.ReadStride(0, 0, lane)
	// Chip c's stored byte at lane `lane` of column w is byte (lane) of
	// its 4-byte word; relate it back through the SSC layout: chip c holds
	// data[16*j + c] as byte j (codeword j of the burst).
	for c := 0; c < ecc.SSCDataChips; c++ {
		for w := 0; w < NumIOBuffers; w++ {
			want := stored[0][w][16*lane+c]
			if got[c*ecc.BytesPerChip+w] != want {
				t.Fatalf("chip %d col %d: %02x, want %02x", c, w, got[c*ecc.BytesPerChip+w], want)
			}
		}
	}
	_ = codec
}

func TestRankDeadChipCorrectedOnRegularRead(t *testing.T) {
	// Invariant 3: a dead chip is corrected on every column of the row.
	rng := rand.New(rand.NewSource(109))
	for _, scheme := range []ecc.Scheme{ecc.SchemeSSC, ecc.SchemeSSCDSD} {
		r, stored := filledRank(t, rng, scheme, 2, 4)
		dead := rng.Intn(r.Chips())
		r.CorruptChipRow(1, dead, 0x5A)
		for col := 0; col < 4; col++ {
			got, corrected, err := r.ReadColumnCorrected(1, col)
			if err != nil {
				t.Fatalf("%v col %d: %v", scheme, col, err)
			}
			if !corrected {
				t.Fatalf("%v col %d: corruption missed", scheme, col)
			}
			if !bytes.Equal(got, stored[1][col]) {
				t.Fatalf("%v col %d: wrong correction", scheme, col)
			}
		}
		// The untouched row still reads clean.
		if _, corrected, err := r.ReadColumn(0, 0); err != nil || corrected != 0 {
			t.Fatalf("%v: clean row disturbed (corrected=%v err=%v)", scheme, corrected, err)
		}
	}
}

func TestRankStrideLanePartition(t *testing.T) {
	// The four lanes of a stride group partition the four columns' bytes:
	// reading all four lanes reconstructs all four column words exactly.
	rng := rand.New(rand.NewSource(113))
	r, _ := filledRank(t, rng, ecc.SchemeSSC, 1, 4)
	rebuilt := make([][]byte, NumIOBuffers)
	for w := range rebuilt {
		rebuilt[w] = make([]byte, r.Chips()*ecc.BytesPerChip)
	}
	for lane := 0; lane < LanesPerBuf; lane++ {
		got := r.ReadStride(0, 0, lane)
		for c := 0; c < r.Chips(); c++ {
			for w := 0; w < NumIOBuffers; w++ {
				rebuilt[w][c*ecc.BytesPerChip+lane] = got[c*ecc.BytesPerChip+w]
			}
		}
	}
	for w := 0; w < NumIOBuffers; w++ {
		raw := r.readBurst(0, w)
		for c := 0; c < r.Chips(); c++ {
			if !bytes.Equal(rebuilt[w][c*ecc.BytesPerChip:(c+1)*ecc.BytesPerChip], raw.Chips[c][:]) {
				t.Fatalf("lane union does not rebuild column %d chip %d", w, c)
			}
		}
	}
}

func TestRankPropertyWriteReadAnyScheme(t *testing.T) {
	for _, scheme := range []ecc.Scheme{ecc.SchemeSSC, ecc.SchemeSSCVariant, ecc.SchemeSSCDSD} {
		codec := ecc.NewChipkill(scheme)
		r := NewRankModel(8*codec.DataBytes(), scheme)
		f := func(seed int64, row uint8, col uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			data := make([]byte, codec.DataBytes())
			rng.Read(data)
			ri, ci := int(row)%4, int(col)%8
			r.WriteColumn(ri, ci, data)
			got, _, err := r.ReadColumn(ri, ci)
			return err == nil && bytes.Equal(got, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%v: %v", scheme, err)
		}
	}
}

func TestRankGeometryValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("misaligned row size accepted")
		}
	}()
	NewRankModel(100, ecc.SchemeSSC)
}

func TestRankColumnBounds(t *testing.T) {
	r := NewRankModel(512, ecc.SchemeSSC)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-row column accepted")
		}
	}()
	r.WriteColumn(0, 99, make([]byte, 64))
}

func TestRankStrideBaseAlignment(t *testing.T) {
	r := NewRankModel(512, ecc.SchemeSSC)
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned stride base accepted")
		}
	}()
	r.ReadStride(0, 1, 0)
}

// TestBurstPoolRecycledBurstIsClean is the regression test for the reuse
// bug class the pool must not reopen: a burst that went through fault injection and
// decode-with-corrections must come back from the pool with no trace of the
// prior fault pattern, so a clean encode/decode cycle on it sees zero
// corrections.
func TestBurstPoolRecycledBurstIsClean(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	c := ecc.NewChipkill(ecc.SchemeSSC)
	var pool burstPool
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
		if got.Chips[ch] != [ecc.BytesPerChip]byte{} {
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
	var pool burstPool
	pool.Put(ecc.NewBurst(ecc.SSCChips))
	b := pool.Get(ecc.SSCDSDChips)
	if len(b.Chips) != ecc.SSCDSDChips {
		t.Fatalf("Get(%d) returned a %d-chip burst", ecc.SSCDSDChips, len(b.Chips))
	}
	if list := pool.free[ecc.SSCChips]; len(list) != 1 {
		t.Fatalf("the %d-chip burst should still be pooled", ecc.SSCChips)
	}
}

func randomPayload(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

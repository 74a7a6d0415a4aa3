package dram

import (
	"fmt"

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
	pool     ecc.BurstPool // burst free list; with the scratch codec, reads stop allocating bursts
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

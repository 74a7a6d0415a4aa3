package dram

import "fmt"

// This file is the functional model of the common-die I/O path of one x4
// chip (Fig. 7): four 32-bit I/O buffers, each divided into four 8-bit
// lanes, feeding sixteen drivers through serializers. Regular x4 operation
// uses one buffer and four drivers; SAM's stride modes fill all four
// buffers and serialize one lane of each; SAM-en adds a second serializer
// direction (the "two-dimensional I/O buffer", Fig. 8) and the interleaved
// MUX for 4-bit granularity (Fig. 9).

// I/O buffer geometry.
const (
	NumIOBuffers = 4 // common die integrates the full x16 buffer set
	LanesPerBuf  = 4 // each 32-bit buffer has four 8-bit lanes
	BufBytes     = 4 // 32 bits
)

// IOBuffer models the chip's four I/O buffers. Buf[b][l] is lane l of
// buffer b; in x4 operation only buffer 0 is used.
type IOBuffer struct {
	Buf [NumIOBuffers][LanesPerBuf]byte
}

// LoadWide loads four column words — the chip's share of four consecutive
// cachelines — into all four buffers, the x16-class internal fetch stride
// modes perform.
func (io *IOBuffer) LoadWide(words [NumIOBuffers][BufBytes]byte) {
	io.Buf = words
}

// SerializeStride returns the 32 bits emitted in Sx4_lane mode: lane
// `lane` of each of the four buffers, driven by drivers
// [lane, lane+4, lane+8, lane+12] (the table in Fig. 7).
func (io *IOBuffer) SerializeStride(lane int) [BufBytes]byte {
	if lane < 0 || lane >= LanesPerBuf {
		panic(fmt.Sprintf("dram: stride lane %d out of range", lane))
	}
	var out [BufBytes]byte
	for b := 0; b < NumIOBuffers; b++ {
		out[b] = io.Buf[b][lane]
	}
	return out
}

// SerializeYZ reads the two-dimensional buffer along the yz-plane
// (SAM-en option 2, Fig. 8d): conceptually the four buffers form a 4x4x(2b)
// cube, and the second serializer set reads the transposed view, returning
// "buffer" yz of the symmetric layout. SerializeYZ(i) of the original
// equals buffer i of its Transpose.
func (io *IOBuffer) SerializeYZ(yzBuffer int) [BufBytes]byte {
	if yzBuffer < 0 || yzBuffer >= NumIOBuffers {
		panic(fmt.Sprintf("dram: yz buffer %d out of range", yzBuffer))
	}
	var out [BufBytes]byte
	for l := 0; l < LanesPerBuf; l++ {
		out[l] = io.Buf[l][yzBuffer]
	}
	return out
}

// Transpose returns the yz-plane view of the buffer cube: buffer and lane
// indices exchanged. Transposing twice is the identity — the symmetry that
// makes the two serializer directions equivalent in latency (Section 4.3).
func (io IOBuffer) Transpose() IOBuffer {
	var t IOBuffer
	for b := 0; b < NumIOBuffers; b++ {
		for l := 0; l < LanesPerBuf; l++ {
			t.Buf[l][b] = io.Buf[b][l]
		}
	}
	return t
}

package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
	"slices"

	"sam/internal/dram"
	"sam/internal/sql"
)

// MissLog is one run's front-end stream, recorded: every cache-level
// operation the executor and cache hierarchy handed the memory back end
// (line fills and their writebacks, strided fetches with their lane,
// strided and flushed writebacks) with the core clock at which it was
// issued, plus the run's final clock and its functional result.
//
// Every evaluated design is a memory-side mechanism under one core and
// cache model, and no memory timing flows back into the front end, so the
// stream depends only on what the front end reads: the layout geometry,
// the cache and core parameters, the workload and the query. Replaying a
// log into the back end of any design whose front end matches the
// recording's therefore reproduces that design's live run exactly, while
// skipping the executor and cache work.
//
// Operations are delta-encoded, two bytes for most: a header byte (kind,
// write, sectored, lane, and a clock delta below 3), the clock delta as a
// uvarint when it is larger, and the address delta from the previous
// operation of the same kind as a zigzag varint — in lines for the
// line-aligned fills and writebacks, in bytes for gathers.
type MissLog struct {
	// chunks hold the encoded operations, each op whole within one chunk;
	// fixed-size chunks grow the log without copying it.
	chunks [][]byte
	end    dram.Cycle // the front end's final clock
	res    QueryResult
	shift  uint // log2 of the line size

	// Encoder state: the last clock and the last address per kind.
	clock dram.Cycle
	addr  [3]uint64
}

// Bytes reports the encoded size of the operation stream.
func (l *MissLog) Bytes() int {
	n := 0
	for _, c := range l.chunks {
		n += len(c)
	}
	return n
}

// Digest is the SHA-256 of the whole recorded stream — every operation,
// the final clock and the functional result — so two runs with equal
// digests had equal front ends.
func (l *MissLog) Digest() string {
	enc, err := EncodeResult(&l.res)
	if err != nil {
		panic(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%d/", l.end)
	for _, c := range l.chunks {
		h.Write(c)
	}
	h.Write(enc)
	return hex.EncodeToString(h.Sum(nil))
}

// The header byte's fields.
const (
	hdrKind      = 3
	hdrWrite     = 1 << 2
	hdrSectored  = 1 << 3
	hdrLaneShift = 4
	hdrLane      = 3 << hdrLaneShift
	hdrTickShift = 6 // clock delta; hdrTickFar means a uvarint follows
	hdrTickFar   = 3
)

// unit is the address unit of kind k's deltas, as a shift.
func (l *MissLog) unit(k opKind) uint {
	if k == opGather {
		return 0
	}
	return l.shift
}

// chunkBytes is the size of a log chunk, and maxOpBytes bounds one
// encoded operation: a header and two 64-bit varints.
const (
	chunkBytes = 64 << 10
	maxOpBytes = 1 + 2*binary.MaxVarintLen64
)

// append encodes one operation.
func (l *MissLog) append(op missOp) {
	n := len(l.chunks)
	if n == 0 || cap(l.chunks[n-1])-len(l.chunks[n-1]) < maxOpBytes {
		l.chunks = append(l.chunks, make([]byte, 0, chunkBytes))
		n++
	}
	buf := l.chunks[n-1]
	h := byte(op.kind) | op.lane<<hdrLaneShift
	if op.write {
		h |= hdrWrite
	}
	if op.sectored {
		h |= hdrSectored
	}
	tick := uint64(op.clock - l.clock)
	if tick < hdrTickFar {
		buf = append(buf, h|byte(tick)<<hdrTickShift)
	} else {
		buf = binary.AppendUvarint(append(buf, h|hdrTickFar<<hdrTickShift), tick)
	}
	u := l.unit(op.kind)
	if op.addr&(1<<u-1) != 0 {
		panic(fmt.Sprintf("sim: miss log op %+v is not line aligned", op))
	}
	l.chunks[n-1] = binary.AppendVarint(buf, int64(op.addr-l.addr[op.kind])>>u)
	l.clock, l.addr[op.kind] = op.clock, op.addr
}

// seal stores the run's functional result and trims the last chunk.
func (l *MissLog) seal(r *QueryResult) {
	l.res = *r
	l.res.Stats = RunStats{}
	if n := len(l.chunks); n > 0 {
		l.chunks[n-1] = slices.Clip(append([]byte(nil), l.chunks[n-1]...))
	}
}

// RecordPlan executes p like RunPlan and also returns the run's miss log.
func (s *System) RecordPlan(p *sql.Plan) (*QueryResult, *MissLog, error) {
	l := &MissLog{shift: uint(bits.TrailingZeros(uint(s.Design.Mem.Geometry.LineBytes)))}
	r, err := s.runPlan(p, l)
	if err != nil {
		return nil, nil, err
	}
	l.seal(r)
	return r, l, nil
}

// Replay runs a recorded front-end stream through s's memory back end and
// returns the run: l's functional result, whose slices and map it shares,
// with s's own run statistics. It equals running the recorded query live
// on s whenever s's front end matches the recording system's; s's caches
// and tables are not touched.
func (s *System) Replay(l *MissLog) *QueryResult {
	b := newBackEnd(s)
	var op missOp
	var addr [3]uint64
	for _, buf := range l.chunks {
		for len(buf) > 0 {
			h := buf[0]
			buf = buf[1:]
			tick := uint64(h >> hdrTickShift)
			if tick == hdrTickFar {
				var n int
				tick, n = binary.Uvarint(buf)
				buf = buf[n:]
			}
			da, n := binary.Varint(buf)
			buf = buf[n:]
			op.kind = opKind(h & hdrKind)
			op.write = h&hdrWrite != 0
			op.sectored = h&hdrSectored != 0
			op.lane = h & hdrLane >> hdrLaneShift
			op.clock += dram.Cycle(tick)
			addr[op.kind] += uint64(da << l.unit(op.kind))
			op.addr = addr[op.kind]
			b.issue(op)
		}
	}
	r := l.res
	r.Stats = b.finishAt(l.end)
	return &r
}

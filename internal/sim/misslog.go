package sim

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"sam/internal/dram"
	"sam/internal/sql"
)

// MissLog is one run's front-end stream: every cache-level operation the
// executor and cache hierarchy hand the memory back end (line fills and
// their writebacks, strided fetches with their lane, strided and flushed
// writebacks) with the core clock at which it was issued, plus the run's
// final clock and its functional result. Every run is two stages joined
// by one: the front end (engine) only appends to it, and the back end
// only sees what a chunkDecoder reads out of it. RunPlan streams its log,
// decoding each full chunk and reusing its buffer; RecordPlan keeps every
// chunk for Replay.
//
// Every evaluated design is a memory-side mechanism under one core and
// cache model, and no memory timing flows back into the front end, so the
// operations depend only on what the front end reads: the layout
// geometry, the cache and core parameters, the workload and the query.
// The clocks depend on one design term more: a design without
// critical-word-first delivery charges every gather miss its burst length
// (ClockVariant). A log therefore keeps one clock per variant it was
// recorded for, and replaying it into the back end of any design whose
// front end matches the recording's, on that design's own variant clock,
// gives exactly the design's own run while skipping the executor and
// cache work.
//
// Operations are delta-encoded, two bytes for most: a header byte (kind,
// write, sectored, lane, and a first-clock delta below 3), the delta as a
// uvarint when it is larger, then one zigzag varint per further clock
// (the change in its lead over the first clock, one byte), and the
// address delta from the previous operation of the same kind as a zigzag
// varint — in lines for the line-aligned fills and writebacks, in bytes
// for gathers.
type MissLog struct {
	// chunks hold the encoded operations, each op whole within one chunk;
	// fixed-size chunks grow the log without copying it. A streamed log
	// has one.
	chunks   [][]byte
	variants []ClockVariant // the clocks the log keeps
	ends     []dram.Cycle   // each clock's final value
	res      QueryResult
	shift    uint // log2 of the line size

	// Encoder state: each clock and the address of each kind at the last
	// operation.
	last []dram.Cycle
	addr [3]uint64

	stream *chunkDecoder // when set, decodes each full chunk for reuse
}

// newMissLog starts a log of s's front end with one clock per variant in
// variants, in that order.
func newMissLog(s *System, variants []ClockVariant) *MissLog {
	return &MissLog{
		variants: variants,
		shift:    uint(bits.TrailingZeros(uint(s.Design.Mem.Geometry.LineBytes))),
		last:     make([]dram.Cycle, len(variants)),
	}
}

// Bytes reports the encoded size of the operation stream.
func (l *MissLog) Bytes() int {
	n := 0
	for _, c := range l.chunks {
		n += len(c)
	}
	return n
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

// unit is the address unit of kind k's deltas, as a shift, in a log
// whose line shift is shift.
func unit(k opKind, shift uint) uint {
	if k == opGather {
		return 0
	}
	return shift
}

// chunkBytes is the size of a log chunk.
const chunkBytes = 64 << 10

// maxOpBytes bounds one encoded operation: a header and a 64-bit varint
// per clock and for the address.
func (l *MissLog) maxOpBytes() int { return 1 + (len(l.variants)+1)*binary.MaxVarintLen64 }

// append encodes one operation at clocks, one per variant.
func (l *MissLog) append(op missOp, clocks []coreClock) {
	n := len(l.chunks)
	if n == 0 || cap(l.chunks[n-1])-len(l.chunks[n-1]) < l.maxOpBytes() {
		if l.stream != nil {
			l.flush()
		} else {
			l.chunks = append(l.chunks, make([]byte, 0, chunkBytes))
			n++
		}
	}
	buf := l.chunks[n-1]
	h := byte(op.kind) | op.lane<<hdrLaneShift
	if op.write {
		h |= hdrWrite
	}
	if op.sectored {
		h |= hdrSectored
	}
	tick := uint64(clocks[0].now - l.last[0])
	if tick < hdrTickFar {
		buf = append(buf, h|byte(tick)<<hdrTickShift)
	} else {
		buf = binary.AppendUvarint(append(buf, h|hdrTickFar<<hdrTickShift), tick)
	}
	for i := 1; i < len(clocks); i++ {
		buf = binary.AppendVarint(buf, (clocks[i].now-clocks[0].now)-(l.last[i]-l.last[0]))
		l.last[i] = clocks[i].now
	}
	l.last[0] = clocks[0].now
	u := unit(op.kind, l.shift)
	if op.addr&(1<<u-1) != 0 {
		panic(fmt.Sprintf("sim: miss log op %+v is not line aligned", op))
	}
	l.chunks[n-1] = binary.AppendVarint(buf, int64(op.addr-l.addr[op.kind])>>u)
	l.addr[op.kind] = op.addr
}

// flush decodes a streamed log's chunk into the back end and empties it.
func (l *MissLog) flush() {
	l.stream.decode(l.chunks[0])
	l.chunks[0] = l.chunks[0][:0]
}

// RecordPlan runs p's front end on s and returns its miss log, with one
// clock per variant in variants, in that order — the clocks of every
// front end that differs from s's only in its critical-word delivery. s's memory back end is not touched; Replay turns the log into
// a run.
func (s *System) RecordPlan(p *sql.Plan, variants ...ClockVariant) (*MissLog, error) {
	l := newMissLog(s, variants)
	r, err := s.runFrontEnd(p, l)
	if err != nil {
		return nil, err
	}
	l.res = *r
	if n := len(l.chunks); n > 0 { // trim the last chunk
		l.chunks[n-1] = slices.Clip(append([]byte(nil), l.chunks[n-1]...))
	}
	return l, nil
}

// Replay runs a recorded front-end stream, at variant v's clock, through
// s's memory back end and returns the run: l's functional result, whose
// slices and map it shares, with s's own run statistics. It equals running
// the recorded query on s whenever s's front end matches the recording
// system's and ticks clock v; s's caches and tables are not touched.
// Replay panics if l has no clock v.
func (s *System) Replay(l *MissLog, v ClockVariant) *QueryResult {
	at := slices.Index(l.variants, v)
	if at < 0 {
		panic(fmt.Sprintf("sim: miss log has no clock variant %d", v))
	}
	b := newBackEnd(s)
	d := chunkDecoder{b: &b, log: l, at: at}
	for _, c := range l.chunks {
		d.decode(c)
	}
	r := l.res
	r.Stats = b.finishAt(l.ends[at])
	return &r
}

// chunkDecoder reads a log's chunks, in order, back into operations at
// one of its clocks and issues them to a back end. It is the only way
// operations reach a back end.
type chunkDecoder struct {
	b   *backEnd
	log *MissLog
	at  int // the clock the back end is fed

	// The address of each kind, the first clock and clock at's lead over
	// it at the last operation decoded.
	addr        [3]uint64
	first, lead dram.Cycle
}

// decode issues one chunk's operations.
func (d *chunkDecoder) decode(buf []byte) {
	var op missOp
	for len(buf) > 0 {
		h := buf[0]
		buf = buf[1:]
		tick := uint64(h >> hdrTickShift)
		if tick == hdrTickFar {
			var n int
			tick, n = binary.Uvarint(buf)
			buf = buf[n:]
		}
		d.first += dram.Cycle(tick)
		for i := 1; i < len(d.log.variants); i++ {
			v, n := binary.Varint(buf)
			buf = buf[n:]
			if i == d.at {
				d.lead += v
			}
		}
		da, n := binary.Varint(buf)
		buf = buf[n:]
		op.kind = opKind(h & hdrKind)
		op.write = h&hdrWrite != 0
		op.sectored = h&hdrSectored != 0
		op.lane = h & hdrLane >> hdrLaneShift
		op.clock = d.first + d.lead
		d.addr[op.kind] += uint64(da << unit(op.kind, d.log.shift))
		op.addr = d.addr[op.kind]
		d.b.issue(op)
	}
}

// Package etrace is the cycle-accurate event-tracing subsystem: a
// ring-buffered recorder for request-lifecycle spans (enqueue → scheduled →
// DRAM commands → completion) and per-command DRAM timelines, a windowed
// statistics sampler, and exporters to the Chrome trace-event / Perfetto
// JSON format and a CSV time series.
//
// The recorder attaches to the memory system through two consumer-side
// interfaces — mc.Tracer (request lifecycle, emitted by mc.Controller) and
// dram.CmdTracer (per-command, emitted by dram.Device.Issue) — both
// implemented by the per-channel handles Buffer.Channel returns. The hook
// fields are nil-checkable, so with tracing disabled the controller's
// service loop stays on its allocation-free fast path; with tracing enabled
// every event lands in a bounded ring that drops the oldest events beyond
// capacity (Dropped counts the loss).
//
// Timestamps are bus cycles throughout, matching dram.Cycle. The Chrome
// exporter writes one bus cycle per trace-event microsecond tick (the
// format's native unit), so a Perfetto timeline reads directly in cycles.
package etrace

import (
	"sam/internal/dram"
	"sam/internal/mc"
)

// Kind discriminates the event union.
type Kind uint8

// Event kinds.
const (
	// KindEnqueue is a request entering the controller queue.
	KindEnqueue Kind = iota
	// KindSchedule is FR-FCFS dequeuing a request for service.
	KindSchedule
	// KindComplete is a request's column access resolving; the event
	// carries the whole span (Arrival..DataEnd).
	KindComplete
	// KindCommand is one DRAM command applied by the device.
	KindCommand
	// KindFault is a detected-uncorrectable read burst: one event per
	// failed attempt (QDepth carries the attempt number), with FlagPoisoned
	// marking the final give-up.
	KindFault
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindEnqueue:
		return "enqueue"
	case KindSchedule:
		return "schedule"
	case KindComplete:
		return "complete"
	case KindCommand:
		return "command"
	case KindFault:
		return "fault"
	default:
		return "unknown"
	}
}

// Event flags.
const (
	FlagWrite uint8 = 1 << iota
	FlagStride
	FlagGang
	FlagRowHit
	FlagRowEmpty
	FlagPoisoned
)

// Event is one fixed-size trace record. Request events (Enqueue, Schedule,
// Complete) fill the ID/Addr/Bank/QDepth fields and leave Rank/Group at -1;
// command events fill Cmd/Mode and the full Rank/Group/Bank coordinates.
type Event struct {
	Kind  Kind
	Cmd   dram.CmdKind
	Mode  dram.IOMode
	Flags uint8
	Lane  uint8
	Chan  int16
	Rank  int16
	Group int16
	Bank  int32
	Row   int32
	Col   int32
	// QDepth is the total queued requests after an enqueue.
	QDepth int32
	ID     uint64
	Addr   uint64
	// At is the event's own time: arrival for Enqueue, dequeue time for
	// Schedule, column issue for Complete, issue time for Command.
	At int64
	// Arrival..DataEnd bound the request span on Complete events;
	// DataStart/DataEnd also carry the burst window of column commands.
	Arrival   int64
	DataStart int64
	DataEnd   int64
	// Done is when a command's effects complete (tRCD after ACT, tRP after
	// PRE, tRFC after REF, data end for columns).
	Done int64
}

// ClassName is the request's class label ("read", "write", "stride read",
// "stride write") derived from the flags.
func (e Event) ClassName() string {
	switch e.Flags & (FlagWrite | FlagStride) {
	case FlagWrite | FlagStride:
		return "stride write"
	case FlagWrite:
		return "write"
	case FlagStride:
		return "stride read"
	default:
		return "read"
	}
}

// DefaultCapacity is the event-ring capacity used when none is given:
// plenty for any single benchmark query at the default workload scale.
const DefaultCapacity = 1 << 20

// Buffer is the bounded event recorder. One buffer serves every channel of
// a system, but each channel's tracer owns a private ring (bounded by the
// buffer capacity), so a busy channel never evicts a quiet one's events.
type Buffer struct {
	// Name labels the buffer in exports (typically the design name).
	Name string

	cap   int
	chans []*ChannelTracer
}

// NewBuffer builds a buffer whose per-channel rings hold at most capacity
// events each (<= 0 selects DefaultCapacity). Storage grows on demand up to
// the bound, so small runs never pay for an oversized ring.
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Buffer{cap: capacity}
}

// Channel returns the tracer handle for one channel. Handles are cached:
// repeated calls return the same *ChannelTracer, so the controller and the
// device of a channel share one identity.
func (b *Buffer) Channel(ch int) *ChannelTracer {
	for len(b.chans) <= ch {
		b.chans = append(b.chans, nil)
	}
	if b.chans[ch] == nil {
		b.chans[ch] = &ChannelTracer{b: b, ch: int16(ch)}
	}
	return b.chans[ch]
}

// Len returns the number of retained events across all channels.
func (b *Buffer) Len() int {
	n := 0
	for _, t := range b.chans {
		if t != nil {
			n += len(t.events)
		}
	}
	return n
}

// Dropped returns how many events the rings have overwritten, summed across
// channels.
func (b *Buffer) Dropped() uint64 {
	var n uint64
	for _, t := range b.chans {
		if t != nil {
			n += t.dropped
		}
	}
	return n
}

// Capacity returns the per-channel ring bound.
func (b *Buffer) Capacity() int { return b.cap }

// Events returns the retained events, each channel's oldest-first, channels
// concatenated in index order. Within a channel the sequence is exact
// emission order; across channels events interleave by channel block, so
// time-ordered consumers (the Chrome exporter) sort by timestamp — which
// they already did, since even a single serial ring interleaves channels by
// completion order, not by time.
func (b *Buffer) Events() []Event {
	n := b.Len()
	out := make([]Event, 0, n)
	for _, t := range b.chans {
		if t == nil {
			continue
		}
		out = append(out, t.events[t.start:]...)
		out = append(out, t.events[:t.start]...)
	}
	return out
}

// ChannelTracer records one channel's events into that channel's private
// ring. It implements both mc.Tracer and dram.CmdTracer, so the same handle
// attaches to a channel's controller and device.
type ChannelTracer struct {
	b       *Buffer
	ch      int16
	events  []Event // grows up to b.cap, then wraps
	start   int     // index of the oldest event once wrapped
	dropped uint64
}

// add appends one event, overwriting the oldest once the ring is full.
func (t *ChannelTracer) add(e Event) {
	if len(t.events) < t.b.cap {
		t.events = append(t.events, e)
		return
	}
	t.events[t.start] = e
	t.start++
	if t.start == t.b.cap {
		t.start = 0
	}
	t.dropped++
}

func reqFlags(isWrite, stride, gang bool) uint8 {
	var f uint8
	if isWrite {
		f |= FlagWrite
	}
	if stride {
		f |= FlagStride
	}
	if gang {
		f |= FlagGang
	}
	return f
}

// ReqEnqueued implements mc.Tracer.
func (t *ChannelTracer) ReqEnqueued(at dram.Cycle, r mc.Request, bank int32, queueDepth int) {
	t.add(Event{
		Kind: KindEnqueue, Chan: t.ch, Rank: -1, Group: -1,
		At: at, ID: r.ID, Addr: r.Addr, Bank: bank,
		Flags: reqFlags(r.IsWrite, r.Stride, r.Gang), Lane: uint8(r.Lane & 0xff),
		QDepth: int32(queueDepth),
	})
}

// ReqScheduled implements mc.Tracer.
func (t *ChannelTracer) ReqScheduled(at dram.Cycle, r mc.Request, bank int32) {
	t.add(Event{
		Kind: KindSchedule, Chan: t.ch, Rank: -1, Group: -1,
		At: at, ID: r.ID, Addr: r.Addr, Bank: bank,
		Flags: reqFlags(r.IsWrite, r.Stride, r.Gang), Lane: uint8(r.Lane & 0xff),
	})
}

// ReqCompleted implements mc.Tracer.
func (t *ChannelTracer) ReqCompleted(comp mc.Completion, bank int32) {
	r := comp.Req
	flags := reqFlags(r.IsWrite, r.Stride, r.Gang)
	if comp.RowHit {
		flags |= FlagRowHit
	}
	if comp.RowEmpty {
		flags |= FlagRowEmpty
	}
	if comp.Poisoned {
		flags |= FlagPoisoned
	}
	t.add(Event{
		Kind: KindComplete, Chan: t.ch, Rank: -1, Group: -1,
		At: comp.IssueAt, ID: r.ID, Addr: r.Addr, Bank: bank,
		Flags: flags, Lane: uint8(r.Lane & 0xff),
		Arrival: r.Arrival, DataStart: comp.DataStart, DataEnd: comp.DataEnd,
		Done: comp.DataEnd,
	})
}

// ReqFaulted implements mc.Tracer: a read burst decoded as uncorrectable.
// QDepth reuses the depth slot for the attempt number.
func (t *ChannelTracer) ReqFaulted(at dram.Cycle, r mc.Request, bank int32, attempt int, poisoned bool) {
	flags := reqFlags(r.IsWrite, r.Stride, r.Gang)
	if poisoned {
		flags |= FlagPoisoned
	}
	t.add(Event{
		Kind: KindFault, Chan: t.ch, Rank: -1, Group: -1,
		At: at, ID: r.ID, Addr: r.Addr, Bank: bank,
		Flags: flags, Lane: uint8(r.Lane & 0xff),
		QDepth: int32(attempt),
	})
}

// CommandIssued implements dram.CmdTracer.
func (t *ChannelTracer) CommandIssued(cmd dram.Command, at dram.Cycle, res dram.IssueResult) {
	var flags uint8
	if cmd.GangRanks {
		flags |= FlagGang
	}
	if cmd.Mode.IsStride() {
		flags |= FlagStride
	}
	t.add(Event{
		Kind: KindCommand, Chan: t.ch,
		Cmd: cmd.Kind, Mode: cmd.Mode, Flags: flags,
		Rank: int16(cmd.Rank), Group: int16(cmd.Group), Bank: int32(cmd.Bank),
		Row: int32(cmd.Row), Col: int32(cmd.Col),
		At: at, DataStart: res.DataStart, DataEnd: res.DataEnd, Done: res.Done,
	})
}

package etrace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"sam/internal/dram"
)

// chromeEvent is one JSON object in the Chrome trace-event format, the
// subset Perfetto and chrome://tracing load: metadata ("M"), complete
// slices ("X"), counters ("C"), nestable async begin/instant/end
// ("b"/"n"/"e"), and instants ("i").
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Fixed per-channel thread (track) ids; rank-refresh and per-bank tracks
// are assigned dynamically after these.
const (
	tidRequests = 1 // request-lifecycle async spans
	tidDataBus  = 2 // RD/WR burst slices (globally serialized by the bus)
	tidQueue    = 3 // queue-depth counter fed by enqueue events
	tidDynamic  = 4 // first rank-refresh track
)

func procMeta(pid int, name string) chromeEvent {
	return chromeEvent{Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": name}}
}

func threadMeta(pid, tid int, name string) chromeEvent {
	return chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name}}
}

func counter(ts int64, name string, args map[string]any) chromeEvent {
	return chromeEvent{Name: name, Ph: "C", Ts: ts, Args: args}
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }

// bankKey orders per-bank tracks rank-major.
type bankKey struct {
	rank, group, bank int
}

// WriteChrome renders the trace as Chrome trace-event JSON. One tick of the
// format's microsecond timebase represents one DRAM bus cycle, so Perfetto
// timelines read directly in cycles.
//
// Layout: pid 0 holds the samplers' counter tracks (bus utilization,
// row-hit rate, queue depth, per-window command counts); each
// (buffer, channel) pair becomes its own process named "<buffer>/ch<N>"
// with a request-span track (async events per request class, begin at
// arrival, instant at schedule, end at data end), a data-bus track (RD/WR
// burst slices), a queue-depth counter, one refresh track per rank, and one
// ACT/PRE track per bank. Within every track, slices are emitted in
// non-decreasing time order and never overlap — the data bus is serialized
// by the device, ACT→PRE windows are separated by tRAS/tRP per bank, and
// refreshes by tREFI per rank — which trace validators check.
func WriteChrome(w io.Writer, bufs []*Buffer, samplers []*Sampler) error {
	var meta, data []chromeEvent

	if len(samplers) > 0 {
		meta = append(meta, procMeta(0, "counters"))
	}
	for _, sp := range samplers {
		prefix := sp.Name
		if prefix == "" {
			prefix = "series"
		}
		var prev Sample
		for _, smp := range sp.Samples {
			dc := smp.Ctl.Sub(prev.Ctl)
			dd := smp.Dev.Sub(prev.Dev)
			span := smp.At - prev.At
			busUtil, hitPct := 0.0, 0.0
			if span > 0 {
				busUtil = 100 * float64(dd.BusBusyCycles) / float64(span)
			}
			if n := dc.RowHits + dc.RowMisses + dc.RowEmpties; n > 0 {
				hitPct = 100 * float64(dc.RowHits) / float64(n)
			}
			data = append(data,
				counter(smp.At, prefix+"/bus_util_pct", map[string]any{"pct": round2(busUtil)}),
				counter(smp.At, prefix+"/row_hit_pct", map[string]any{"pct": round2(hitPct)}),
				counter(smp.At, prefix+"/queue", map[string]any{"depth": smp.Queue, "inflight": smp.Inflight}),
				counter(smp.At, prefix+"/window_bursts", map[string]any{
					"reads": dd.Reads, "writes": dd.Writes,
					"stride_reads": dd.StrideReads, "stride_writes": dd.StrideWrites,
				}),
			)
			prev = smp
		}
	}

	nextPid := 1
	for _, b := range bufs {
		if b == nil || b.Len() == 0 {
			continue
		}
		events := b.Events()

		// Discover the channels, refreshing ranks, and active banks this
		// buffer saw, so track ids are dense and deterministically ordered.
		chanSet := map[int16]bool{}
		rankSet := map[int16]map[int]bool{}     // per channel
		bankSet := map[int16]map[bankKey]bool{} // per channel
		for _, e := range events {
			chanSet[e.Chan] = true
			if e.Kind != KindCommand {
				continue
			}
			switch e.Cmd {
			case dram.CmdREF:
				if rankSet[e.Chan] == nil {
					rankSet[e.Chan] = map[int]bool{}
				}
				rankSet[e.Chan][int(e.Rank)] = true
			case dram.CmdACT, dram.CmdPRE:
				if bankSet[e.Chan] == nil {
					bankSet[e.Chan] = map[bankKey]bool{}
				}
				bankSet[e.Chan][bankKey{int(e.Rank), int(e.Group), int(e.Bank)}] = true
			}
		}
		chans := make([]int16, 0, len(chanSet))
		for ch := range chanSet {
			chans = append(chans, ch)
		}
		sort.Slice(chans, func(i, j int) bool { return chans[i] < chans[j] })

		chPid := map[int16]int{}
		refTid := map[int16]map[int]int{}
		bankTid := map[int16]map[bankKey]int{}
		for _, ch := range chans {
			pid := nextPid
			nextPid++
			chPid[ch] = pid
			name := fmt.Sprintf("ch%d", ch)
			if b.Name != "" {
				name = b.Name + "/" + name
			}
			meta = append(meta,
				procMeta(pid, name),
				threadMeta(pid, tidRequests, "requests"),
				threadMeta(pid, tidDataBus, "data bus"),
				threadMeta(pid, tidQueue, "queue"),
			)
			tid := tidDynamic
			ranks := make([]int, 0, len(rankSet[ch]))
			for r := range rankSet[ch] {
				ranks = append(ranks, r)
			}
			sort.Ints(ranks)
			refTid[ch] = map[int]int{}
			for _, r := range ranks {
				refTid[ch][r] = tid
				meta = append(meta, threadMeta(pid, tid, fmt.Sprintf("rank %d refresh", r)))
				tid++
			}
			keys := make([]bankKey, 0, len(bankSet[ch]))
			for k := range bankSet[ch] {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool {
				a, b := keys[i], keys[j]
				if a.rank != b.rank {
					return a.rank < b.rank
				}
				if a.group != b.group {
					return a.group < b.group
				}
				return a.bank < b.bank
			})
			bankTid[ch] = map[bankKey]int{}
			for _, k := range keys {
				bankTid[ch][k] = tid
				meta = append(meta, threadMeta(pid, tid,
					fmt.Sprintf("bank r%d.g%d.b%d", k.rank, k.group, k.bank)))
				tid++
			}
		}

		for _, e := range events {
			pid := chPid[e.Chan]
			switch e.Kind {
			case KindEnqueue:
				data = append(data, chromeEvent{
					Name: "queue", Ph: "C", Ts: e.At, Pid: pid, Tid: tidQueue,
					Args: map[string]any{"depth": e.QDepth},
				})
			case KindSchedule:
				data = append(data, chromeEvent{
					Name: e.ClassName(), Cat: "req", Ph: "n", Ts: e.At,
					Pid: pid, Tid: tidRequests,
					ID:   fmt.Sprintf("%d:%d", pid, e.ID),
					Args: map[string]any{"event": "scheduled"},
				})
			case KindComplete:
				id := fmt.Sprintf("%d:%d", pid, e.ID)
				data = append(data, chromeEvent{
					Name: e.ClassName(), Cat: "req", Ph: "b", Ts: e.Arrival,
					Pid: pid, Tid: tidRequests, ID: id,
					Args: map[string]any{
						"addr":       fmt.Sprintf("%#x", e.Addr),
						"bank":       e.Bank,
						"lane":       e.Lane,
						"gang":       e.Flags&FlagGang != 0,
						"row_hit":    e.Flags&FlagRowHit != 0,
						"row_empty":  e.Flags&FlagRowEmpty != 0,
						"issue":      e.At,
						"data_start": e.DataStart,
					},
				}, chromeEvent{
					Name: e.ClassName(), Cat: "req", Ph: "e", Ts: e.DataEnd,
					Pid: pid, Tid: tidRequests, ID: id,
				})
			case KindFault:
				data = append(data, chromeEvent{
					Name: "DUE", Cat: "fault", Ph: "i", Ts: e.At,
					Pid: pid, Tid: tidRequests,
					Args: map[string]any{
						"addr":     fmt.Sprintf("%#x", e.Addr),
						"attempt":  e.QDepth,
						"poisoned": e.Flags&FlagPoisoned != 0,
					},
				})
			case KindCommand:
				switch e.Cmd {
				case dram.CmdRD, dram.CmdWR:
					data = append(data, chromeEvent{
						Name: e.Cmd.String() + " " + e.Mode.String(),
						Cat:  "cmd", Ph: "X",
						Ts: e.DataStart, Dur: e.DataEnd - e.DataStart,
						Pid: pid, Tid: tidDataBus,
						Args: map[string]any{
							"rank": e.Rank, "group": e.Group, "bank": e.Bank,
							"row": e.Row, "col": e.Col,
							"issue": e.At, "gang": e.Flags&FlagGang != 0,
						},
					})
				case dram.CmdACT, dram.CmdPRE:
					data = append(data, chromeEvent{
						Name: e.Cmd.String(), Cat: "cmd", Ph: "X",
						Ts: e.At, Dur: e.Done - e.At,
						Pid:  pid,
						Tid:  bankTid[e.Chan][bankKey{int(e.Rank), int(e.Group), int(e.Bank)}],
						Args: map[string]any{"row": e.Row},
					})
				case dram.CmdREF:
					data = append(data, chromeEvent{
						Name: "REF", Cat: "cmd", Ph: "X",
						Ts: e.At, Dur: e.Done - e.At,
						Pid: pid, Tid: refTid[e.Chan][int(e.Rank)],
						Args: map[string]any{"rank": e.Rank},
					})
				}
			}
		}
	}

	// Trace viewers require non-decreasing timestamps within a track;
	// stable sort keeps same-cycle events in emission order.
	sort.SliceStable(data, func(i, j int) bool { return data[i].Ts < data[j].Ts })

	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := io.WriteString(bw,
		`{"otherData":{"ts_unit":"DRAM bus cycles (1 tick = 1 cycle)"},"traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(ev chromeEvent) error {
		raw, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
		_, err = bw.Write(raw)
		return err
	}
	for _, ev := range meta {
		if err := emit(ev); err != nil {
			return err
		}
	}
	for _, ev := range data {
		if err := emit(ev); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(bw, "\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

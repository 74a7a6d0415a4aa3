// Package trace records and replays memory access traces: the simulator
// can dump the request stream a workload produced, and tests/tools can
// replay a trace against a controller — useful for determinism checks
// (identical seeds must produce identical traces) and for driving the
// memory system without the query layer.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"sam/internal/dram"
	"sam/internal/mc"
)

// Record is one traced request.
type Record struct {
	Addr    uint64
	IsWrite bool
	Stride  bool
	Lane    int
	Gang    bool
	Arrival dram.Cycle
}

// FromRequest captures a controller request.
func FromRequest(r mc.Request) Record {
	return Record{Addr: r.Addr, IsWrite: r.IsWrite, Stride: r.Stride, Lane: r.Lane, Gang: r.Gang, Arrival: r.Arrival}
}

// Request converts back to a controller request.
func (r Record) Request(id uint64) mc.Request {
	return mc.Request{ID: id, Addr: r.Addr, IsWrite: r.IsWrite, Stride: r.Stride, Lane: r.Lane, Gang: r.Gang, Arrival: r.Arrival}
}

// String renders one line of the text format:
//
//	R 0x00001040 @120
//	W 0x00002000 @340
//	S 0x00003000 lane=2 gang @500   (strided read)
//	T 0x00003000 lane=1 @600        (strided write)
func (r Record) String() string {
	kind := "R"
	switch {
	case r.IsWrite && r.Stride:
		kind = "T"
	case r.IsWrite:
		kind = "W"
	case r.Stride:
		kind = "S"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s 0x%08x", kind, r.Addr)
	if r.Stride {
		fmt.Fprintf(&b, " lane=%d", r.Lane)
		if r.Gang {
			b.WriteString(" gang")
		}
	}
	fmt.Fprintf(&b, " @%d", r.Arrival)
	return b.String()
}

// Trace is an in-order request log.
type Trace struct {
	Records []Record
}

// Add appends a record.
func (t *Trace) Add(r Record) { t.Records = append(t.Records, r) }

// Len returns the record count.
func (t *Trace) Len() int { return len(t.Records) }

// Write emits the text format.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, r := range t.Records {
		if _, err := fmt.Fprintln(bw, r.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses the text format.
func Read(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		rec, err := parseLine(text)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		t.Add(rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// parseLine parses one trace line strictly: every token must be consumed
// in full (earlier fmt.Sscanf parsing silently ignored trailing garbage,
// so "lane=3junk" and "@12x" were accepted), duplicate fields are
// rejected instead of last-wins, lane/gang are only legal on strided
// records, and the arrival timestamp is mandatory. The accepted grammar
// is exactly the output of Record.String, so parseLine(rec.String())
// round-trips for every representable record.
func parseLine(text string) (Record, error) {
	fields := strings.Fields(text)
	if len(fields) < 3 {
		return Record{}, fmt.Errorf("too few fields in %q", text)
	}
	var rec Record
	switch fields[0] {
	case "R":
	case "W":
		rec.IsWrite = true
	case "S":
		rec.Stride = true
	case "T":
		rec.IsWrite, rec.Stride = true, true
	default:
		return Record{}, fmt.Errorf("unknown kind %q", fields[0])
	}
	addr := fields[1]
	if !strings.HasPrefix(addr, "0x") {
		return Record{}, fmt.Errorf("bad address %q (want 0x-prefixed hex)", addr)
	}
	v, err := strconv.ParseUint(addr[2:], 16, 64)
	if err != nil {
		return Record{}, fmt.Errorf("bad address %q", addr)
	}
	rec.Addr = v
	var haveLane, haveGang, haveArrival bool
	for _, f := range fields[2:] {
		switch {
		case strings.HasPrefix(f, "lane="):
			if !rec.Stride {
				return Record{}, fmt.Errorf("lane on non-strided record %q", text)
			}
			if haveLane {
				return Record{}, fmt.Errorf("duplicate lane in %q", text)
			}
			lane, err := strconv.ParseUint(f[len("lane="):], 10, 31)
			if err != nil {
				return Record{}, fmt.Errorf("bad lane %q", f)
			}
			rec.Lane = int(lane)
			haveLane = true
		case f == "gang":
			if !rec.Stride {
				return Record{}, fmt.Errorf("gang on non-strided record %q", text)
			}
			if haveGang {
				return Record{}, fmt.Errorf("duplicate gang in %q", text)
			}
			rec.Gang = true
			haveGang = true
		case strings.HasPrefix(f, "@"):
			if haveArrival {
				return Record{}, fmt.Errorf("duplicate arrival in %q", text)
			}
			at, err := strconv.ParseUint(f[1:], 10, 63)
			if err != nil {
				return Record{}, fmt.Errorf("bad arrival %q", f)
			}
			rec.Arrival = dram.Cycle(at)
			haveArrival = true
		default:
			return Record{}, fmt.Errorf("unknown field %q", f)
		}
	}
	if !haveArrival {
		return Record{}, fmt.Errorf("missing @arrival in %q", text)
	}
	return rec, nil
}

// Replay pushes the trace through a controller and returns the completions.
// Queue back-pressure is handled by servicing in between: while the
// controller cannot accept the next record it services queued requests. If
// the controller reports nothing to service while still refusing the
// record, Replay returns an error with the completions so far — the old
// behaviour broke out of the loop and enqueued anyway, silently pushing
// past queue capacity (which the controller now treats as a caller bug).
func Replay(t *Trace, c *mc.Controller) ([]mc.Completion, error) {
	return ReplayObserved(t, c, nil)
}

// ReplayObserved is Replay with a completion observer: obs (when non-nil)
// sees every completion as it retires, in service order — samtrace uses it
// to drive the windowed trace sampler. The returned slice is preallocated
// to the trace length and reused on every path, including the drain and the
// error return, so partial results carry no extra allocation and callers
// can report how far a failed replay got.
func ReplayObserved(t *Trace, c *mc.Controller, obs func(mc.Completion)) ([]mc.Completion, error) {
	comps := make([]mc.Completion, 0, len(t.Records))
	var comp mc.Completion
	take := func() {
		if obs != nil {
			obs(comp)
		}
		comps = append(comps, comp)
	}
	for i, rec := range t.Records {
		for !c.CanAccept(rec.IsWrite) {
			if !c.ServiceOne(&comp) {
				return comps, fmt.Errorf("trace: record %d: controller at capacity with nothing to service", i)
			}
			take()
		}
		c.Enqueue(rec.Request(uint64(i)))
	}
	for c.ServiceOne(&comp) {
		take()
	}
	return comps, nil
}

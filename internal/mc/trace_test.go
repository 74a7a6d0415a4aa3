package mc

import (
	"testing"

	"sam/internal/dram"
)

// TestServiceOneZeroAllocsTraceDisabled pins the event-tracing contract on
// the fast path: with Trace nil, the steady-state enqueue + service loop
// must not allocate at all.
func TestServiceOneZeroAllocsTraceDisabled(t *testing.T) {
	c := NewController(dram.NewDevice(dram.DDR4_2400()), DefaultConfig())
	reqs := benchStream(4096)
	j := 0
	var comp Completion
	next := func() Request {
		r := reqs[j%len(reqs)]
		j++
		r.Arrival = c.Now()
		return r
	}
	for i := 0; i < 48; i++ {
		r := next()
		if !c.CanAccept(r.IsWrite) {
			c.ServiceOne(&comp)
		}
		if c.CanAccept(r.IsWrite) {
			c.Enqueue(r)
		}
	}
	allocs := testing.AllocsPerRun(2000, func() {
		r := next()
		for !c.CanAccept(r.IsWrite) {
			c.ServiceOne(&comp)
		}
		c.Enqueue(r)
		c.ServiceOne(&comp)
	})
	if allocs != 0 {
		t.Fatalf("service loop with tracing disabled: %.2f allocs/op, want 0", allocs)
	}
}

// recordedEvent is one tracer callback, flattened for ordering checks.
type recordedEvent struct {
	kind  byte // 'e'nqueue, 's'cheduled, 'c'ompleted
	id    uint64
	bank  int32
	at    dram.Cycle
	depth int
}

// recordingTracer captures every lifecycle callback in order.
type recordingTracer struct {
	events []recordedEvent
}

func (r *recordingTracer) ReqEnqueued(at dram.Cycle, req Request, bank int32, queueDepth int) {
	r.events = append(r.events, recordedEvent{'e', req.ID, bank, at, queueDepth})
}

func (r *recordingTracer) ReqScheduled(at dram.Cycle, req Request, bank int32) {
	r.events = append(r.events, recordedEvent{'s', req.ID, bank, at, 0})
}

func (r *recordingTracer) ReqCompleted(comp Completion, bank int32) {
	r.events = append(r.events, recordedEvent{'c', comp.Req.ID, bank, comp.DataEnd, 0})
}

func (r *recordingTracer) ReqFaulted(at dram.Cycle, req Request, bank int32, attempt int, poisoned bool) {
	r.events = append(r.events, recordedEvent{'f', req.ID, bank, at, attempt})
}

// TestTracerLifecycleOrdering drives a controller with a recording tracer
// and checks the per-request protocol: enqueue, then scheduled, then
// completed, with a consistent bank and a queue depth that matches the
// controller's own accounting at enqueue time.
func TestTracerLifecycleOrdering(t *testing.T) {
	c := NewController(dram.NewDevice(dram.DDR4_2400()), DefaultConfig())
	rec := &recordingTracer{}
	c.Trace = rec

	reqs := benchStream(500)
	enqueued := 0
	for i := range reqs {
		r := reqs[i]
		r.Arrival = c.Now()
		for !c.CanAccept(r.IsWrite) {
			serviceOne(c)
		}
		c.Enqueue(r)
		enqueued++
		if c.Pending() > 24 {
			serviceOne(c)
		}
	}
	c.Drain()

	stage := map[uint64]byte{}
	bank := map[uint64]int32{}
	pending := 0
	completed := 0
	for i, e := range rec.events {
		switch e.kind {
		case 'e':
			if _, dup := stage[e.id]; dup {
				t.Fatalf("event %d: request %d enqueued twice", i, e.id)
			}
			stage[e.id] = 'e'
			bank[e.id] = e.bank
			pending++
			if e.depth != pending {
				t.Fatalf("event %d: request %d enqueued with depth %d, tracker says %d", i, e.id, e.depth, pending)
			}
		case 's':
			if stage[e.id] != 'e' {
				t.Fatalf("event %d: request %d scheduled from stage %q", i, e.id, stage[e.id])
			}
			if e.bank != bank[e.id] {
				t.Fatalf("event %d: request %d bank %d at schedule, %d at enqueue", i, e.id, e.bank, bank[e.id])
			}
			stage[e.id] = 's'
			pending--
		case 'c':
			if stage[e.id] != 's' {
				t.Fatalf("event %d: request %d completed from stage %q", i, e.id, stage[e.id])
			}
			if e.bank != bank[e.id] {
				t.Fatalf("event %d: request %d bank %d at completion, %d at enqueue", i, e.id, e.bank, bank[e.id])
			}
			stage[e.id] = 'c'
			completed++
		default:
			t.Fatalf("event %d: unknown kind %q", i, e.kind)
		}
	}
	if completed != enqueued {
		t.Fatalf("%d completions for %d enqueues", completed, enqueued)
	}
	if pending != 0 {
		t.Fatalf("%d requests never scheduled after Drain", pending)
	}
}

// nopTracer is the cheapest possible Tracer/CmdTracer, isolating the hook
// overhead itself in BenchmarkControllerServiceOneTraced.
type nopTracer struct{}

func (nopTracer) ReqEnqueued(dram.Cycle, Request, int32, int)              {}
func (nopTracer) ReqScheduled(dram.Cycle, Request, int32)                  {}
func (nopTracer) ReqCompleted(Completion, int32)                           {}
func (nopTracer) ReqFaulted(dram.Cycle, Request, int32, int, bool)         {}
func (nopTracer) CommandIssued(dram.Command, dram.Cycle, dram.IssueResult) {}

// BenchmarkControllerServiceOneTraced is BenchmarkControllerServiceOne
// with a no-op tracer attached to both the controller and the device: the
// difference between the two is the pure cost of the tracing hooks.
func BenchmarkControllerServiceOneTraced(b *testing.B) {
	dev := dram.NewDevice(dram.DDR4_2400())
	c := NewController(dev, DefaultConfig())
	c.Trace = nopTracer{}
	dev.Trace = nopTracer{}
	benchServiceLoop(b, c, 48, benchStream(4096))
}

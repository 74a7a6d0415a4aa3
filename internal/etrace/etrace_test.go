package etrace

import (
	"bytes"
	"strings"
	"testing"

	"sam/internal/dram"
	"sam/internal/mc"
	"sam/internal/stats"
)

// tracerFor builds a small ring and returns its channel-0 handle.
func tracerFor(capacity int) (*Buffer, *ChannelTracer) {
	b := NewBuffer(capacity)
	return b, b.Channel(0)
}

func TestRingOverflowDropsOldest(t *testing.T) {
	b, ct := tracerFor(8)
	for i := 0; i < 20; i++ {
		ct.ReqScheduled(dram.Cycle(i), mc.Request{ID: uint64(i)}, 0)
	}
	if b.Len() != 8 || b.cap != 8 {
		t.Fatalf("Len=%d Cap=%d, want 8/8", b.Len(), b.cap)
	}
	if b.Dropped() != 12 {
		t.Fatalf("Dropped=%d, want 12", b.Dropped())
	}
	evs := b.Events()
	for i, e := range evs {
		if want := int64(12 + i); e.At != want {
			t.Fatalf("event %d at %d, want %d (oldest-first order)", i, e.At, want)
		}
	}
}

// TestPerChannelRingsIndependent pins the per-channel ring contract: each
// channel tracer owns its own ring, so one channel overflowing (and
// dropping its oldest events) never evicts another channel's events, drop
// accounting is per channel, and Events() concatenates the surviving
// blocks in channel order.
func TestPerChannelRingsIndependent(t *testing.T) {
	b := NewBuffer(4)
	noisy, quiet := b.Channel(0), b.Channel(1)
	quiet.ReqScheduled(1, mc.Request{ID: 100}, 0)
	for i := 0; i < 10; i++ {
		noisy.ReqScheduled(dram.Cycle(10+i), mc.Request{ID: uint64(i)}, 0)
	}
	if b.Dropped() != 6 {
		t.Fatalf("Dropped=%d, want 6 (noisy channel only)", b.Dropped())
	}
	if b.Len() != 5 {
		t.Fatalf("Len=%d, want 4 noisy + 1 quiet", b.Len())
	}
	evs := b.Events()
	for i := 0; i < 4; i++ {
		if evs[i].Chan != 0 || evs[i].At != int64(16+i) {
			t.Fatalf("event %d = ch%d@%d, want ch0@%d (newest 4 survive)", i, evs[i].Chan, evs[i].At, 16+i)
		}
	}
	if last := evs[4]; last.Chan != 1 || last.At != 1 {
		t.Fatalf("quiet channel's event lost: got ch%d@%d", last.Chan, last.At)
	}
}

func TestChannelHandleCachedAndShared(t *testing.T) {
	b := NewBuffer(16)
	if b.Channel(2) != b.Channel(2) {
		t.Fatal("Channel(2) not cached")
	}
	if b.Channel(0) == b.Channel(2) {
		t.Fatal("distinct channels share a handle")
	}
	b.Channel(0).ReqScheduled(1, mc.Request{}, 0)
	b.Channel(2).ReqScheduled(2, mc.Request{}, 0)
	evs := b.Events()
	if evs[0].Chan != 0 || evs[1].Chan != 2 {
		t.Fatalf("channel tags %d,%d want 0,2", evs[0].Chan, evs[1].Chan)
	}
}

func TestEventFlagsAndClassNames(t *testing.T) {
	cases := []struct {
		write, stride bool
		want          string
	}{
		{false, false, "read"},
		{true, false, "write"},
		{false, true, "stride read"},
		{true, true, "stride write"},
	}
	for _, c := range cases {
		e := Event{Flags: reqFlags(c.write, c.stride, false)}
		if got := e.ClassName(); got != c.want {
			t.Fatalf("ClassName(write=%v,stride=%v) = %q, want %q", c.write, c.stride, got, c.want)
		}
	}
}

// driveStack runs a mixed request stream through a real controller+device
// with the tracer (and optionally an auditor / metrics) attached, and
// returns the stack plus the completions.
func driveStack(t *testing.T, buf *Buffer, audit bool) (*mc.Controller, *dram.Device, []mc.Completion) {
	t.Helper()
	cfg := dram.DDR4_2400()
	dev := dram.NewDevice(cfg)
	ctrl := mc.NewController(dev, mc.DefaultConfig())
	if audit {
		ctrl.Audit = dram.NewAuditor(cfg)
	}
	ct := buf.Channel(0)
	ctrl.Trace = ct
	dev.Trace = ct
	var comps []mc.Completion
	arrival := dram.Cycle(0)
	for i := 0; i < 300; i++ {
		r := mc.Request{
			ID:      uint64(i),
			Addr:    uint64(i) * 832, // crosses rows and banks
			IsWrite: i%5 == 0,
			Stride:  i%3 == 0,
			Lane:    i % 4,
			Arrival: arrival,
		}
		arrival += dram.Cycle(1 + i%7)
		for !ctrl.CanAccept(r.IsWrite) {
			var comp mc.Completion
			if !ctrl.ServiceOne(&comp) {
				t.Fatal("controller full but idle")
			}
			comps = append(comps, comp)
		}
		ctrl.Enqueue(r)
	}
	for {
		var comp mc.Completion
		if !ctrl.ServiceOne(&comp) {
			break
		}
		comps = append(comps, comp)
	}
	return ctrl, dev, comps
}

func TestLifecycleEventsPerRequest(t *testing.T) {
	buf := NewBuffer(0)
	_, _, comps := driveStack(t, buf, false)
	var enq, sched, done int
	completes := map[uint64]Event{}
	for _, e := range buf.Events() {
		switch e.Kind {
		case KindEnqueue:
			enq++
		case KindSchedule:
			sched++
		case KindComplete:
			done++
			completes[e.ID] = e
		}
	}
	if enq != 300 || sched != 300 || done != 300 {
		t.Fatalf("lifecycle counts enq=%d sched=%d done=%d, want 300 each", enq, sched, done)
	}
	for _, c := range comps {
		e, ok := completes[c.Req.ID]
		if !ok {
			t.Fatalf("no complete event for request %d", c.Req.ID)
		}
		if e.Arrival != c.Req.Arrival || e.DataEnd != c.DataEnd || e.DataStart != c.DataStart || e.At != c.IssueAt {
			t.Fatalf("request %d span %+v disagrees with completion %+v", c.Req.ID, e, c)
		}
		if got := e.Flags&FlagWrite != 0; got != c.Req.IsWrite {
			t.Fatalf("request %d write flag %v, want %v", c.Req.ID, got, c.Req.IsWrite)
		}
		if got := e.Flags&FlagRowHit != 0; got != c.RowHit {
			t.Fatalf("request %d row-hit flag %v, want %v", c.Req.ID, got, c.RowHit)
		}
	}
}

func TestCommandEventsMatchAuditorHistory(t *testing.T) {
	buf := NewBuffer(0)
	ctrl, _, _ := driveStack(t, buf, true)
	// History must be read before Ok: validation sorts the record order.
	hist := ctrl.Audit.History()
	if !ctrl.Audit.Ok() {
		t.Fatalf("protocol violations: %v", ctrl.Audit.Violations)
	}
	var cmds []Event
	for _, e := range buf.Events() {
		if e.Kind == KindCommand {
			cmds = append(cmds, e)
		}
	}
	if len(cmds) != len(hist) {
		t.Fatalf("%d command events vs %d audited commands", len(cmds), len(hist))
	}
	for i, h := range hist {
		e := cmds[i]
		if e.At != h.At || e.Cmd != h.Cmd.Kind ||
			int(e.Rank) != h.Cmd.Rank || int(e.Group) != h.Cmd.Group || int(e.Bank) != h.Cmd.Bank ||
			int(e.Row) != h.Cmd.Row || int(e.Col) != h.Cmd.Col || e.Mode != h.Cmd.Mode {
			t.Fatalf("command %d: event %+v disagrees with audited %+v at %d", i, e, h.Cmd, h.At)
		}
	}
}

func TestChromeExportValidates(t *testing.T) {
	buf := NewBuffer(0)
	buf.Name = "test"
	ctrl, dev, comps := driveStack(t, buf, false)
	sp := NewSampler(64)
	sp.Name = "test"
	var hw dram.Cycle
	for _, c := range comps {
		if c.DataEnd > hw {
			hw = c.DataEnd
		}
	}
	// One cumulative sample mid-run shape is enough for counter tracks.
	sp.Record(Sample{At: sp.Advance(), Ctl: ctrl.Stats, Dev: dev.Stats.Clone(), Queue: 0})

	var out bytes.Buffer
	if err := WriteChrome(&out, []*Buffer{buf}, []*Sampler{sp}); err != nil {
		t.Fatal(err)
	}
	sum, err := ValidateChrome(out.Bytes())
	if err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}
	if sum.Spans != len(comps) {
		t.Fatalf("%d spans, want %d (one per completion)", sum.Spans, len(comps))
	}
	if sum.Slices == 0 || sum.Tracks < 3 || sum.Counters == 0 {
		t.Fatalf("thin summary: %+v", sum)
	}
}

func TestChromeExportDeterministic(t *testing.T) {
	render := func() []byte {
		buf := NewBuffer(0)
		driveStack(t, buf, false)
		var out bytes.Buffer
		if err := WriteChrome(&out, []*Buffer{buf}, nil); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Fatal("identical runs rendered different traces")
	}
}

func TestSamplerDueAdvance(t *testing.T) {
	sp := NewSampler(100)
	if sp.Due(99) {
		t.Fatal("due before first boundary")
	}
	if !sp.Due(100) {
		t.Fatal("not due at the boundary")
	}
	// A clock jump across several windows yields one boundary per window.
	var ats []int64
	for sp.Due(350) {
		ats = append(ats, sp.Advance())
	}
	if len(ats) != 3 || ats[0] != 100 || ats[1] != 200 || ats[2] != 300 {
		t.Fatalf("boundaries %v, want [100 200 300]", ats)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewSampler(0) did not panic")
		}
	}()
	NewSampler(0)
}

func TestWriteCSVDeltas(t *testing.T) {
	sp := NewSampler(100)
	mk := func(at int64, reads, busy uint64, q int) Sample {
		var s Sample
		s.At = at
		s.Dev.Reads = reads
		s.Dev.BusBusyCycles = busy
		s.Ctl.RowHits = reads
		s.Queue = q
		return s
	}
	sp.Record(mk(100, 10, 50, 3))
	sp.Record(mk(200, 30, 150, 1))
	var out bytes.Buffer
	if err := WriteCSV(&out, sp); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want header + 2 rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "at,reads,") {
		t.Fatalf("header %q", lines[0])
	}
	// Second row is the delta 30-10 reads and (150-50)/100 bus utilization.
	if lines[2] != "200,20,0,0,0,0,0,0,100,100.00,100.00,1,0" {
		t.Fatalf("delta row %q", lines[2])
	}
}

func TestValidateChromeRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"unknown phase":      `{"traceEvents":[{"name":"x","ph":"Z","ts":1,"pid":1,"tid":1}]}`,
		"missing ts":         `{"traceEvents":[{"name":"x","ph":"X","pid":1,"tid":1}]}`,
		"unnamed slice":      `{"traceEvents":[{"name":"","ph":"X","ts":1,"dur":2,"pid":1,"tid":1}]}`,
		"negative dur":       `{"traceEvents":[{"name":"x","ph":"X","ts":1,"dur":-2,"pid":1,"tid":1}]}`,
		"time went backward": `{"traceEvents":[{"name":"a","ph":"X","ts":10,"dur":1,"pid":1,"tid":1},{"name":"b","ph":"X","ts":5,"dur":1,"pid":1,"tid":1}]}`,
		"overlapping slices": `{"traceEvents":[{"name":"a","ph":"X","ts":10,"dur":10,"pid":1,"tid":1},{"name":"b","ph":"X","ts":15,"dur":1,"pid":1,"tid":1}]}`,
		"counter no args":    `{"traceEvents":[{"name":"c","ph":"C","ts":1,"pid":0,"tid":0}]}`,
		"end without begin":  `{"traceEvents":[{"name":"s","ph":"e","ts":1,"cat":"req","id":"1","pid":1,"tid":1}]}`,
		"unclosed span":      `{"traceEvents":[{"name":"s","ph":"b","ts":1,"cat":"req","id":"1","pid":1,"tid":1}]}`,
		"end before begin":   `{"traceEvents":[{"name":"s","ph":"b","ts":5,"cat":"req","id":"1","pid":1,"tid":1},{"name":"s","ph":"e","ts":1,"cat":"req","id":"1","pid":1,"tid":1}]}`,
		"not a trace":        `42`,
		"no traceEvents":     `{"foo":1}`,
	}
	for name, data := range cases {
		if _, err := ValidateChrome([]byte(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Overlap tracking is per track: same times on different tracks pass,
	// and the bare-array form is accepted.
	ok := `[{"name":"a","ph":"X","ts":10,"dur":10,"pid":1,"tid":1},{"name":"b","ph":"X","ts":15,"dur":1,"pid":1,"tid":2}]`
	sum, err := ValidateChrome([]byte(ok))
	if err != nil {
		t.Fatalf("bare array with distinct tracks rejected: %v", err)
	}
	if sum.Slices != 2 || sum.Tracks != 2 {
		t.Fatalf("summary %+v, want 2 slices on 2 tracks", sum)
	}
}

// BenchmarkTracedServiceLoop measures the controller service loop with a
// live ring attached (the enabled-path cost; the disabled path is pinned at
// 0 allocs/op by the mc benchmarks).
func BenchmarkTracedServiceLoop(b *testing.B) {
	cfg := dram.DDR4_2400()
	dev := dram.NewDevice(cfg)
	ctrl := mc.NewController(dev, mc.DefaultConfig())
	reg := stats.NewRegistry()
	ctrl.Metrics = mc.NewMetrics(reg)
	buf := NewBuffer(1 << 16)
	ct := buf.Channel(0)
	ctrl.Trace = ct
	dev.Trace = ct
	const depth = 48
	var id uint64
	var comp mc.Completion
	fill := func() {
		for ctrl.Pending() < depth {
			ctrl.Enqueue(mc.Request{ID: id, Addr: (id * 832) % (1 << 30), Stride: id%3 == 0, Lane: int(id % 4)})
			id++
		}
	}
	fill()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !ctrl.ServiceOne(&comp) {
			b.Fatal("idle")
		}
		fill()
	}
}

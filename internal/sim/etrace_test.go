package sim

import (
	"bytes"
	"testing"

	"sam/internal/design"
	"sam/internal/etrace"
	"sam/internal/imdb"
	"sam/internal/mc"
	"sam/internal/stats"
)

// TestEventTraceReconciles is the tracing acceptance check: on an audited
// run, the per-request spans in the event buffer rebuild the controller's
// latency histograms exactly, the command events equal the auditor's
// history per channel, the sampler's final cumulative totals equal the
// RunStats, and the Chrome export passes schema validation.
func TestEventTraceReconciles(t *testing.T) {
	d := design.New(design.SAMEn, design.Options{})
	s := NewSystem(d)
	s.Audit = true
	s.reset()
	buf := etrace.NewBuffer(0)
	buf.Name = "SAM-en"
	sp := etrace.NewSampler(256)
	sp.Name = "SAM-en"
	s.AttachEventTrace(buf, sp)
	s.AddTable(imdb.NewTable(imdb.Ta(512), 7), false)
	s.AddTable(imdb.NewTable(imdb.Tb(512), 8), false)
	res, err := s.RunQuery("SELECT SUM(f9) FROM Ta WHERE f10 > x", sel25())
	if err != nil {
		t.Fatal(err)
	}

	// 1. Latency histograms rebuilt from Complete spans match mc.Metrics.
	rebuilt := map[string]*stats.Histogram{
		"mc.lat.read.normal":  stats.NewHistogram(mc.LatencyBounds()...),
		"mc.lat.read.stride":  stats.NewHistogram(mc.LatencyBounds()...),
		"mc.lat.write.normal": stats.NewHistogram(mc.LatencyBounds()...),
		"mc.lat.write.stride": stats.NewHistogram(mc.LatencyBounds()...),
	}
	completes := 0
	for _, e := range buf.Events() {
		if e.Kind != etrace.KindComplete {
			continue
		}
		completes++
		name := "mc.lat."
		if e.Flags&etrace.FlagWrite != 0 {
			name += "write."
		} else {
			name += "read."
		}
		if e.Flags&etrace.FlagStride != 0 {
			name += "stride"
		} else {
			name += "normal"
		}
		rebuilt[name].Observe(uint64(e.DataEnd - e.Arrival))
	}
	if completes == 0 {
		t.Fatal("no completion events recorded")
	}
	for name, h := range rebuilt {
		snap, ok := res.Stats.Metrics.Histograms[name]
		if !ok {
			t.Fatalf("run metrics missing %s", name)
		}
		if h.Total() != snap.Total || h.Sum() != snap.Sum || h.Max() != snap.Max {
			t.Fatalf("%s: rebuilt total/sum/max %d/%d/%d vs metrics %d/%d/%d",
				name, h.Total(), h.Sum(), h.Max(), snap.Total, snap.Sum, snap.Max)
		}
		for i, c := range h.Counts() {
			if c != snap.Counts[i] {
				t.Fatalf("%s bucket %d: rebuilt %d vs metrics %d", name, i, c, snap.Counts[i])
			}
		}
	}

	// 2. Command events equal the auditor history, channel by channel.
	events := buf.Events()
	for ch := 0; ch < s.Channels(); ch++ {
		aud := s.controllers[ch].Audit
		hist := aud.History() // before Ok: validation sorts in place
		var i int
		for _, e := range events {
			if e.Kind != etrace.KindCommand || int(e.Chan) != ch {
				continue
			}
			if i >= len(hist) {
				t.Fatalf("ch%d: more command events than audited commands (%d)", ch, len(hist))
			}
			h := hist[i]
			if e.At != h.At || e.Cmd != h.Cmd.Kind ||
				int(e.Rank) != h.Cmd.Rank || int(e.Group) != h.Cmd.Group ||
				int(e.Bank) != h.Cmd.Bank || int(e.Row) != h.Cmd.Row || int(e.Col) != h.Cmd.Col {
				t.Fatalf("ch%d command %d: event %+v vs audited %+v at %d", ch, i, e, h.Cmd, h.At)
			}
			i++
		}
		if i != len(hist) {
			t.Fatalf("ch%d: %d command events vs %d audited commands", ch, i, len(hist))
		}
		if !aud.Ok() {
			t.Fatalf("ch%d: protocol violations: %v", ch, aud.Violations)
		}
	}

	// 3. Sampler: strictly increasing boundaries, final totals == RunStats.
	if len(sp.Samples) == 0 {
		t.Fatal("no samples recorded")
	}
	for i := 1; i < len(sp.Samples); i++ {
		if sp.Samples[i].At <= sp.Samples[i-1].At {
			t.Fatalf("sample %d at %d not after %d", i, sp.Samples[i].At, sp.Samples[i-1].At)
		}
	}
	last := sp.Samples[len(sp.Samples)-1]
	if last.At > int64(res.Stats.Cycles) {
		t.Fatalf("last sample at %d beyond run end %d", last.At, res.Stats.Cycles)
	}
	if last.Ctl != res.Stats.Controller {
		t.Fatalf("final sample controller stats %+v != run stats %+v", last.Ctl, res.Stats.Controller)
	}
	ld, rd := last.Dev, res.Stats.Device
	if ld.Acts != rd.Acts || ld.Reads != rd.Reads || ld.Writes != rd.Writes ||
		ld.StrideReads != rd.StrideReads || ld.StrideWrites != rd.StrideWrites ||
		ld.Refs != rd.Refs || ld.BusBusyCycles != rd.BusBusyCycles {
		t.Fatalf("final sample device stats %+v != run stats %+v", ld, rd)
	}

	// 4. The export passes validation with one span per completion.
	var out bytes.Buffer
	if err := etrace.WriteChrome(&out, []*etrace.Buffer{buf}, []*etrace.Sampler{sp}); err != nil {
		t.Fatal(err)
	}
	sum, verr := etrace.ValidateChrome(out.Bytes())
	if verr != nil {
		t.Fatalf("export invalid: %v", verr)
	}
	if sum.Spans != completes {
		t.Fatalf("%d spans, want %d", sum.Spans, completes)
	}
}

// TestAttachEventTraceDetach verifies nil detaches cleanly and that the
// attachment survives reset.
func TestAttachEventTraceDetach(t *testing.T) {
	s := NewSystem(design.New(design.Baseline, design.Options{}))
	buf := etrace.NewBuffer(16)
	s.AttachEventTrace(buf, nil)
	for ch := 0; ch < s.Channels(); ch++ {
		if s.controllers[ch].Trace == nil || s.devices[ch].Trace == nil {
			t.Fatalf("ch%d not wired", ch)
		}
	}
	s.reset()
	for ch := 0; ch < s.Channels(); ch++ {
		if s.controllers[ch].Trace == nil {
			t.Fatalf("ch%d wiring lost across reset", ch)
		}
	}
	s.AttachEventTrace(nil, nil)
	for ch := 0; ch < s.Channels(); ch++ {
		if s.controllers[ch].Trace != nil || s.devices[ch].Trace != nil {
			t.Fatalf("ch%d still wired after detach", ch)
		}
	}
}

package mc

import (
	"math/rand"
	"reflect"
	"testing"

	"sam/internal/dram"
	"sam/internal/ecc"
	"sam/internal/fault"
)

// TestSchedulerDifferentialFaultRateZero is the transparency proof for the
// fault-injection plumbing: a controller whose device carries a live
// fault.Injector at rate 0 (and an empty fault map) must be bit-identical to
// a controller with no probe at all — same completion stream, same Stats,
// same device accounting, same audited command sequence. The injector still
// adjudicates every data burst (Bursts grows), it just never changes one.
func TestSchedulerDifferentialFaultRateZero(t *testing.T) {
	mixes := 120
	if testing.Short() {
		mixes = 25
	}
	for mix := 0; mix < mixes; mix++ {
		rng := rand.New(rand.NewSource(int64(mix)*6959 + 3))
		devCfg, cfg := randomMixConfig(rng)

		devA := dram.NewDevice(devCfg)
		devB := dram.NewDevice(devCfg)
		in := fault.New(fault.Config{Seed: uint64(mix), Rate: 0}, ecc.SchemeSSC, true)
		devA.Probe = in
		cFault := NewController(devA, cfg)
		cPlain := NewController(devB, cfg)
		cFault.Audit = dram.NewAuditor(devCfg)
		cPlain.Audit = dram.NewAuditor(devCfg)

		n := 40 + rng.Intn(90)
		reqs := randomStream(rng, cFault.AddrMap(), devCfg, n)

		for _, r := range reqs {
			for !cFault.CanAccept(r.IsWrite) {
				if cPlain.CanAccept(r.IsWrite) {
					t.Fatalf("mix %d: CanAccept diverged before req %d", mix, r.ID)
				}
				if !serviceBoth(t, mix, cFault, cPlain) {
					t.Fatalf("mix %d: both queues at capacity with nothing to service", mix)
				}
			}
			cFault.Enqueue(r)
			cPlain.Enqueue(r)
			if rng.Intn(3) == 0 {
				serviceBoth(t, mix, cFault, cPlain)
			}
		}
		for serviceBoth(t, mix, cFault, cPlain) {
		}

		if cFault.Stats != cPlain.Stats {
			t.Fatalf("mix %d: Stats diverged:\n fault: %+v\n plain: %+v", mix, cFault.Stats, cPlain.Stats)
		}
		if !reflect.DeepEqual(devA.Stats, devB.Stats) {
			t.Fatalf("mix %d: device stats diverged:\n fault: %+v\n plain: %+v", mix, devA.Stats, devB.Stats)
		}
		if cFault.Now() != cPlain.Now() {
			t.Fatalf("mix %d: clocks diverged: fault=%d plain=%d", mix, cFault.Now(), cPlain.Now())
		}
		hA, hB := cFault.Audit.History(), cPlain.Audit.History()
		if len(hA) != len(hB) {
			t.Fatalf("mix %d: command counts diverged: fault=%d plain=%d", mix, len(hA), len(hB))
		}
		for i := range hA {
			if hA[i] != hB[i] {
				t.Fatalf("mix %d: command %d diverged:\n fault: %+v\n plain: %+v", mix, i, hA[i], hB[i])
			}
		}

		c := in.Counters
		if c.Bursts == 0 {
			t.Fatalf("mix %d: injector never saw a data burst", mix)
		}
		if c.Injected != 0 || c.Transparent != 0 || c.CorrectedBursts != 0 ||
			c.DUEs != 0 || c.SilentCorruptions != 0 {
			t.Fatalf("mix %d: rate-0 injector touched data: %+v", mix, c)
		}
		if cFault.Stats.Retries != 0 || cFault.Stats.Poisoned != 0 {
			t.Fatalf("mix %d: rate-0 run retried or poisoned: %+v", mix, cFault.Stats)
		}
	}
}

// scriptedProbe plays back a fixed verdict sequence, one per read burst
// (write bursts always come back clean), then reports clean forever.
type scriptedProbe struct {
	verdicts []dram.BurstVerdict
	reads    int
}

func (p *scriptedProbe) DataBurst(cmd dram.Command, _ dram.Cycle) dram.BurstVerdict {
	if cmd.Kind != dram.CmdRD {
		return dram.BurstOK
	}
	i := p.reads
	p.reads++
	if i < len(p.verdicts) {
		return p.verdicts[i]
	}
	return dram.BurstOK
}

// oneRead builds a controller over a scripted probe, services a single read,
// and returns the completion plus the pieces the assertions need.
func oneRead(t *testing.T, cfg Config, probe *scriptedProbe) (Completion, *Controller, *recordingTracer) {
	t.Helper()
	dev := dram.NewDevice(dram.DDR4_2400())
	dev.Probe = probe
	c := NewController(dev, cfg)
	rec := &recordingTracer{}
	c.Trace = rec
	c.Enqueue(Request{ID: 1, Addr: 0x4000})
	comp, ok := serviceOne(c)
	if !ok {
		t.Fatal("ServiceOne serviced nothing")
	}
	return comp, c, rec
}

func faultEvents(rec *recordingTracer) []recordedEvent {
	var out []recordedEvent
	for _, e := range rec.events {
		if e.kind == 'f' {
			out = append(out, e)
		}
	}
	return out
}

// TestControllerRetryRecovers: a burst that decodes uncorrectable twice and
// then clean (a transient that is re-drawn away on the re-issued burst) must
// cost exactly two retries, no poison, and push the data window later than
// the fault-free run.
func TestControllerRetryRecovers(t *testing.T) {
	probe := &scriptedProbe{verdicts: []dram.BurstVerdict{
		dram.BurstUncorrectable, dram.BurstUncorrectable,
	}}
	comp, c, rec := oneRead(t, DefaultConfig(), probe)

	clean, cc, _ := oneRead(t, DefaultConfig(), &scriptedProbe{})

	if comp.Retries != 2 || comp.Poisoned {
		t.Fatalf("completion: retries=%d poisoned=%v, want 2/false", comp.Retries, comp.Poisoned)
	}
	if c.Stats.Retries != 2 || c.Stats.Poisoned != 0 {
		t.Fatalf("stats: %+v", c.Stats)
	}
	if probe.reads != 3 {
		t.Fatalf("probe saw %d read bursts, want 3 (initial + 2 retries)", probe.reads)
	}
	if got, want := c.Stats.IssuedCommands, cc.Stats.IssuedCommands+2; got != want {
		t.Fatalf("issued %d commands, want %d (clean + 2 re-issues)", got, want)
	}
	if comp.DataEnd <= clean.DataEnd {
		t.Fatalf("retried read finished at %d, clean at %d: retries must cost cycles",
			comp.DataEnd, clean.DataEnd)
	}
	fe := faultEvents(rec)
	if len(fe) != 2 {
		t.Fatalf("recorded %d fault events, want 2 failed attempts: %+v", len(fe), fe)
	}
	for i, e := range fe {
		if e.depth != i {
			t.Fatalf("fault event %d carries attempt %d", i, e.depth)
		}
	}
}

// TestControllerPoisonAfterMaxRetries: a persistently uncorrectable burst
// (a two-chip fault map never heals on re-read) exhausts MaxRetries and the
// completion comes back poisoned, with every failed attempt traced exactly
// once — attempts 0..MaxRetries-1 as plain faults, the last as the poison
// event.
func TestControllerPoisonAfterMaxRetries(t *testing.T) {
	always := make([]dram.BurstVerdict, 16)
	for i := range always {
		always[i] = dram.BurstUncorrectable
	}
	cfg := DefaultConfig()
	probe := &scriptedProbe{verdicts: always}
	comp, c, rec := oneRead(t, cfg, probe)

	if !comp.Poisoned || int(comp.Retries) != cfg.MaxRetries {
		t.Fatalf("completion: retries=%d poisoned=%v, want %d/true",
			comp.Retries, comp.Poisoned, cfg.MaxRetries)
	}
	if c.Stats.Retries != uint64(cfg.MaxRetries) || c.Stats.Poisoned != 1 {
		t.Fatalf("stats: %+v", c.Stats)
	}
	if probe.reads != cfg.MaxRetries+1 {
		t.Fatalf("probe saw %d read bursts, want %d", probe.reads, cfg.MaxRetries+1)
	}
	fe := faultEvents(rec)
	if len(fe) != cfg.MaxRetries+1 {
		t.Fatalf("recorded %d fault events, want %d: %+v", len(fe), cfg.MaxRetries+1, fe)
	}
	for i, e := range fe {
		if e.depth != i {
			t.Fatalf("fault event %d carries attempt %d", i, e.depth)
		}
	}
}

// TestControllerPoisonNoRetries: MaxRetries 0 must poison immediately
// without re-issuing the column.
func TestControllerPoisonNoRetries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxRetries = 0
	probe := &scriptedProbe{verdicts: []dram.BurstVerdict{dram.BurstUncorrectable}}
	comp, c, _ := oneRead(t, cfg, probe)
	if !comp.Poisoned || comp.Retries != 0 {
		t.Fatalf("completion: retries=%d poisoned=%v, want 0/true", comp.Retries, comp.Poisoned)
	}
	if c.Stats.Retries != 0 || c.Stats.Poisoned != 1 || probe.reads != 1 {
		t.Fatalf("stats %+v, probe reads %d", c.Stats, probe.reads)
	}
}

// TestControllerWriteFaultNotRetried: the retry path is read-only — an
// uncorrectable verdict on a write burst (scrubbing is the array's job, not
// the issue path's) must not retry or poison.
func TestControllerWriteFaultNotRetried(t *testing.T) {
	dev := dram.NewDevice(dram.DDR4_2400())
	calls := 0
	dev.Probe = probeFunc(func(cmd dram.Command, _ dram.Cycle) dram.BurstVerdict {
		if cmd.Kind == dram.CmdWR {
			calls++
			return dram.BurstUncorrectable
		}
		return dram.BurstOK
	})
	c := NewController(dev, DefaultConfig())
	c.Enqueue(Request{ID: 1, Addr: 0x4000, IsWrite: true})
	comp, ok := serviceOne(c)
	if !ok {
		t.Fatal("ServiceOne serviced nothing")
	}
	if calls != 1 {
		t.Fatalf("write burst probed %d times, want 1 (no retries)", calls)
	}
	if comp.Poisoned || comp.Retries != 0 || c.Stats.Retries != 0 || c.Stats.Poisoned != 0 {
		t.Fatalf("write fault escalated: comp=%+v stats=%+v", comp, c.Stats)
	}
}

// probeFunc adapts a closure to dram.BurstProbe.
type probeFunc func(dram.Command, dram.Cycle) dram.BurstVerdict

func (f probeFunc) DataBurst(cmd dram.Command, at dram.Cycle) dram.BurstVerdict {
	return f(cmd, at)
}

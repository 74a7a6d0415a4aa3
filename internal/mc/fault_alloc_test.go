package mc

import (
	"testing"

	"sam/internal/dram"
	"sam/internal/ecc"
	"sam/internal/fault"
)

// zeroAllocServiceLoop warms a controller with 48 in-flight requests and
// then pins the steady-state enqueue + service loop at exactly zero
// allocations per op — the fault-enabled mirror of
// TestServiceOneZeroAllocsTraceDisabled.
func zeroAllocServiceLoop(t *testing.T, c *Controller, label string) {
	t.Helper()
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
		t.Fatalf("%s: %.2f allocs/op, want 0", label, allocs)
	}
}

// TestServiceOneZeroAllocsFaultInjection pins the fault-enabled service
// loop: with a live injector adjudicating every burst through the chipkill
// codec at rate>0, the warmed loop must still not allocate — the injector's
// burst workspace, codec scratch, and decode buffer are all owned, so
// injection costs cycles but never heap.
func TestServiceOneZeroAllocsFaultInjection(t *testing.T) {
	dev := dram.NewDevice(dram.DDR4_2400())
	in := fault.New(fault.Config{Seed: 0xF00D, Rate: 0.05}, ecc.SchemeSSC, true)
	dev.Probe = in
	c := NewController(dev, DefaultConfig())
	zeroAllocServiceLoop(t, c, "transient injection")
	if in.Counters.Injected == 0 {
		t.Fatal("no faults injected: the pin never exercised the fault path")
	}
	if in.Counters.CorrectedBursts == 0 {
		t.Fatal("no bursts corrected: the pin never exercised the decode-correct path")
	}
}

// TestServiceOneZeroAllocsFaultRetryPoison drives the worst fault path —
// every burst uncorrectable (two dead chips), so every read walks the full
// retry loop and poisons — and requires the same zero-allocation bound.
func TestServiceOneZeroAllocsFaultRetryPoison(t *testing.T) {
	dev := dram.NewDevice(dram.DDR4_2400())
	in := fault.New(fault.Config{
		Seed:      0xF00D,
		DeadChips: []fault.ChipFault{{Rank: -1, Chip: 2}, {Rank: -1, Chip: 9}},
	}, ecc.SchemeSSC, true)
	dev.Probe = in
	c := NewController(dev, DefaultConfig())
	c.SetMaxRetries(2)
	zeroAllocServiceLoop(t, c, "retry/poison path")
	if in.Counters.DUEs == 0 || c.Stats.Poisoned == 0 {
		t.Fatalf("DUEs=%d poisoned=%d: the pin never exercised retry/poison",
			in.Counters.DUEs, c.Stats.Poisoned)
	}
}

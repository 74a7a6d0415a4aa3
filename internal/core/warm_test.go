package core

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"sam/internal/design"
	"sam/internal/imdb"
	"sam/internal/sim"
)

// warmFaultedSystems builds the long-lived pair a warm faulted run serves
// queries on: baseline and SAM-en with 4 channels at SmallWorkload, the
// transient fault plane on at 1e-3 with 3 read retries.
func warmFaultedSystems() []*sim.System {
	w := SmallWorkload()
	var out []*sim.System
	for _, k := range []design.Kind{design.Baseline, design.SAMEn} {
		d := design.New(k, design.Options{})
		d.Mem.Geometry.Channels = 4
		s := sim.NewSystem(d)
		s.AddTable(imdb.NewTable(imdb.Ta(w.TaRecords), w.Seed), false)
		s.AddTable(imdb.NewTable(imdb.Tb(w.TbRecords), w.Seed+1), false)
		s.Faults = &sim.FaultModel{Seed: w.Seed, Rate: 1e-3, MaxRetries: 3}
		out = append(out, s)
	}
	return out
}

// TestWarmFaultedStreamFrozen pins query runs on warm faulted systems bit
// for bit. Each system serves a fixed order in which the Tb updates (Q11,
// Q12) precede Tb reads of written and unwritten fields (Q4, Qs4), so the
// digest covers the update overlay, end-of-run flushes of dirty lines, and
// fault adjudication on every channel. The digest is SHA-256 over the
// sim.EncodeResult stream, systems in order; change it only for an
// intended change to simulated behaviour.
func TestWarmFaultedStreamFrozen(t *testing.T) {
	const want = "7a64f69ec5016e182ca971ac77161250bb23e93a4fa9dc42f4265f8df3c4ed71"
	order := []string{"Q1", "Q11", "Q12", "Q4", "Qs4"}
	h := sha256.New()
	for i, s := range warmFaultedSystems() {
		var injected uint64
		for _, name := range order {
			q, ok := BenchQueryByName(name)
			if !ok {
				t.Fatalf("unknown query %s", name)
			}
			r, err := RunOn(s, q)
			if err != nil {
				t.Fatalf("system %d %s: %v", i, name, err)
			}
			if r.Stats.Reliability == nil {
				t.Fatalf("system %d %s: no reliability counters on a faulted run", i, name)
			}
			injected += r.Stats.Reliability.Injected
			enc, err := sim.EncodeResult(r)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(enc)
		}
		if injected == 0 {
			t.Fatalf("system %d: no fault bit over the whole order", i)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("warm faulted stream digest %s, want %s", got, want)
	}
}

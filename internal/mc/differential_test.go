package mc

import (
	"math/rand"
	"reflect"
	"testing"

	"sam/internal/dram"
)

// diffMixes is how many randomized request mixes the differential test
// drives through both schedulers (the acceptance bar is >= 1000).
const diffMixes = 1000

// randomMixConfig draws a controller configuration for one mix: varied
// queue capacities (so back-pressure and the write-drain hysteresis, which
// follows the write queue's capacity, trip at different depths) and all
// three device personalities (DDR4 with refresh, refresh-free RRAM with
// write pulses, DDR5 with doubled bank groups).
func randomMixConfig(rng *rand.Rand) (dram.Config, Config) {
	devCfg := dram.DDR4_2400()
	switch rng.Intn(4) {
	case 0:
		devCfg = dram.RRAM()
	case 1:
		devCfg = dram.DDR5_4800()
	}
	cfg := DefaultConfig()
	if rng.Intn(2) == 0 {
		wcap := 8 << rng.Intn(3) // 8, 16, 32
		cfg.WriteQueueCap = wcap
		cfg.ReadQueueCap = 8 << rng.Intn(4) // 8..64
	}
	return devCfg, cfg
}

// randomStream generates one mix's request sequence: row-local runs (row
// hits), scattered conflicts, bursts of writes (to trip the drain
// watermarks), strided requests with random lanes, ganged strided bursts,
// and occasional arrival jumps past tREFI (to force refresh batching).
func randomStream(rng *rand.Rand, m *AddrMap, devCfg dram.Config, n int) []Request {
	reqs := make([]Request, 0, n)
	var arrival dram.Cycle
	var writeRun int
	base := m.Decode(uint64(rng.Intn(1 << 28)))
	for i := 0; i < n; i++ {
		var addr uint64
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // row-local: same row as base, new column
			co := base
			co.Col = rng.Intn(m.geo.LinesPerRow())
			addr = m.Encode(co)
		case 4: // bank conflict: same bank as base, different row
			co := base
			co.Row = rng.Intn(1 << 12)
			addr = m.Encode(co)
		case 5: // re-anchor the locality window
			base = m.Decode(uint64(rng.Intn(1 << 28)))
			addr = m.Encode(base)
		default: // scattered
			addr = uint64(rng.Intn(1 << 28))
		}
		r := Request{ID: uint64(i), Addr: addr, Arrival: arrival}
		if writeRun > 0 {
			writeRun--
			r.IsWrite = true
		} else if rng.Intn(12) == 0 {
			// A write burst long enough to cross the drain high watermark.
			writeRun = 8 + rng.Intn(30)
			r.IsWrite = true
		} else if rng.Intn(4) == 0 {
			r.IsWrite = true
		}
		if rng.Intn(5) == 0 {
			r.Stride = true
			r.Lane = rng.Intn(4)
			r.Gang = rng.Intn(3) == 0
		}
		switch rng.Intn(50) {
		case 0: // jump past the refresh deadline
			arrival += dram.Cycle(devCfg.Timing.TREFI) + dram.Cycle(rng.Intn(500))
		case 1: // long idle gap (drains both queues between bursts)
			arrival += dram.Cycle(1000 + rng.Intn(4000))
		case 2, 3: // out-of-order delivery: step the clock backwards so the
			// queues lose arrival-sortedness and the scheduler's O(n)
			// fallback scans run instead of its sorted fast paths
			if arrival > 60 {
				arrival -= dram.Cycle(rng.Intn(60))
			}
		default:
			arrival += dram.Cycle(rng.Intn(25))
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// bankSpreadStream generates a bank-heavy request sequence: addresses dealt
// round-robin over every bank of every rank, each bank cycling through a
// few rows (so prepared banks see row hits, conflicts and rows another
// entry still wants), ~25% writes and ~25% strided requests, ganged when
// gang is set. Arrivals are left at zero; callers stamp them at enqueue.
func bankSpreadStream(rng *rand.Rand, m *AddrMap, n int, gang bool) []Request {
	geo := m.geo
	banks := geo.TotalBanks()
	rowBase := rng.Intn(1 << 12)
	reqs := make([]Request, n)
	for i := range reqs {
		b := (i + rng.Intn(3)) % banks
		inRank := b % geo.Banks()
		co := Coord{
			Rank:  b / geo.Banks(),
			Group: inRank % geo.BankGroups,
			Bank:  inRank / geo.BankGroups,
			Row:   rowBase + rng.Intn(3),
			Col:   rng.Intn(geo.LinesPerRow()),
		}
		reqs[i] = Request{ID: uint64(i), Addr: m.Encode(co), IsWrite: rng.Intn(4) == 0}
		if rng.Intn(4) == 0 {
			reqs[i].Stride = true
			reqs[i].Lane = rng.Intn(4)
			reqs[i].Gang = gang
		}
	}
	return reqs
}

// serviceBoth runs one ServiceOne on each scheduler and asserts the
// completions agree byte for byte.
func serviceBoth(t *testing.T, mix int, a, b scheduler) bool {
	t.Helper()
	var ca, cb Completion
	oka := a.ServiceOne(&ca)
	okb := b.ServiceOne(&cb)
	if oka != okb {
		t.Fatalf("mix %d: ServiceOne ok diverged: new=%v ref=%v", mix, oka, okb)
	}
	if ca != cb {
		t.Fatalf("mix %d: completion diverged:\n new: %+v\n ref: %+v", mix, ca, cb)
	}
	return oka
}

// TestSchedulerDifferential is the equivalence proof for the decode-once
// scheduler: on randomized request mixes spanning stride/gang/write-drain/
// refresh behaviour, the new Controller and the frozen reference scheduler
// must produce identical completion streams, identical controller Stats,
// and identical device-level command accounting.
func TestSchedulerDifferential(t *testing.T) {
	mixes := diffMixes
	if testing.Short() {
		mixes = 150
	}
	for mix := 0; mix < mixes; mix++ {
		rng := rand.New(rand.NewSource(int64(mix)*7919 + 1))
		devCfg, cfg := randomMixConfig(rng)

		devA := dram.NewDevice(devCfg)
		devB := dram.NewDevice(devCfg)
		cNew := NewController(devA, cfg)
		cRef := newReferenceController(devB, cfg)

		n := 40 + rng.Intn(90)
		reqs := randomStream(rng, cNew.AddrMap(), devCfg, n)

		for _, r := range reqs {
			for !cNew.CanAccept(r.IsWrite) {
				if cRef.CanAccept(r.IsWrite) {
					t.Fatalf("mix %d: CanAccept diverged before req %d", mix, r.ID)
				}
				if !serviceBoth(t, mix, cNew, cRef) {
					t.Fatalf("mix %d: both queues at capacity with nothing to service", mix)
				}
			}
			if !cRef.CanAccept(r.IsWrite) {
				t.Fatalf("mix %d: reference rejects req %d the new scheduler accepts", mix, r.ID)
			}
			cNew.Enqueue(r)
			cRef.Enqueue(r)
			if rng.Intn(3) == 0 {
				serviceBoth(t, mix, cNew, cRef)
			}
		}
		for serviceBoth(t, mix, cNew, cRef) {
		}

		if cNew.Stats != cRef.Stats {
			t.Fatalf("mix %d: Stats diverged:\n new: %+v\n ref: %+v", mix, cNew.Stats, cRef.Stats)
		}
		if !reflect.DeepEqual(devA.Stats, devB.Stats) {
			t.Fatalf("mix %d: device stats diverged:\n new: %+v\n ref: %+v", mix, devA.Stats, devB.Stats)
		}
		if cNew.Now() != cRef.Now() {
			t.Fatalf("mix %d: clocks diverged: new=%d ref=%d", mix, cNew.Now(), cRef.Now())
		}
		if got, want := cNew.Stats.Reads+cNew.Stats.Writes, uint64(n); got != want {
			t.Fatalf("mix %d: serviced %d of %d requests", mix, got, want)
		}
	}
	t.Run("bank-heavy", testSchedulerDifferentialBankHeavy)
}

// testSchedulerDifferentialBankHeavy drives the bank-preparation pass where
// it does the most work: deep queues spread over at least 32 occupied banks
// in which every entry has already arrived (each request is stamped with
// the controller's clock at enqueue), on DDR5's 64 banks, with ganged
// strided bursts on and off. Gang-free mixes also compare the
// audited command streams, which must stay protocol-legal.
func testSchedulerDifferentialBankHeavy(t *testing.T) {
	mixes := 24
	if testing.Short() {
		mixes = 8
	}
	for mix := 0; mix < mixes; mix++ {
		rng := rand.New(rand.NewSource(int64(mix)*15485863 + 3))
		devCfg := dram.DDR5_4800()
		gang := mix%2 == 1
		cfg := DefaultConfig()
		devA := dram.NewDevice(devCfg)
		devB := dram.NewDevice(devCfg)
		cNew := NewController(devA, cfg)
		cRef := newReferenceController(devB, cfg)
		if !gang {
			cNew.Audit = dram.NewAuditor(devCfg)
			cRef.Audit = dram.NewAuditor(devCfg)
		}

		n := 400 + rng.Intn(200)
		maxOcc := 0
		for _, r := range bankSpreadStream(rng, cNew.AddrMap(), n, gang) {
			for !cNew.CanAccept(r.IsWrite) {
				serviceBoth(t, mix, cNew, cRef)
			}
			r.Arrival = cNew.Now()
			cNew.Enqueue(r)
			cRef.Enqueue(r)
			if occ := len(cNew.readQ.occBanks); occ > maxOcc {
				maxOcc = occ
			}
			// Let the queues fill: service only now and then, so each
			// preparation pass sees a deep, fully arrived queue.
			if cNew.readQ.n+cNew.writeQ.n > 80 && rng.Intn(2) == 0 {
				serviceBoth(t, mix, cNew, cRef)
			}
		}
		for serviceBoth(t, mix, cNew, cRef) {
		}

		if maxOcc < 32 {
			t.Fatalf("mix %d: read queue peaked at %d occupied banks, want >= 32", mix, maxOcc)
		}
		if cNew.Stats != cRef.Stats {
			t.Fatalf("mix %d: Stats diverged:\n new: %+v\n ref: %+v", mix, cNew.Stats, cRef.Stats)
		}
		if !reflect.DeepEqual(devA.Stats, devB.Stats) {
			t.Fatalf("mix %d: device stats diverged:\n new: %+v\n ref: %+v", mix, devA.Stats, devB.Stats)
		}
		if cNew.Now() != cRef.Now() {
			t.Fatalf("mix %d: clocks diverged: new=%d ref=%d", mix, cNew.Now(), cRef.Now())
		}
		if gang {
			if devA.Stats.GangedBursts == 0 {
				t.Fatalf("mix %d: ganged mix issued no ganged bursts", mix)
			}
			continue
		}
		if !cNew.Audit.Ok() {
			t.Fatalf("mix %d: new scheduler protocol violation: %s", mix, cNew.Audit.Violations[0])
		}
		if !cRef.Audit.Ok() {
			t.Fatalf("mix %d: reference protocol violation: %s", mix, cRef.Audit.Violations[0])
		}
		hNew, hRef := cNew.Audit.History(), cRef.Audit.History()
		if len(hNew) != len(hRef) {
			t.Fatalf("mix %d: command counts diverged: new=%d ref=%d", mix, len(hNew), len(hRef))
		}
		for i := range hNew {
			if hNew[i] != hRef[i] {
				t.Fatalf("mix %d: command %d diverged:\n new: %+v\n ref: %+v", mix, i, hNew[i], hRef[i])
			}
		}
	}
}

// TestSchedulerDifferentialAudited re-runs a slice of the differential
// space with protocol auditors attached to both schedulers: equivalence
// must hold for the issued command streams too, and both must stay
// JEDEC-legal (gang-free mixes; ganged ACTs intentionally skip the mirror
// rank's bookkeeping, which the auditor flags by design).
func TestSchedulerDifferentialAudited(t *testing.T) {
	mixes := 60
	if testing.Short() {
		mixes = 10
	}
	for mix := 0; mix < mixes; mix++ {
		rng := rand.New(rand.NewSource(int64(mix)*104729 + 5))
		devCfg, cfg := randomMixConfig(rng)

		devA := dram.NewDevice(devCfg)
		devB := dram.NewDevice(devCfg)
		cNew := NewController(devA, cfg)
		cRef := newReferenceController(devB, cfg)
		cNew.Audit = dram.NewAuditor(devCfg)
		cRef.Audit = dram.NewAuditor(devCfg)

		reqs := randomStream(rng, cNew.AddrMap(), devCfg, 60+rng.Intn(60))
		for i := range reqs {
			reqs[i].Gang = false
		}
		for _, r := range reqs {
			for !cNew.CanAccept(r.IsWrite) {
				serviceBoth(t, mix, cNew, cRef)
			}
			cNew.Enqueue(r)
			cRef.Enqueue(r)
			if rng.Intn(3) == 0 {
				serviceBoth(t, mix, cNew, cRef)
			}
		}
		for serviceBoth(t, mix, cNew, cRef) {
		}

		if !cNew.Audit.Ok() {
			t.Fatalf("mix %d: new scheduler protocol violation: %s", mix, cNew.Audit.Violations[0])
		}
		if !cRef.Audit.Ok() {
			t.Fatalf("mix %d: reference protocol violation: %s", mix, cRef.Audit.Violations[0])
		}
		hNew, hRef := cNew.Audit.History(), cRef.Audit.History()
		if len(hNew) != len(hRef) {
			t.Fatalf("mix %d: command counts diverged: new=%d ref=%d", mix, len(hNew), len(hRef))
		}
		for i := range hNew {
			if hNew[i] != hRef[i] {
				t.Fatalf("mix %d: command %d diverged:\n new: %+v\n ref: %+v",
					mix, i, hNew[i], hRef[i])
			}
		}
	}
}

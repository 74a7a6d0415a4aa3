package power

import (
	"math"
	"testing"
)

func TestEnergyAdditivity(t *testing.T) {
	// Invariant 10: the breakdown sums to the total, and activity is
	// additive — E(a+b) = E(a) + E(b) with matching cycle counts.
	m := DDR4Model(18)
	a := Activity{Acts: 100, Reads: 500, Writes: 50, Refreshes: 2, Cycles: 100000}
	b := Activity{Acts: 30, StrideReads: 200, StrideWrites: 10, Cycles: 50000}
	sum := Activity{
		Acts: a.Acts + b.Acts, Reads: a.Reads + b.Reads, Writes: a.Writes + b.Writes,
		StrideReads: a.StrideReads + b.StrideReads, StrideWrites: a.StrideWrites + b.StrideWrites,
		Refreshes: a.Refreshes + b.Refreshes, Cycles: a.Cycles + b.Cycles,
	}
	ea, eb, es := m.Energy(a), m.Energy(b), m.Energy(sum)
	if math.Abs(es.Total()-(ea.Total()+eb.Total())) > 1e-6*es.Total() {
		t.Fatalf("energy not additive: %v + %v != %v", ea.Total(), eb.Total(), es.Total())
	}
	if es.Total() <= 0 {
		t.Fatal("non-positive energy")
	}
	if got := es.Background + es.ActPre + es.RdWr + es.Refresh; math.Abs(got-es.Total()) > 1e-9 {
		t.Fatal("breakdown does not sum to total")
	}
}

func TestStrideCurrentsRaiseSAMIOEnergy(t *testing.T) {
	// SAM-IO's stride bursts use x16-class currents: the same burst count
	// must cost more energy than regular bursts.
	samIO := DDR4Model(18)
	samIO.Stride = DDR4x16()
	regular := Activity{Reads: 1000, Cycles: 100000}
	strided := Activity{StrideReads: 1000, Cycles: 100000}
	er, es := samIO.Energy(regular), samIO.Energy(strided)
	if es.RdWr <= er.RdWr {
		t.Fatalf("stride RdWr energy %v not above regular %v", es.RdWr, er.RdWr)
	}
	// SAM-en (fine-grained activation) erases the difference.
	samEn := DDR4Model(18)
	if samEn.Energy(strided).RdWr != samEn.Energy(regular).RdWr {
		t.Fatal("SAM-en stride energy should equal regular")
	}
}

func TestFineGrainedActivationScalesActEnergy(t *testing.T) {
	full := DDR4Model(18)
	fine := DDR4Model(18)
	fine.ActChipFraction = 0.25
	a := Activity{Acts: 1000, Cycles: 1000}
	if got, want := fine.Energy(a).ActPre, full.Energy(a).ActPre*0.25; math.Abs(got-want) > 1e-9 {
		t.Fatalf("fine-grained ACT energy %v, want %v", got, want)
	}
}

func TestRRAMCharacter(t *testing.T) {
	// RRAM: near-zero background, writes far more expensive than reads.
	rram := RRAMModel(18)
	ddr := DDR4Model(18)
	idle := Activity{Cycles: 1000000}
	if rram.Energy(idle).Background >= ddr.Energy(idle).Background/5 {
		t.Fatal("RRAM background power should be a small fraction of DRAM's")
	}
	wr := Activity{Writes: 1000, Cycles: 1000}
	rd := Activity{Reads: 1000, Cycles: 1000}
	if rram.Energy(wr).RdWr <= 2*rram.Energy(rd).RdWr {
		t.Fatal("RRAM writes should cost much more than reads")
	}
}

func TestAveragePowerConversion(t *testing.T) {
	m := DDR4Model(18)
	a := Activity{Reads: 1000, Acts: 100, Cycles: 1_200_000} // 1 ms at 1200 MHz
	e := m.Energy(a)
	p := m.AveragePowerMW(e, a.Cycles)
	// total mW = total nJ / 1e6 ns * 1e3... cross-check numerically:
	seconds := float64(a.Cycles) / 1200e6
	want := e.Total() * 1e-9 / seconds * 1e3
	got := p.Background + p.ActPre + p.RdWr + p.Refresh
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("power %v mW, want %v", got, want)
	}
	if zero := m.AveragePowerMW(e, 0); zero.Total() != 0 {
		t.Fatal("zero-cycle power should be zero")
	}
	// Background power of an idle DDR4 rank should land in a plausible
	// datasheet range (hundreds of mW for 18 chips).
	idleP := m.AveragePowerMW(m.Energy(Activity{Cycles: 1_200_000}), 1_200_000)
	if idleP.Background < 300 || idleP.Background > 2500 {
		t.Fatalf("idle rank background %v mW implausible", idleP.Background)
	}
}

func TestBackgroundScale(t *testing.T) {
	base := DDR4Model(18)
	scaled := DDR4Model(18)
	scaled.BackgroundScale = 1.02 // SAM-sub's +2%
	a := Activity{Cycles: 100000}
	ratio := scaled.Energy(a).Background / base.Energy(a).Background
	if math.Abs(ratio-1.02) > 1e-9 {
		t.Fatalf("background scale ratio %v, want 1.02", ratio)
	}
}

func TestPerBankActPreSumsToBreakdown(t *testing.T) {
	// The spatial split must reconstruct Breakdown.ActPre exactly: one ACT
	// costs ActPreEnergyNJ, and per-bank energies sum to the total.
	m := DDR4Model(18)
	if e := m.ActPreEnergyNJ(); e <= 0 {
		t.Fatalf("per-ACT energy %v, want > 0", e)
	}
	acts := []uint64{5, 0, 12, 3}
	var total uint64
	for _, n := range acts {
		total += n
	}
	b := m.Energy(Activity{Acts: total})
	per := m.PerBankActPre(acts)
	if len(per) != len(acts) {
		t.Fatalf("per-bank length %d, want %d", len(per), len(acts))
	}
	var sum float64
	for i, e := range per {
		if acts[i] == 0 && e != 0 {
			t.Fatalf("idle bank %d charged %v nJ", i, e)
		}
		sum += e
	}
	if math.Abs(sum-b.ActPre) > 1e-9*b.ActPre {
		t.Fatalf("per-bank sum %v != breakdown ActPre %v", sum, b.ActPre)
	}
}

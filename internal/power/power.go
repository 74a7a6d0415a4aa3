// Package power estimates memory power and energy with the IDD-based
// methodology of Micron's DDR4 power calculator, which the paper uses:
// per-command-class energies derived from datasheet supply currents, plus
// background power, summed over a run's command counts and duration.
//
// Absolute milliwatts depend on the datasheet excerpt; what the experiments
// rely on are the *mechanisms*: SAM-IO's stride fetches draw x16-class
// current, SAM-en's fine-grained activation restores x4-class draw, RRAM
// idles near zero but pays heavily per write.
package power

// ChipCurrents holds per-chip IDD values in milliamps.
type ChipCurrents struct {
	IDD0  float64 // one-bank ACT/PRE cycle average
	IDD2N float64 // precharge standby
	IDD3N float64 // active standby
	IDD4R float64 // burst read
	IDD4W float64 // burst write
	IDD5B float64 // burst refresh
}

// Model converts command activity into energy.
type Model struct {
	Name string
	VDD  float64 // volts
	// Chips is the rank width including check chips (18 for SSC x4).
	Chips int
	// Regular applies to normal-mode accesses; Stride to SAM stride-mode
	// accesses (SAM-IO fetches through the x16 path; SAM-en's fine-grained
	// activation makes Stride equal Regular again).
	Regular, Stride ChipCurrents
	// ActChipFraction scales activation energy by the fraction of mats a
	// row activation really opens (fine-grained activation, Fig. 8a).
	ActChipFraction float64
	// BackgroundScale inflates standby power (SAM-sub's +2% extra decode
	// and sense-amp logic).
	BackgroundScale float64
	// Timing inputs for per-command energy.
	TRC, TBL, TRFC int // cycles
	ClockMHz       float64
}

// Activity is the command tally of one run.
type Activity struct {
	Acts         uint64
	Reads        uint64 // regular-mode bursts
	Writes       uint64
	StrideReads  uint64 // stride-mode bursts
	StrideWrites uint64
	Refreshes    uint64
	Cycles       uint64 // run duration in bus cycles
}

// Breakdown is energy by category in nanojoules (the Fig. 13 stack).
type Breakdown struct {
	Background float64
	ActPre     float64
	RdWr       float64
	Refresh    float64
}

// Total sums the categories.
func (b Breakdown) Total() float64 {
	return b.Background + b.ActPre + b.RdWr + b.Refresh
}

// nsPerCycle converts the model clock.
func (m Model) nsPerCycle() float64 { return 1e3 / m.ClockMHz }

// Energy computes the run's energy breakdown in nanojoules.
// Per-command energies follow the Micron calculator's structure:
//
//	E_act    = (IDD0 - IDD3N) * VDD * tRC
//	E_rd/wr  = (IDD4x - IDD3N) * VDD * tBL
//	E_ref    = (IDD5B - IDD2N) * VDD * tRFC
//	E_bg     = IDD3N * VDD * cycles     (open-page: rows sit active)
//
// with currents in mA and times in ns, giving picojoule-scale products that
// are summed per chip across the rank (converted to nJ).
func (m Model) Energy(a Activity) Breakdown {
	ns := m.nsPerCycle()
	chips := float64(m.Chips)
	toNJ := 1e-3 // mA * V * ns = pJ; 1e-3 pJ->nJ

	rdE := (m.Regular.IDD4R - m.Regular.IDD3N) * m.VDD * float64(m.TBL) * ns * chips * toNJ
	wrE := (m.Regular.IDD4W - m.Regular.IDD3N) * m.VDD * float64(m.TBL) * ns * chips * toNJ
	srdE := (m.Stride.IDD4R - m.Stride.IDD3N) * m.VDD * float64(m.TBL) * ns * chips * toNJ
	swrE := (m.Stride.IDD4W - m.Stride.IDD3N) * m.VDD * float64(m.TBL) * ns * chips * toNJ
	refE := (m.Regular.IDD5B - m.Regular.IDD2N) * m.VDD * float64(m.TRFC) * ns * chips * toNJ
	bgP := m.Regular.IDD3N * m.VDD * m.BackgroundScale * chips // mW

	var b Breakdown
	b.ActPre = float64(a.Acts) * m.ActPreEnergyNJ()
	b.RdWr = float64(a.Reads)*rdE + float64(a.Writes)*wrE +
		float64(a.StrideReads)*srdE + float64(a.StrideWrites)*swrE
	b.Refresh = float64(a.Refreshes) * refE
	b.Background = bgP * float64(a.Cycles) * ns * toNJ
	return b
}

// ActPreEnergyNJ returns the activate/precharge-cycle energy of one ACT in
// nanojoules — the per-event cost Energy charges to Breakdown.ActPre,
// including the fine-grained-activation scaling.
func (m Model) ActPreEnergyNJ() float64 {
	return (m.Regular.IDD0 - m.Regular.IDD3N) * m.VDD * float64(m.TRC) * m.nsPerCycle() *
		float64(m.Chips) * 1e-3 * m.ActChipFraction
}

// PerBankActPre converts per-bank activate counts into per-bank activation
// energy in nanojoules — the spatial split of Breakdown.ActPre that the
// per-bank accounting in internal/dram feeds.
func (m Model) PerBankActPre(acts []uint64) []float64 {
	e := m.ActPreEnergyNJ()
	out := make([]float64, len(acts))
	for i, n := range acts {
		out[i] = float64(n) * e
	}
	return out
}

// AveragePowerMW converts a breakdown back to average power over the run.
func (m Model) AveragePowerMW(b Breakdown, cycles uint64) Breakdown {
	if cycles == 0 {
		return Breakdown{}
	}
	seconds := float64(cycles) * m.nsPerCycle() * 1e-9
	div := func(e float64) float64 { return e * 1e-9 / seconds * 1e3 } // nJ -> mW
	return Breakdown{
		Background: div(b.Background),
		ActPre:     div(b.ActPre),
		RdWr:       div(b.RdWr),
		Refresh:    div(b.Refresh),
	}
}

// DDR4x4 returns the regular x4 chip currents (Micron 8Gb DDR4-2400
// datasheet class values).
func DDR4x4() ChipCurrents {
	return ChipCurrents{IDD0: 58, IDD2N: 34, IDD3N: 44, IDD4R: 140, IDD4W: 130, IDD5B: 190}
}

// DDR4x16 returns x16-mode currents: the wide internal fetch moves four
// column words and drives four times the array datapath.
func DDR4x16() ChipCurrents {
	return ChipCurrents{IDD0: 68, IDD2N: 37, IDD3N: 55, IDD4R: 250, IDD4W: 230, IDD5B: 196}
}

// RRAMCurrents returns the crossbar-RRAM personality modeled after Lee et
// al.: near-zero standby (non-volatile, no refresh), moderate reads,
// expensive writes.
func RRAMCurrents() ChipCurrents {
	return ChipCurrents{IDD0: 22, IDD2N: 1.5, IDD3N: 2.5, IDD4R: 160, IDD4W: 520, IDD5B: 0}
}

// DDR4Model builds the baseline DRAM power model for a rank of chips.
func DDR4Model(chips int) Model {
	return Model{
		Name: "DDR4", VDD: 1.2, Chips: chips,
		Regular: DDR4x4(), Stride: DDR4x4(),
		ActChipFraction: 1, BackgroundScale: 1,
		TRC: 56, TBL: 4, TRFC: 420, ClockMHz: 1200,
	}
}

// RRAMModel builds the RRAM power model.
func RRAMModel(chips int) Model {
	m := DDR4Model(chips)
	m.Name = "RRAM"
	m.Regular, m.Stride = RRAMCurrents(), RRAMCurrents()
	m.TRFC = 1 // no refresh; refresh count will be zero anyway
	return m
}

package design

import (
	"fmt"
	"testing"

	"sam/internal/dram"
	"sam/internal/ecc"
	"sam/internal/power"
)

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		Baseline: "baseline", Ideal: "ideal", SAMSub: "SAM-sub", SAMIO: "SAM-IO",
		SAMEn: "SAM-en", GSDRAM: "GS-DRAM", GSDRAMecc: "GS-DRAM-ecc",
		RCNVMBit: "RC-NVM-bit", RCNVMWd: "RC-NVM-wd", Kind(99): "Kind(99)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d -> %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestGranularityDefaults(t *testing.T) {
	// Reach * SectorBytes must equal the cacheline for every sweep point,
	// so one strided burst carries exactly one line's worth of payload.
	for _, g := range []Granularity{Gran16, Gran8, Gran4} {
		if g.Reach*g.SectorBytes != 64 {
			t.Errorf("%d-bit: reach %d x sector %dB != 64B", g.BitsPerChip, g.Reach, g.SectorBytes)
		}
	}
	if !Gran4.Gang || Gran8.Gang || Gran16.Gang {
		t.Error("only 4-bit granularity gangs ranks")
	}
}

// validatePower checks that a power model's electrical, timing and scaling
// terms are in range.
func validatePower(m power.Model) error {
	if m.VDD <= 0 || m.Chips <= 0 || m.ClockMHz <= 0 {
		return fmt.Errorf("power: bad electrical params in %q", m.Name)
	}
	if m.TRC <= 0 || m.TBL <= 0 {
		return fmt.Errorf("power: bad timing params in %q", m.Name)
	}
	if m.ActChipFraction <= 0 || m.ActChipFraction > 1 {
		return fmt.Errorf("power: ActChipFraction %v out of (0,1]", m.ActChipFraction)
	}
	if m.BackgroundScale <= 0 {
		return fmt.Errorf("power: BackgroundScale %v not positive", m.BackgroundScale)
	}
	return nil
}

func TestPowerModelValidation(t *testing.T) {
	m := power.DDR4Model(18)
	if err := validatePower(m); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
	bad := m
	bad.VDD = 0
	if validatePower(bad) == nil {
		t.Error("zero VDD accepted")
	}
	bad = m
	bad.ActChipFraction = 0
	if validatePower(bad) == nil {
		t.Error("zero ActChipFraction accepted")
	}
	bad = m
	bad.BackgroundScale = -1
	if validatePower(bad) == nil {
		t.Error("negative BackgroundScale accepted")
	}
	bad = m
	bad.TRC = 0
	if validatePower(bad) == nil {
		t.Error("zero tRC accepted")
	}
}

func TestDesignConstruction(t *testing.T) {
	for _, k := range append([]Kind{Baseline, Ideal}, AllEvaluated()...) {
		d := New(k, Options{})
		if err := d.Mem.Validate(); err != nil {
			t.Errorf("%v: invalid memory config: %v", k, err)
		}
		if err := validatePower(d.Power); err != nil {
			t.Errorf("%v: invalid power model: %v", k, err)
		}
		if d.SubFieldSplit < 1 {
			t.Errorf("%v: SubFieldSplit %d", k, d.SubFieldSplit)
		}
	}
}

func TestSubstrates(t *testing.T) {
	if New(RCNVMWd, Options{}).Mem.Name == "DDR4-2400" {
		t.Error("RC-NVM should default to NVM")
	}
	if New(SAMEn, Options{}).Mem.Name != "DDR4-2400" {
		t.Error("SAM should default to DRAM")
	}
	// Fig. 14a swap.
	swapped := New(SAMEn, Options{Substrate: NVM, SubstrateSet: true})
	if swapped.Mem.Timing.TRCD != 35 {
		t.Errorf("NVM-substrate SAM tRCD = %d, want RRAM's 35", swapped.Mem.Timing.TRCD)
	}
	dramRC := New(RCNVMWd, Options{Substrate: DRAM, SubstrateSet: true})
	if dramRC.Mem.Timing.TRCD <= dram.DDR4_2400().Timing.TRCD {
		t.Error("DRAM-substrate RC-NVM should keep its area-scaled timing inflation")
	}
	if DRAM.String() != "DRAM" || NVM.String() != "NVM" {
		t.Error("substrate names")
	}
}

func TestTimingInflationApplied(t *testing.T) {
	base := dram.DDR4_2400().Timing
	if d := New(SAMSub, Options{}); d.Mem.Timing.TRCD <= base.TRCD {
		t.Error("SAM-sub timing not inflated by its 7.2% area")
	}
	if d := New(SAMIO, Options{}); d.Mem.Timing.TRCD != base.TRCD {
		t.Error("SAM-IO (<0.01% area) must keep baseline timing")
	}
}

func TestChipkillPairing(t *testing.T) {
	if d := New(SAMEn, Options{Gran: Gran4}); d.Chipkill != ecc.SchemeSSCDSD {
		t.Errorf("4-bit granularity pairs with SSC-DSD, got %v", d.Chipkill)
	}
	if d := New(SAMEn, Options{Gran: Gran8}); d.Chipkill != ecc.SchemeSSC {
		t.Errorf("8-bit granularity pairs with SSC, got %v", d.Chipkill)
	}
	if New(GSDRAM, Options{}).HasECC {
		t.Error("plain GS-DRAM must not claim ECC")
	}
	if !New(GSDRAMecc, Options{}).HasECC {
		t.Error("GS-DRAM-ecc must claim ECC")
	}
}

func TestSectorGeometry(t *testing.T) {
	if n := New(Baseline, Options{}).SectorsPerLine(); n != 1 {
		t.Errorf("baseline sectors/line = %d", n)
	}
	if n := New(SAMEn, Options{Gran: Gran4}).SectorsPerLine(); n != 8 {
		t.Errorf("4-bit SAM sectors/line = %d, want 8", n)
	}
	if n := New(SAMEn, Options{Gran: Gran16}).SectorsPerLine(); n != 2 {
		t.Errorf("16-bit SAM sectors/line = %d, want 2", n)
	}
}

func TestStrideSupportFlags(t *testing.T) {
	for k, want := range map[Kind]bool{
		Baseline: false, Ideal: false,
		SAMSub: true, SAMIO: true, SAMEn: true,
		GSDRAM: true, GSDRAMecc: true, RCNVMBit: true, RCNVMWd: true,
	} {
		if got := New(k, Options{}).SupportsStride(); got != want {
			t.Errorf("%v stride support = %v, want %v", k, got, want)
		}
	}
}

func TestCriticalWordFirst(t *testing.T) {
	// Table 1's CWF row: SAM-IO and GS-DRAM variants lose critical-word-
	// first; SAM-en's 2-D I/O buffer restores it.
	for k, lost := range map[Kind]bool{
		SAMIO: true, GSDRAM: true, GSDRAMecc: true,
		SAMEn: false, SAMSub: false, Baseline: false,
	} {
		if got := New(k, Options{}).NoCriticalWordFirst; got != lost {
			t.Errorf("%v NoCriticalWordFirst = %v, want %v", k, got, lost)
		}
	}
}

func TestGangOnlyForSAM(t *testing.T) {
	if !New(SAMEn, Options{Gran: Gran4}).Gran.Gang {
		t.Error("SAM-en at 4-bit granularity should gang ranks")
	}
	for _, k := range []Kind{GSDRAM, GSDRAMecc, RCNVMBit, RCNVMWd} {
		if New(k, Options{Gran: Gran4}).Gran.Gang {
			t.Errorf("%v must not gang ranks", k)
		}
	}
}

func TestRCNVMSmallRows(t *testing.T) {
	d := New(RCNVMWd, Options{})
	if d.Mem.Geometry.RowBytes >= dram.DDR4_2400().Geometry.RowBytes {
		t.Error("reshaped RC-NVM should have smaller rows than DDR4")
	}
	// Substrate-swapped (DRAM) RC-NVM keeps DRAM geometry.
	swap := New(RCNVMWd, Options{Substrate: DRAM, SubstrateSet: true})
	if swap.Mem.Geometry.RowBytes != dram.DDR4_2400().Geometry.RowBytes {
		t.Error("DRAM-substrate RC-NVM should use DRAM rows")
	}
}

func TestPowerPersonalities(t *testing.T) {
	samIO := New(SAMIO, Options{})
	if samIO.Power.Stride.IDD4R <= samIO.Power.Regular.IDD4R {
		t.Error("SAM-IO stride current should be x16-class (higher)")
	}
	samEn := New(SAMEn, Options{})
	if samEn.Power.Stride.IDD4R != samEn.Power.Regular.IDD4R {
		t.Error("SAM-en fine-grained activation should restore x4-class stride current")
	}
	if samEn.Power.ActChipFraction >= 1 {
		t.Error("SAM-en should activate a fraction of mats")
	}
	samSub := New(SAMSub, Options{})
	if samSub.Power.BackgroundScale <= 1 {
		t.Error("SAM-sub should carry the +2% background uplift")
	}
}

func TestAllEvaluatedSet(t *testing.T) {
	kinds := AllEvaluated()
	if len(kinds) != 8 {
		t.Fatalf("evaluated set has %d designs, want 8", len(kinds))
	}
	seen := map[Kind]bool{}
	for _, k := range kinds {
		if seen[k] {
			t.Fatalf("duplicate %v", k)
		}
		seen[k] = true
	}
	if seen[Baseline] {
		t.Error("baseline is the normalization target, not an evaluated design")
	}
}

func TestUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kind accepted")
		}
	}()
	New(Kind(42), Options{})
}

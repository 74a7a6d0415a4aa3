package area

import (
	"math"
	"testing"
)

func approx(got, want, tol float64) bool { return math.Abs(got-want) <= tol }

func TestSection61Derivation(t *testing.T) {
	// The paper's own numbers, derived rather than hard-coded:
	sub := Baseline512()
	if sub.Total() != 140 {
		t.Fatalf("baseline M2 tracks = %d, want 140", sub.Total())
	}
	if w := sub.WireOverhead(8); !approx(w, 0.057, 0.0005) {
		t.Fatalf("8 extra tracks = %.4f, want ~5.7%%", w)
	}
	die := ReferenceDie()
	if p := die.LogicOverhead(0.14); !approx(p, 0.008, 1e-6) {
		t.Fatalf("global SA overhead = %.4f, want 0.8%%", p)
	}
	if p := die.LogicOverhead(0.002); p >= 0.0002 {
		t.Fatalf("column decoder overhead %.5f, want <0.01%%", p)
	}
}

func TestPaperHeadlineOverheads(t *testing.T) {
	cases := []struct {
		o    Overhead
		want float64
		tol  float64
	}{
		{SAMSub(), 0.072, 0.002},   // ~7.2%
		{SAMIO(), 0.0001, 0.0001},  // <0.01%
		{SAMEn(), 0.007, 0.0012},   // ~0.7%
		{RCNVMBit(), 0.15, 0.001},  // ~15%
		{RCNVMWord(), 0.33, 0.001}, // ~33%
	}
	for _, c := range cases {
		if !approx(c.o.Area(), c.want, c.tol) {
			t.Errorf("%s area = %.4f, want %.4f +- %.4f", c.o.Design, c.o.Area(), c.want, c.tol)
		}
	}
}

func TestGSDRAMStorageOverhead(t *testing.T) {
	if GSDRAM().Storage != 0 {
		t.Fatal("plain GS-DRAM has no storage overhead (and no ECC)")
	}
	if got := GSDRAMecc().Storage; !approx(got, 0.125, 1e-9) {
		t.Fatalf("embedded ECC storage = %v, want 12.5%%", got)
	}
}

func TestSAMOrdering(t *testing.T) {
	// Fig. 14c's qualitative shape: SAM-IO < SAM-en < SAM-sub << RC-NVM.
	if !(SAMIO().Area() < SAMEn().Area() && SAMEn().Area() < SAMSub().Area() &&
		SAMSub().Area() < RCNVMBit().Area() && RCNVMBit().Area() < RCNVMWord().Area()) {
		t.Fatal("area ordering violated")
	}
}

func TestMetalLayers(t *testing.T) {
	for _, o := range []Overhead{SAMSub(), SAMIO(), SAMEn(), GSDRAM()} {
		if o.MetalLayers != 0 {
			t.Errorf("%s should need no extra metal layers", o.Design)
		}
	}
	if RCNVMBit().MetalLayers != 2 || RCNVMWord().MetalLayers != 2 {
		t.Error("RC-NVM variants need two extra metal layers")
	}
}

func TestTimingInflation(t *testing.T) {
	if f := TimingInflation(SAMSub()); !approx(f, 1.072, 0.002) {
		t.Fatalf("SAM-sub inflation %v, want ~1.072", f)
	}
	if f := TimingInflation(SAMIO()); f > 1.001 {
		t.Fatalf("SAM-IO inflation %v, want ~1", f)
	}
	if f := TimingInflation(RCNVMWord()); !approx(f, 1.33, 0.001) {
		t.Fatalf("RC-NVM-wd inflation %v", f)
	}
}

func TestAllSetComplete(t *testing.T) {
	all := All()
	if len(all) != 7 {
		t.Fatalf("All() has %d designs, want 7", len(all))
	}
	seen := map[string]bool{}
	for _, o := range all {
		if seen[o.Design] {
			t.Fatalf("duplicate design %s", o.Design)
		}
		seen[o.Design] = true
	}
}

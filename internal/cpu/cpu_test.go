package cpu

import (
	"math"
	"testing"
)

func TestBusCyclesConversion(t *testing.T) {
	p := Default()
	// 4 CPU cycles at 4 GHz = 1 ns = 1.2 bus cycles at 1200 MHz, split
	// over 4 cores = 0.3.
	got := p.BusCyclesPer(4, 1200)
	if math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("conversion = %v, want 0.3", got)
	}
	single := p
	single.Cores = 1
	if math.Abs(single.BusCyclesPer(4, 1200)-1.2) > 1e-12 {
		t.Fatal("single-core conversion")
	}
	zero := p
	zero.Cores = 0
	if zero.BusCyclesPer(4, 1200) != single.BusCyclesPer(4, 1200) {
		t.Fatal("zero cores should clamp to one")
	}
}

func TestWindowSize(t *testing.T) {
	p := Default()
	if p.WindowSize() != 64 {
		t.Fatalf("window = %d, want 16x4", p.WindowSize())
	}
	p.Cores = 0
	if p.WindowSize() != 16 {
		t.Fatal("zero cores should clamp to one")
	}
}

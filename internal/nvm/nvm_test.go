package nvm

import (
	"testing"

	"sam/internal/dram"
)

func TestRRAMPersonality(t *testing.T) {
	c := dram.RRAM()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	d := dram.DDR4_2400()
	if c.Timing.TRCD <= d.Timing.TRCD {
		t.Error("RRAM activation should be slower than DRAM")
	}
	if c.Timing.TRP >= d.Timing.TRP {
		t.Error("RRAM precharge (non-destructive reads) should be near-free")
	}
	if c.Timing.TWRBurst == 0 {
		t.Error("crossbar writes need pulse spacing")
	}
	if c.Timing.TREFI <= d.Timing.TREFI {
		t.Error("non-volatile memory should not refresh on a DRAM cadence")
	}
}

func TestReshapedSquare(t *testing.T) {
	c := ReshapedSquare()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Geometry.RowBytes >= dram.RRAM().Geometry.RowBytes {
		t.Error("reshaped square should expose smaller rows")
	}
	// Capacity must be preserved by the reshape (same cells, new aspect).
	cap1 := dram.RRAM().Geometry.RowsPerBank() * dram.RRAM().Geometry.RowBytes
	cap2 := c.Geometry.RowsPerBank() * c.Geometry.RowBytes
	if cap1 != cap2 {
		t.Errorf("reshape changed capacity: %d vs %d", cap1, cap2)
	}
}

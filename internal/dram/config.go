// Package dram models a DDR4-class memory device at command/cycle level:
// channel/rank/bank-group/bank geometry, the JEDEC timing state machine,
// mode registers (including SAM's stride I/O modes), and the common-die
// I/O buffer datapath (functional).
//
// All times are in memory bus clock cycles (DDR4-2400: 1200 MHz, so one
// cycle is 0.833 ns and a BL8 burst occupies tBL = 4 cycles of data bus).
package dram

import "fmt"

// Geometry describes the channel organization (Table 2 of the paper).
type Geometry struct {
	Channels         int // independent channels (the paper simulates 1)
	Ranks            int // ranks per channel
	BankGroups       int // bank groups per rank (DDR4: 4)
	BanksPerGroup    int // banks per bank group (DDR4: 4)
	SubarraysPerBank int
	RowsPerSubarray  int
	RowBytes         int // bytes a rank-level row holds (all chips combined)
	LineBytes        int // cacheline transfer size
	DataChips        int // data chips per rank (x4 server DIMM: 16)
}

// Banks returns banks per rank.
func (g Geometry) Banks() int { return g.BankGroups * g.BanksPerGroup }

// TotalBanks returns banks per channel.
func (g Geometry) TotalBanks() int { return g.Banks() * g.Ranks }

// RowsPerBank returns rows per bank.
func (g Geometry) RowsPerBank() int { return g.SubarraysPerBank * g.RowsPerSubarray }

// LinesPerRow returns cachelines per row.
func (g Geometry) LinesPerRow() int { return g.RowBytes / g.LineBytes }

// Validate checks the geometry for internal consistency.
func (g Geometry) Validate() error {
	switch {
	case g.Channels <= 0 || g.Ranks <= 0 || g.BankGroups <= 0 || g.BanksPerGroup <= 0:
		return fmt.Errorf("dram: non-positive channel geometry %+v", g)
	case g.RowBytes <= 0 || g.LineBytes <= 0 || g.RowBytes%g.LineBytes != 0:
		return fmt.Errorf("dram: row %dB not a multiple of line %dB", g.RowBytes, g.LineBytes)
	case g.SubarraysPerBank <= 0 || g.RowsPerSubarray <= 0:
		return fmt.Errorf("dram: non-positive subarray geometry %+v", g)
	case g.DataChips <= 0:
		return fmt.Errorf("dram: no data chips")
	}
	return nil
}

// Timing holds the JEDEC-style timing parameters in bus cycles.
type Timing struct {
	CL   int // read CAS latency
	CWL  int // write CAS latency
	TRCD int // ACT to RD/WR
	TRP  int // PRE to ACT
	TRAS int // ACT to PRE
	TWR  int // end of write data to PRE
	TRTP int // RD to PRE
	TBL  int // data burst length on the bus (BL8 = 4 cycles)
	// Bank-group aware column-to-column delays.
	TCCDS int // different bank group
	TCCDL int // same bank group
	TRRDS int // ACT to ACT, different bank group
	TRRDL int // ACT to ACT, same bank group
	TFAW  int // four-activate window per rank
	TRTR  int // rank-to-rank (and SAM I/O mode) switch
	TWTR  int // write-to-read turnaround (same rank)
	TRTW  int // read-to-write turnaround gap on the bus
	TREFI int // refresh interval per rank
	TRFC  int // refresh cycle time
	// TWRBurst is the minimum gap between write bursts to the same rank —
	// zero for DRAM, large for crossbar NVM whose write pulses occupy the
	// array far longer than the data burst.
	TWRBurst int
}

// Validate checks that mandatory parameters are positive.
func (t Timing) Validate() error {
	for _, p := range []struct {
		name string
		v    int
	}{
		{"CL", t.CL}, {"CWL", t.CWL}, {"tRCD", t.TRCD}, {"tRP", t.TRP},
		{"tRAS", t.TRAS}, {"tWR", t.TWR}, {"tBL", t.TBL},
		{"tCCD_S", t.TCCDS}, {"tCCD_L", t.TCCDL},
	} {
		if p.v <= 0 {
			return fmt.Errorf("dram: timing %s must be positive, got %d", p.name, p.v)
		}
	}
	return nil
}

// Scale returns a copy with array-latency parameters inflated by factor
// (the paper inflates tRCD, tRAS, etc. proportionally to area overhead,
// Section 6.1). Bus-side parameters (CL serialization, tBL, tRTR) and
// refresh cadence stay fixed.
func (t Timing) Scale(factor float64) Timing {
	s := t
	mul := func(v int) int {
		scaled := int(float64(v)*factor + 0.5)
		if scaled < 1 {
			scaled = 1
		}
		return scaled
	}
	s.TRCD = mul(t.TRCD)
	s.TRP = mul(t.TRP)
	s.TRAS = mul(t.TRAS)
	s.TWR = mul(t.TWR)
	s.TRTP = mul(t.TRTP)
	s.TRRDS = mul(t.TRRDS)
	s.TRRDL = mul(t.TRRDL)
	s.TFAW = mul(t.TFAW)
	return s
}

// Config couples geometry and timing for one memory device personality.
type Config struct {
	Name     string
	Geometry Geometry
	Timing   Timing
	// ClockMHz is the bus clock (DDR4-2400: 1200).
	ClockMHz float64
}

// Validate checks the whole configuration.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if c.ClockMHz <= 0 {
		return fmt.Errorf("dram: clock must be positive, got %v", c.ClockMHz)
	}
	return nil
}

// CyclesToNs converts bus cycles to nanoseconds.
func (c Config) CyclesToNs(cycles uint64) float64 {
	return float64(cycles) * 1e3 / c.ClockMHz
}

// DDR4_2400 returns the paper's DRAM configuration (Table 2):
// DDR4-2400 x4, 1 channel, 2 ranks, 16 banks/rank, 256 subarrays of 512
// rows, CL-tRCD-tRP = 17-17-17, tRTR-tCCD_S-tCCD_L = 2-4-6. Parameters not
// in Table 2 use Micron 8Gb DDR4-2400 datasheet values.
func DDR4_2400() Config {
	return Config{
		Name:     "DDR4-2400",
		ClockMHz: 1200,
		Geometry: Geometry{
			Channels:         1,
			Ranks:            2,
			BankGroups:       4,
			BanksPerGroup:    4,
			SubarraysPerBank: 256,
			RowsPerSubarray:  512,
			RowBytes:         8192, // 4Kb local row buffer per x4 chip x 16 chips
			LineBytes:        64,
			DataChips:        16,
		},
		Timing: Timing{
			CL: 17, CWL: 12,
			TRCD: 17, TRP: 17, TRAS: 39, TWR: 18, TRTP: 9,
			TBL:   4,
			TCCDS: 4, TCCDL: 6,
			TRRDS: 4, TRRDL: 6, TFAW: 26,
			TRTR: 2, TWTR: 9, TRTW: 8,
			TREFI: 9360, TRFC: 420,
		},
	}
}

// RRAM returns the paper's NVM configuration (Table 2): same DDR4-2400
// interface, CL-tRCD-tRP = 17-35-1 (slow activation, trivial precharge
// since reads are non-destructive), 128 subarrays of 2K rows with 2Kb
// local row buffers, and expensive writes (tWR modeled after crossbar RRAM
// write pulses).
func RRAM() Config {
	c := DDR4_2400()
	c.Name = "RRAM"
	c.Geometry.SubarraysPerBank = 128
	c.Geometry.RowsPerSubarray = 2048
	c.Geometry.RowBytes = 4096 // 2Kb local row buffer per chip x 16 chips
	c.Timing.TRCD = 35
	c.Timing.TRP = 1
	c.Timing.TRAS = 36
	c.Timing.TWR = 120
	c.Timing.TWRBurst = 40
	// Non-volatile: no refresh (deadline pushed past any simulated run).
	c.Timing.TREFI = 1 << 40
	return c
}

// DDR5_4800 is an extension beyond the paper's evaluation: the same SAM
// mechanisms on a DDR5-class device — doubled bus clock, two independent
// 32-bit sub-channels modeled as doubled bank groups, BL16 bursts (still 4
// bus cycles of 64B payload per sub-channel), and finer refresh. The
// common-die argument carries over: DDR5 x4 parts still fuse off the wider
// I/O configurations.
func DDR5_4800() Config {
	return Config{
		Name:     "DDR5-4800",
		ClockMHz: 2400,
		Geometry: Geometry{
			Channels:         1,
			Ranks:            2,
			BankGroups:       8,
			BanksPerGroup:    4,
			SubarraysPerBank: 256,
			RowsPerSubarray:  512,
			RowBytes:         8192,
			LineBytes:        64,
			DataChips:        16,
		},
		Timing: Timing{
			CL: 40, CWL: 38,
			TRCD: 39, TRP: 39, TRAS: 77, TWR: 72, TRTP: 18,
			TBL:   4, // BL16 on a 32-bit sub-channel: same 64B per slot
			TCCDS: 8, TCCDL: 12,
			TRRDS: 8, TRRDL: 12, TFAW: 32,
			TRTR: 4, TWTR: 18, TRTW: 16,
			TREFI: 9360, TRFC: 660,
		},
	}
}

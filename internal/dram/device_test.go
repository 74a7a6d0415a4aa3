package dram

import (
	"fmt"
	"math/rand"
	"testing"
)

func testCfg() Config { return DDR4_2400() }

// Issue applies cmd at cycle at through the kind's entry point. It panics
// when the command is illegal (issued before EarliestIssue, or structurally
// invalid): a test that picks its own cycle must consult EarliestIssue
// first, and a violation is a simulator bug, not a runtime condition.
func (d *Device) Issue(cmd Command, at Cycle) IssueResult {
	if e := d.EarliestIssue(cmd, at); e > at {
		panic(fmt.Sprintf("dram: %v issued at %d, legal at %d", cmd, at, e))
	}
	// Legal at `at` means the earliest cycle >= at is at itself, so each
	// entry point issues at exactly that cycle.
	t := &d.cfg.Timing
	switch cmd.Kind {
	case CmdACT:
		d.Activate(d.BankIndex(cmd.Rank, cmd.Group, cmd.Bank), cmd.Row, cmd.GangRanks, at)
		return IssueResult{Done: at + Cycle(t.TRCD)}
	case CmdPRE:
		d.Precharge(d.BankIndex(cmd.Rank, cmd.Group, cmd.Bank), at)
		return IssueResult{Done: at + Cycle(t.TRP)}
	case CmdRD, CmdWR:
		var res IssueResult
		_, res.DataStart, res.DataEnd, res.ModeSwitched, res.Fault = d.Column(
			d.BankIndex(cmd.Rank, cmd.Group, cmd.Bank), cmd.Row, cmd.Col, cmd.Kind == CmdWR, cmd.Mode, cmd.GangRanks, at)
		res.Done = res.DataEnd
		return res
	default: // CmdREF; EarliestIssue rejected every other kind
		d.Refresh(cmd.Rank, at)
		return IssueResult{Done: d.ranks[cmd.Rank].refUntil}
	}
}

// BankOpenRow returns (row, true) if the addressed bank has an open row.
func (d *Device) BankOpenRow(rank, group, bank int) (int, bool) {
	return d.OpenRowAt(d.BankIndex(rank, group, bank))
}

func TestConfigValidate(t *testing.T) {
	for _, cfg := range []Config{DDR4_2400(), RRAM()} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", cfg.Name, err)
		}
	}
	bad := DDR4_2400()
	bad.Geometry.LineBytes = 0
	if bad.Validate() == nil {
		t.Fatal("zero line size accepted")
	}
	bad = DDR4_2400()
	bad.Timing.CL = 0
	if bad.Validate() == nil {
		t.Fatal("zero CL accepted")
	}
	bad = DDR4_2400()
	bad.ClockMHz = 0
	if bad.Validate() == nil {
		t.Fatal("zero clock accepted")
	}
}

func TestTimingScale(t *testing.T) {
	base := DDR4_2400().Timing
	s := base.Scale(1.072) // SAM-sub's 7.2% area overhead
	if s.TRCD <= base.TRCD || s.TRAS <= base.TRAS {
		t.Fatalf("scale did not inflate array timings: %+v", s)
	}
	if s.CL != base.CL || s.TBL != base.TBL || s.TRTR != base.TRTR {
		t.Fatal("scale must not touch bus-side parameters")
	}
	if same := base.Scale(1.0); same != base {
		t.Fatalf("identity scale changed timing: %+v vs %+v", same, base)
	}
}

func TestGeometryDerived(t *testing.T) {
	g := DDR4_2400().Geometry
	if g.Banks() != 16 {
		t.Fatalf("banks/rank = %d, want 16", g.Banks())
	}
	if g.TotalBanks() != 32 {
		t.Fatalf("banks/channel = %d, want 32", g.TotalBanks())
	}
	if g.LinesPerRow() != 128 {
		t.Fatalf("lines/row = %d, want 128", g.LinesPerRow())
	}
	if g.RowsPerBank() != 256*512 {
		t.Fatalf("rows/bank = %d", g.RowsPerBank())
	}
}

func TestActToReadRespectsTRCD(t *testing.T) {
	d := NewDevice(testCfg())
	act := Command{Kind: CmdACT, Row: 5}
	rd := Command{Kind: CmdRD, Row: 5, Col: 0, Mode: ModeX4}
	at := d.EarliestIssue(act, 100)
	if at != 100 {
		t.Fatalf("first ACT delayed to %d", at)
	}
	d.Issue(act, at)
	e := d.EarliestIssue(rd, at)
	if want := at + Cycle(testCfg().Timing.TRCD); e != want {
		t.Fatalf("RD legal at %d, want %d", e, want)
	}
}

func TestReadDataTiming(t *testing.T) {
	cfg := testCfg()
	d := NewDevice(cfg)
	d.Issue(Command{Kind: CmdACT, Row: 1}, 0)
	rd := Command{Kind: CmdRD, Row: 1, Mode: ModeX4}
	at := d.EarliestIssue(rd, 0)
	res := d.Issue(rd, at)
	if res.DataStart != at+Cycle(cfg.Timing.CL) {
		t.Fatalf("data start %d, want issue+CL", res.DataStart)
	}
	if res.DataEnd-res.DataStart != Cycle(cfg.Timing.TBL) {
		t.Fatalf("burst occupies %d cycles, want tBL", res.DataEnd-res.DataStart)
	}
}

func TestSameGroupCCDL(t *testing.T) {
	cfg := testCfg()
	d := NewDevice(cfg)
	d.Issue(Command{Kind: CmdACT, Row: 1}, 0)
	rd := Command{Kind: CmdRD, Row: 1, Mode: ModeX4}
	a1 := d.EarliestIssue(rd, 0)
	d.Issue(rd, a1)
	rd.Col = 1
	a2 := d.EarliestIssue(rd, a1)
	if a2-a1 != Cycle(cfg.Timing.TCCDL) {
		t.Fatalf("same-group RD gap %d, want tCCD_L=%d", a2-a1, cfg.Timing.TCCDL)
	}
}

func TestCrossGroupCCDS(t *testing.T) {
	cfg := testCfg()
	d := NewDevice(cfg)
	d.Issue(Command{Kind: CmdACT, Group: 0, Row: 1}, 0)
	d.Issue(Command{Kind: CmdACT, Group: 1, Row: 1}, d.EarliestIssue(Command{Kind: CmdACT, Group: 1, Row: 1}, 0))
	rd0 := Command{Kind: CmdRD, Group: 0, Row: 1, Mode: ModeX4}
	a1 := d.EarliestIssue(rd0, 50)
	d.Issue(rd0, a1)
	rd1 := Command{Kind: CmdRD, Group: 1, Row: 1, Mode: ModeX4}
	a2 := d.EarliestIssue(rd1, a1)
	if a2-a1 != Cycle(cfg.Timing.TCCDS) {
		t.Fatalf("cross-group RD gap %d, want tCCD_S=%d", a2-a1, cfg.Timing.TCCDS)
	}
}

func TestPrechargeRespectsTRAS(t *testing.T) {
	cfg := testCfg()
	d := NewDevice(cfg)
	d.Issue(Command{Kind: CmdACT, Row: 9}, 10)
	pre := Command{Kind: CmdPRE}
	if e := d.EarliestIssue(pre, 10); e != 10+Cycle(cfg.Timing.TRAS) {
		t.Fatalf("PRE legal at %d, want ACT+tRAS=%d", e, 10+cfg.Timing.TRAS)
	}
}

func TestWriteRecoveryBeforePrecharge(t *testing.T) {
	cfg := testCfg()
	d := NewDevice(cfg)
	d.Issue(Command{Kind: CmdACT, Row: 2}, 0)
	wr := Command{Kind: CmdWR, Row: 2, Mode: ModeX4}
	at := d.EarliestIssue(wr, 0)
	res := d.Issue(wr, at)
	e := d.EarliestIssue(Command{Kind: CmdPRE}, at)
	if want := res.DataEnd + Cycle(cfg.Timing.TWR); e != want {
		t.Fatalf("PRE after WR legal at %d, want %d", e, want)
	}
}

func TestFourActivateWindow(t *testing.T) {
	cfg := testCfg()
	d := NewDevice(cfg)
	var issued []Cycle
	// Five ACTs to five different banks across groups (so tRRD_S, not
	// tRRD_L, is the pairwise limit).
	for i := 0; i < 5; i++ {
		cmd := Command{Kind: CmdACT, Group: i % 4, Bank: i / 4, Row: 1}
		at := d.EarliestIssue(cmd, 0)
		d.Issue(cmd, at)
		issued = append(issued, at)
	}
	if gap := issued[4] - issued[0]; gap < Cycle(cfg.Timing.TFAW) {
		t.Fatalf("5th ACT only %d after 1st, violates tFAW=%d", gap, cfg.Timing.TFAW)
	}
	if gap := issued[3] - issued[0]; gap >= Cycle(cfg.Timing.TFAW) {
		t.Fatalf("4th ACT waited for tFAW (%d) — should only bind the 5th", gap)
	}
}

func TestModeSwitchCostsTRTR(t *testing.T) {
	cfg := testCfg()
	d := NewDevice(cfg)
	d.Issue(Command{Kind: CmdACT, Row: 1}, 0)
	rd := Command{Kind: CmdRD, Row: 1, Mode: ModeX4}
	a1 := d.EarliestIssue(rd, 0)
	r1 := d.Issue(rd, a1)

	// Same mode: next burst back-to-back at tCCD_L (> tBL so CCD binds).
	a2 := d.EarliestIssue(rd, a1)
	d.Issue(rd, a2)
	r2end := a2 + Cycle(cfg.Timing.CL+cfg.Timing.TBL)

	// Different mode: data start must additionally clear busFree + tRTR.
	srd := Command{Kind: CmdRD, Row: 1, Mode: ModeStride2}
	a3 := d.EarliestIssue(srd, a2)
	res := d.Issue(srd, a3)
	if !res.ModeSwitched {
		t.Fatal("mode switch not reported")
	}
	if res.DataStart < r2end+Cycle(cfg.Timing.TRTR) {
		t.Fatalf("stride burst data at %d, want >= %d (prev end %d + tRTR)",
			res.DataStart, r2end+Cycle(cfg.Timing.TRTR), r2end)
	}
	if d.ranks[0].mode != ModeStride2 {
		t.Fatalf("rank mode = %v after switch", d.ranks[0].mode)
	}
	_ = r1
	// Switching back also costs tRTR and counts.
	if d.Stats.ModeSwitches != 1 {
		t.Fatalf("mode switches = %d, want 1", d.Stats.ModeSwitches)
	}
}

func TestRankSwitchCostsTRTR(t *testing.T) {
	cfg := testCfg()
	d := NewDevice(cfg)
	d.Issue(Command{Kind: CmdACT, Rank: 0, Row: 1}, 0)
	actR1 := Command{Kind: CmdACT, Rank: 1, Row: 1}
	d.Issue(actR1, d.EarliestIssue(actR1, 0))
	rd0 := Command{Kind: CmdRD, Rank: 0, Row: 1, Mode: ModeX4}
	a1 := d.EarliestIssue(rd0, 0)
	res1 := d.Issue(rd0, a1)
	rd1 := Command{Kind: CmdRD, Rank: 1, Row: 1, Mode: ModeX4}
	a2 := d.EarliestIssue(rd1, a1)
	res2 := d.Issue(rd1, a2)
	if res2.DataStart < res1.DataEnd+Cycle(cfg.Timing.TRTR) {
		t.Fatalf("rank-to-rank gap %d, want >= tRTR", res2.DataStart-res1.DataEnd)
	}
}

func TestStrideReadCountsWideFetch(t *testing.T) {
	d := NewDevice(testCfg())
	d.Issue(Command{Kind: CmdACT, Row: 1}, 0)
	srd := Command{Kind: CmdRD, Row: 1, Mode: ModeStride0}
	d.Issue(srd, d.EarliestIssue(srd, 0))
	if d.Stats.StrideReads != 1 || d.Stats.Reads != 0 {
		t.Fatalf("stride read miscounted: %+v", d.Stats)
	}
	if d.Stats.ColumnWordsFetched != 4 || d.Stats.ColumnWordsRequested != 1 {
		t.Fatalf("wide fetch accounting wrong: %+v", d.Stats)
	}
}

func TestRefreshBlocksAndRecurs(t *testing.T) {
	cfg := testCfg()
	d := NewDevice(cfg)
	due := d.RefreshDue(0)
	if due != Cycle(cfg.Timing.TREFI) {
		t.Fatalf("first refresh due at %d", due)
	}
	ref := Command{Kind: CmdREF, Rank: 0}
	at := d.EarliestIssue(ref, due)
	res := d.Issue(ref, at)
	if res.Done != at+Cycle(cfg.Timing.TRFC) {
		t.Fatalf("refresh busy until %d", res.Done)
	}
	if d.RefreshDue(0) != due+Cycle(cfg.Timing.TREFI) {
		t.Fatal("refresh deadline did not advance")
	}
	// ACT during tRFC must be pushed out.
	act := Command{Kind: CmdACT, Row: 1}
	if e := d.EarliestIssue(act, at+1); e < res.Done {
		t.Fatalf("ACT allowed during refresh at %d", e)
	}
}

func TestRefreshWithOpenBankForcesPrecharge(t *testing.T) {
	cfg := testCfg()
	d := NewDevice(cfg)
	d.Issue(Command{Kind: CmdACT, Row: 1}, 0)
	ref := Command{Kind: CmdREF, Rank: 0}
	e := d.EarliestIssue(ref, 5)
	if e < 0+Cycle(cfg.Timing.TRAS+cfg.Timing.TRP) {
		t.Fatalf("REF at %d ignores open bank (tRAS+tRP=%d)", e, cfg.Timing.TRAS+cfg.Timing.TRP)
	}
	d.Issue(ref, e)
	if _, open := d.BankOpenRow(0, 0, 0); open {
		t.Fatal("refresh left bank open")
	}
}

func TestIllegalIssuePanics(t *testing.T) {
	cases := map[string]func(d *Device){
		"early RD": func(d *Device) {
			d.Issue(Command{Kind: CmdACT, Row: 1}, 0)
			d.Issue(Command{Kind: CmdRD, Row: 1, Mode: ModeX4}, 1)
		},
		"RD closed bank": func(d *Device) { d.Issue(Command{Kind: CmdRD, Row: 1, Mode: ModeX4}, 100) },
		"RD wrong row": func(d *Device) {
			d.Issue(Command{Kind: CmdACT, Row: 1}, 0)
			d.Issue(Command{Kind: CmdRD, Row: 2, Mode: ModeX4}, 100)
		},
		"ACT open bank": func(d *Device) {
			d.Issue(Command{Kind: CmdACT, Row: 1}, 0)
			d.Issue(Command{Kind: CmdACT, Row: 2}, 200)
		},
		"PRE closed bank": func(d *Device) { d.Issue(Command{Kind: CmdPRE}, 100) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn(NewDevice(testCfg()))
		}()
	}
}

func TestWriteToReadTurnaround(t *testing.T) {
	cfg := testCfg()
	d := NewDevice(cfg)
	d.Issue(Command{Kind: CmdACT, Row: 1}, 0)
	wr := Command{Kind: CmdWR, Row: 1, Mode: ModeX4}
	at := d.EarliestIssue(wr, 0)
	res := d.Issue(wr, at)
	rd := Command{Kind: CmdRD, Row: 1, Mode: ModeX4}
	e := d.EarliestIssue(rd, at)
	if e < res.DataEnd+Cycle(cfg.Timing.TWTR) {
		t.Fatalf("RD after WR at %d, want >= write-end+tWTR=%d", e, res.DataEnd+Cycle(cfg.Timing.TWTR))
	}
}

// TestRandomScheduleAuditClean cross-validates Device's constraint engine
// against the independent Auditor: a greedy scheduler that always issues at
// EarliestIssue must produce a protocol-clean command stream.
func TestRandomScheduleAuditClean(t *testing.T) {
	cfg := testCfg()
	d := NewDevice(cfg)
	a := NewAuditor(cfg)
	rng := rand.New(rand.NewSource(99))
	type bankKey struct{ rank, group, bank int }
	open := map[bankKey]int{}
	now := Cycle(0)
	for i := 0; i < 3000; i++ {
		k := bankKey{rng.Intn(2), rng.Intn(4), rng.Intn(4)}
		row := rng.Intn(64)
		mode := ModeX4
		if rng.Intn(4) == 0 {
			mode = ModeStride0 + IOMode(rng.Intn(4))
		}
		if cur, ok := open[k]; ok && cur != row {
			pre := Command{Kind: CmdPRE, Rank: k.rank, Group: k.group, Bank: k.bank}
			at := d.EarliestIssue(pre, now)
			d.Issue(pre, at)
			a.Record(pre, at)
			delete(open, k)
			now = at
		}
		if _, ok := open[k]; !ok {
			act := Command{Kind: CmdACT, Rank: k.rank, Group: k.group, Bank: k.bank, Row: row}
			at := d.EarliestIssue(act, now)
			d.Issue(act, at)
			a.Record(act, at)
			open[k] = row
			now = at
		}
		kind := CmdRD
		if rng.Intn(3) == 0 {
			kind = CmdWR
		}
		col := Command{Kind: kind, Rank: k.rank, Group: k.group, Bank: k.bank, Row: open[k], Col: rng.Intn(32), Mode: mode}
		at := d.EarliestIssue(col, now)
		d.Issue(col, at)
		a.Record(col, at)
		now = at
		// Occasionally refresh.
		if i%500 == 250 {
			ref := Command{Kind: CmdREF, Rank: rng.Intn(2)}
			at := d.EarliestIssue(ref, now)
			d.Issue(ref, at)
			a.Record(ref, at)
			for key := range open {
				if key.rank == ref.Rank {
					delete(open, key)
				}
			}
			now = at
		}
	}
	if !a.Ok() {
		t.Fatalf("auditor found %d violations; first: %s", len(a.Violations), a.Violations[0])
	}
}

func TestAuditorCatchesViolations(t *testing.T) {
	cfg := testCfg()
	a := NewAuditor(cfg)
	a.Record(Command{Kind: CmdACT, Row: 1}, 0)
	a.Record(Command{Kind: CmdRD, Row: 1, Mode: ModeX4}, 2) // violates tRCD=17
	if a.Ok() {
		t.Fatal("auditor missed a tRCD violation")
	}
	a2 := NewAuditor(cfg)
	a2.Record(Command{Kind: CmdACT, Row: 1}, 0)
	a2.Record(Command{Kind: CmdPRE}, 5) // violates tRAS
	if a2.Ok() {
		t.Fatal("auditor missed a tRAS violation")
	}
	a3 := NewAuditor(cfg)
	a3.Record(Command{Kind: CmdACT, Group: 0, Row: 1}, 0)
	a3.Record(Command{Kind: CmdACT, Group: 1, Bank: 1, Row: 1}, 1) // violates tRRD_S
	if a3.Ok() {
		t.Fatal("auditor missed a tRRD violation")
	}
}

func TestCommandStrings(t *testing.T) {
	cmds := []Command{
		{Kind: CmdACT, Rank: 1, Group: 2, Bank: 3, Row: 7},
		{Kind: CmdPRE},
		{Kind: CmdRD, Mode: ModeStride1},
		{Kind: CmdWR, Mode: ModeX4},
		{Kind: CmdREF},
	}
	for _, c := range cmds {
		if c.String() == "" {
			t.Errorf("empty string for %v", c.Kind)
		}
	}
	if ModeStride3.String() != "Sx4_3" || ModeX4.String() != "x4" {
		t.Fatal("IOMode strings")
	}
	if !ModeStride0.IsStride() || ModeX4.IsStride() {
		t.Fatal("IsStride classification")
	}
}

// TestBankIDFlattening checks that Device.BankIndex, the flat bank index
// the controller and device share, is a bijection onto [0, NumBanks).
func TestBankIDFlattening(t *testing.T) {
	d := NewDevice(testCfg())
	g := testCfg().Geometry
	seen := map[int]bool{}
	for r := 0; r < g.Ranks; r++ {
		for grp := 0; grp < g.BankGroups; grp++ {
			for b := 0; b < g.BanksPerGroup; b++ {
				id := d.BankIndex(r, grp, b)
				if id < 0 || id >= d.NumBanks() {
					t.Fatalf("bank index %d outside [0, %d)", id, d.NumBanks())
				}
				if seen[id] {
					t.Fatalf("duplicate bank id %d", id)
				}
				seen[id] = true
			}
		}
	}
	if len(seen) != g.TotalBanks() {
		t.Fatalf("%d distinct ids, want %d", len(seen), g.TotalBanks())
	}
}

func TestDDR5ConfigValid(t *testing.T) {
	cfg := DDR5_4800()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.ClockMHz != 2*DDR4_2400().ClockMHz {
		t.Fatal("DDR5-4800 should double the DDR4-2400 bus clock")
	}
	if cfg.Geometry.BankGroups <= DDR4_2400().Geometry.BankGroups {
		t.Fatal("DDR5 should expose more bank groups")
	}
	// The device model must run it: a basic ACT/RD sequence.
	d := NewDevice(cfg)
	d.Issue(Command{Kind: CmdACT, Row: 1}, 0)
	rd := Command{Kind: CmdRD, Row: 1, Mode: ModeX4}
	at := d.EarliestIssue(rd, 0)
	if res := d.Issue(rd, at); res.DataStart != at+Cycle(cfg.Timing.CL) {
		t.Fatal("DDR5 read timing broken")
	}
}

func TestGangedModeSwitchCoversBothRanks(t *testing.T) {
	cfg := testCfg()
	d := NewDevice(cfg)
	d.Issue(Command{Kind: CmdACT, Rank: 0, Row: 1, GangRanks: true}, 0)
	srd := Command{Kind: CmdRD, Rank: 0, Row: 1, Mode: ModeStride1, GangRanks: true}
	at := d.EarliestIssue(srd, 0)
	res := d.Issue(srd, at)
	if !res.ModeSwitched {
		t.Fatal("gang switch not reported")
	}
	for r := 0; r < cfg.Geometry.Ranks; r++ {
		if d.ranks[r].mode != ModeStride1 {
			t.Fatalf("rank %d mode %v after ganged switch", r, d.ranks[r].mode)
		}
	}
	if d.Stats.GangedBursts != 1 {
		t.Fatalf("ganged bursts = %d", d.Stats.GangedBursts)
	}
	// Ganged ACT accounts for the mirror rank's activation energy.
	if d.Stats.Acts != 2 {
		t.Fatalf("ganged ACT counted %d activations, want 2", d.Stats.Acts)
	}
}

func TestBackToBackGangedBurstsNoSwitchPenalty(t *testing.T) {
	cfg := testCfg()
	d := NewDevice(cfg)
	d.Issue(Command{Kind: CmdACT, Row: 1, GangRanks: true}, 0)
	srd := Command{Kind: CmdRD, Row: 1, Mode: ModeStride0, GangRanks: true}
	a1 := d.EarliestIssue(srd, 0)
	d.Issue(srd, a1)
	srd.Col = 1
	a2 := d.EarliestIssue(srd, a1)
	d.Issue(srd, a2)
	if gap := a2 - a1; gap != Cycle(cfg.Timing.TCCDL) {
		t.Fatalf("ganged back-to-back gap %d, want tCCD_L (no extra tRTR)", gap)
	}
}

func TestRRAMWritePulseSpacing(t *testing.T) {
	cfg := RRAM()
	d := NewDevice(cfg)
	d.Issue(Command{Kind: CmdACT, Row: 1}, 0)
	wr := Command{Kind: CmdWR, Row: 1, Mode: ModeX4}
	a1 := d.EarliestIssue(wr, 0)
	d.Issue(wr, a1)
	wr.Col = 1
	a2 := d.EarliestIssue(wr, a1)
	if a2-a1 < Cycle(cfg.Timing.TWRBurst) {
		t.Fatalf("RRAM write gap %d, want >= write pulse %d", a2-a1, cfg.Timing.TWRBurst)
	}
	// Reads are unaffected by the pulse spacing between themselves.
	rdDev := NewDevice(cfg)
	rdDev.Issue(Command{Kind: CmdACT, Row: 1}, 0)
	rd := Command{Kind: CmdRD, Row: 1, Mode: ModeX4}
	r1 := rdDev.EarliestIssue(rd, 0)
	rdDev.Issue(rd, r1)
	rd.Col = 1
	r2 := rdDev.EarliestIssue(rd, r1)
	if r2-r1 != Cycle(cfg.Timing.TCCDL) {
		t.Fatalf("RRAM read gap %d, want tCCD_L", r2-r1)
	}
}

// TestRandomScheduleAuditCleanAllConfigs extends the scheduler/auditor
// cross-validation to every device personality.
func TestRandomScheduleAuditCleanAllConfigs(t *testing.T) {
	for _, cfg := range []Config{RRAM(), DDR5_4800()} {
		d := NewDevice(cfg)
		a := NewAuditor(cfg)
		rng := rand.New(rand.NewSource(7777))
		type bankKey struct{ rank, group, bank int }
		open := map[bankKey]int{}
		now := Cycle(0)
		for i := 0; i < 1500; i++ {
			k := bankKey{rng.Intn(cfg.Geometry.Ranks), rng.Intn(cfg.Geometry.BankGroups), rng.Intn(cfg.Geometry.BanksPerGroup)}
			row := rng.Intn(64)
			if cur, ok := open[k]; ok && cur != row {
				pre := Command{Kind: CmdPRE, Rank: k.rank, Group: k.group, Bank: k.bank}
				at := d.EarliestIssue(pre, now)
				d.Issue(pre, at)
				a.Record(pre, at)
				delete(open, k)
				now = at
			}
			if _, ok := open[k]; !ok {
				act := Command{Kind: CmdACT, Rank: k.rank, Group: k.group, Bank: k.bank, Row: row}
				at := d.EarliestIssue(act, now)
				d.Issue(act, at)
				a.Record(act, at)
				open[k] = row
				now = at
			}
			kind := CmdRD
			if rng.Intn(3) == 0 {
				kind = CmdWR
			}
			col := Command{Kind: kind, Rank: k.rank, Group: k.group, Bank: k.bank, Row: open[k], Col: rng.Intn(8), Mode: ModeX4}
			at := d.EarliestIssue(col, now)
			d.Issue(col, at)
			a.Record(col, at)
			now = at
		}
		if !a.Ok() {
			t.Fatalf("%s: %s", cfg.Name, a.Violations[0])
		}
	}
}

func TestAuditorDetectsDataBusCollision(t *testing.T) {
	cfg := testCfg()
	a := NewAuditor(cfg)
	// Two reads to different bank groups issued 1 cycle apart: their data
	// bursts (CL later, tBL wide) overlap on the shared bus.
	a.Record(Command{Kind: CmdACT, Group: 0, Row: 1}, 0)
	a.Record(Command{Kind: CmdACT, Group: 1, Row: 1}, 6)
	a.Record(Command{Kind: CmdRD, Group: 0, Row: 1, Mode: ModeX4}, 30)
	a.Record(Command{Kind: CmdRD, Group: 1, Row: 1, Mode: ModeX4}, 31)
	if a.Ok() {
		t.Fatal("auditor missed a data bus collision (and a tCCD_S violation)")
	}
}

func TestMaxNEdges(t *testing.T) {
	// maxN must tolerate an empty argument list (it used to panic) and
	// must seed from the first element, since Cycle values go as low as
	// the `never` sentinel (negative).
	if got := maxN(); got != 0 {
		t.Fatalf("maxN() = %d, want 0", got)
	}
	if got := maxN(never); got != never {
		t.Fatalf("maxN(never) = %d, want never", got)
	}
	if got := maxN(never, -3, -7); got != -3 {
		t.Fatalf("maxN of negatives = %d, want -3", got)
	}
	if got := maxN(5, never, 12, 3); got != 12 {
		t.Fatalf("maxN mixed = %d, want 12", got)
	}
}

func TestOpenRowAtMatchesBankOpenRow(t *testing.T) {
	// The flat-index lookup the controller's scheduling index uses must
	// agree with the coordinate form for every bank, closed and open.
	cfg := DDR4_2400()
	d := NewDevice(cfg)
	g := cfg.Geometry
	if want := g.Ranks * g.Banks(); d.NumBanks() != want {
		t.Fatalf("NumBanks = %d, want %d", d.NumBanks(), want)
	}
	// Open a scattering of rows.
	for rk := 0; rk < g.Ranks; rk++ {
		for gr := 0; gr < g.BankGroups; gr++ {
			for bk := 0; bk < g.BanksPerGroup; bk++ {
				if (rk+gr+bk)%2 == 0 {
					continue
				}
				cmd := Command{Kind: CmdACT, Rank: rk, Group: gr, Bank: bk, Row: 7*rk + 3*gr + bk}
				d.Issue(cmd, d.EarliestIssue(cmd, 0))
			}
		}
	}
	for rk := 0; rk < g.Ranks; rk++ {
		for gr := 0; gr < g.BankGroups; gr++ {
			for bk := 0; bk < g.BanksPerGroup; bk++ {
				wantRow, wantOpen := d.BankOpenRow(rk, gr, bk)
				row, open := d.OpenRowAt(d.BankIndex(rk, gr, bk))
				if row != wantRow || open != wantOpen {
					t.Fatalf("OpenRowAt(%d,%d,%d) = (%d,%v), want (%d,%v)",
						rk, gr, bk, row, open, wantRow, wantOpen)
				}
			}
		}
	}
}

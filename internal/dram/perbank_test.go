package dram

import "testing"

// issueAt sequences a command legally and returns the device's result.
func issueAt(d *Device, cmd Command, after Cycle) (IssueResult, Cycle) {
	at := d.EarliestIssue(cmd, after)
	return d.Issue(cmd, at), at
}

func TestPerBankAccounting(t *testing.T) {
	d := NewDevice(testCfg())
	g := testCfg().Geometry
	if want := g.Ranks * g.Banks(); len(d.Stats.PerBank) != want {
		t.Fatalf("PerBank sized %d, want %d", len(d.Stats.PerBank), want)
	}

	var now Cycle
	// Bank (0,0,0): one ACT, then three column reads on the open row — the
	// first is the demand miss the ACT served, the next two are row hits.
	_, now = issueAt(d, Command{Kind: CmdACT, Row: 3}, now)
	for _, col := range []int{0, 1, 1} {
		_, now = issueAt(d, Command{Kind: CmdRD, Row: 3, Col: col, Mode: ModeX4}, now)
	}
	b0 := d.Stats.PerBank[d.BankIndex(0, 0, 0)]
	if b0.Acts != 1 || b0.Reads != 3 || b0.RowMisses != 1 || b0.RowHits != 2 {
		t.Fatalf("bank (0,0,0): %+v", b0)
	}

	// Bank (0,1,0): ACT, one write, then PRE — Pres counts the close.
	_, now = issueAt(d, Command{Kind: CmdACT, Group: 1, Row: 7}, now)
	_, now = issueAt(d, Command{Kind: CmdWR, Group: 1, Row: 7, Mode: ModeX4}, now)
	_, now = issueAt(d, Command{Kind: CmdPRE, Group: 1}, now)
	b1 := d.Stats.PerBank[d.BankIndex(0, 1, 0)]
	if b1.Acts != 1 || b1.Writes != 1 || b1.RowMisses != 1 || b1.Pres != 1 {
		t.Fatalf("bank (0,1,0): %+v", b1)
	}

	// Explicit precharge on the first bank.
	_, now = issueAt(d, Command{Kind: CmdPRE}, now)
	if got := d.Stats.PerBank[d.BankIndex(0, 0, 0)].Pres; got != 1 {
		t.Fatalf("bank (0,0,0) Pres = %d after explicit PRE", got)
	}

	// Per-bank activates must sum to the device-wide count.
	var acts uint64
	for _, b := range d.Stats.PerBank {
		acts += b.Acts
	}
	if acts != d.Stats.Acts {
		t.Fatalf("per-bank Acts sum %d != device Acts %d", acts, d.Stats.Acts)
	}
	if pb := d.Stats.PerBankActs(); len(pb) != len(d.Stats.PerBank) || pb[d.BankIndex(0, 1, 0)] != 1 {
		t.Fatalf("PerBankActs: %v", pb)
	}
}

func TestPerBankGangedActivate(t *testing.T) {
	// A ganged ACT opens the same (group,bank) row in every rank: each
	// rank's bank entry must count its own activation.
	d := NewDevice(testCfg())
	g := testCfg().Geometry
	if g.Ranks < 2 {
		t.Skip("config has a single rank")
	}
	issueAt(d, Command{Kind: CmdACT, Row: 5, GangRanks: true}, 0)
	for r := 0; r < g.Ranks; r++ {
		if got := d.Stats.PerBank[d.BankIndex(r, 0, 0)].Acts; got != 1 {
			t.Fatalf("rank %d bank (0,0) Acts = %d after ganged ACT", r, got)
		}
	}
	var acts uint64
	for _, b := range d.Stats.PerBank {
		acts += b.Acts
	}
	if acts != d.Stats.Acts {
		t.Fatalf("per-bank Acts sum %d != device Acts %d", acts, d.Stats.Acts)
	}
}

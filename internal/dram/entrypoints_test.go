package dram

import (
	"math/rand"
	"reflect"
	"testing"
)

// issued is one command as a hook saw it.
type issued struct {
	cmd Command
	at  Cycle
	res IssueResult
}

// hookLog is a Trace and a Probe at once: it records every command and
// burst, and rules a deterministic but varied verdict on each burst.
type hookLog struct {
	cmds   []issued
	bursts []issued
}

func (h *hookLog) CommandIssued(cmd Command, at Cycle, res IssueResult) {
	h.cmds = append(h.cmds, issued{cmd, at, res})
}

func (h *hookLog) DataBurst(cmd Command, at Cycle) BurstVerdict {
	h.bursts = append(h.bursts, issued{cmd: cmd, at: at})
	return BurstVerdict((uint64(at)*31 + uint64(cmd.Col)) % 3)
}

// TestEntryPointsMatchTwoStep drives random legal command streams on twin
// devices, one through the per-kind entry points (Activate, Precharge,
// Column, Refresh) and one through EarliestIssue followed by Issue. The
// streams mix plain, strided and ganged columns, reads and writes, and
// refreshes, on DDR4, DDR5 and RRAM timings, with and without a hook
// attached. Every issue cycle, data window, mode switch and verdict, every
// command and burst a hook sees, and the final DeviceStats, per bank
// included, must be equal.
func TestEntryPointsMatchTwoStep(t *testing.T) {
	for _, cfg := range []Config{DDR4_2400(), DDR5_4800(), RRAM()} {
		for _, hooked := range []bool{false, true} {
			a, b := NewDevice(cfg), NewDevice(cfg)
			var ha, hb hookLog
			if hooked {
				a.Trace, a.Probe = &ha, &ha
				b.Trace, b.Probe = &hb, &hb
			}
			driveTwins(t, cfg, a, b, rand.New(rand.NewSource(int64(len(cfg.Name))*7+1)))
			if !reflect.DeepEqual(a.Stats, b.Stats) {
				t.Fatalf("%s hooked=%v: stats diverged:\n entry points: %+v\n two-step:     %+v", cfg.Name, hooked, a.Stats, b.Stats)
			}
			if !reflect.DeepEqual(ha, hb) {
				t.Fatalf("%s hooked=%v: hooks saw different streams (%d/%d commands, %d/%d bursts)",
					cfg.Name, hooked, len(ha.cmds), len(hb.cmds), len(ha.bursts), len(hb.bursts))
			}
			if hooked && (len(ha.bursts) == 0 || len(ha.cmds) <= len(ha.bursts)) {
				t.Fatalf("%s: hooks saw %d commands and %d bursts", cfg.Name, len(ha.cmds), len(ha.bursts))
			}
			if a.Stats.GangedBursts == 0 || a.Stats.StrideReads == 0 || a.Stats.StrideWrites == 0 || a.Stats.Refs == 0 || a.Stats.ModeSwitches == 0 {
				t.Fatalf("%s: stream missed a command class: %+v", cfg.Name, a.Stats)
			}
		}
	}
}

// driveTwins issues one random legal stream on a (entry points) and b
// (EarliestIssue+Issue), comparing every result.
func driveTwins(t *testing.T, cfg Config, a, b *Device, rng *rand.Rand) {
	t.Helper()
	g := cfg.Geometry
	open := make(map[int]int) // flat bank -> open row
	now := Cycle(0)
	twoStep := func(cmd Command) (Cycle, IssueResult) {
		at := b.EarliestIssue(cmd, now)
		return at, b.Issue(cmd, at)
	}
	check := func(cmd Command, got, want Cycle) {
		t.Helper()
		if got != want {
			t.Fatalf("%s: %v issued at %d by its entry point, %d two-step", cfg.Name, cmd, got, want)
		}
		now = got
	}
	for i := 0; i < 3000; i++ {
		rank, group, bank := rng.Intn(g.Ranks), rng.Intn(g.BankGroups), rng.Intn(g.BanksPerGroup)
		idx := a.BankIndex(rank, group, bank)
		row := rng.Intn(8)
		gang := rng.Intn(6) == 0
		if cur, ok := open[idx]; ok && cur != row {
			cmd := Command{Kind: CmdPRE, Rank: rank, Group: group, Bank: bank}
			at := a.Precharge(idx, now)
			want, _ := twoStep(cmd)
			check(cmd, at, want)
			delete(open, idx)
		}
		if _, ok := open[idx]; !ok {
			cmd := Command{Kind: CmdACT, Rank: rank, Group: group, Bank: bank, Row: row, GangRanks: gang}
			at := a.Activate(idx, row, gang, now)
			want, _ := twoStep(cmd)
			check(cmd, at, want)
			open[idx] = row
		}
		mode := ModeX4
		if rng.Intn(3) == 0 {
			mode = ModeStride0 + IOMode(rng.Intn(4))
		}
		cmd := Command{
			Kind: CmdRD, Rank: rank, Group: group, Bank: bank, Row: open[idx],
			Col: rng.Intn(g.LinesPerRow()), Mode: mode, GangRanks: gang && mode.IsStride(),
		}
		if rng.Intn(3) == 0 {
			cmd.Kind = CmdWR
		}
		at, start, end, switched, verdict := a.Column(idx, cmd.Row, cmd.Col, cmd.Kind == CmdWR, cmd.Mode, cmd.GangRanks, now)
		wantAt, want := twoStep(cmd)
		got := IssueResult{DataStart: start, DataEnd: end, Done: end, ModeSwitched: switched, Fault: verdict}
		if got != want {
			t.Fatalf("%s: %v: entry point gave %+v, two-step %+v", cfg.Name, cmd, got, want)
		}
		check(cmd, at, wantAt)
		if i%400 == 200 {
			r := rng.Intn(g.Ranks)
			cmd := Command{Kind: CmdREF, Rank: r}
			at := a.Refresh(r, now)
			want, _ := twoStep(cmd)
			check(cmd, at, want)
			for k := range open {
				if k/g.Banks() == r {
					delete(open, k)
				}
			}
		}
	}
}

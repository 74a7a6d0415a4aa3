package dram

import (
	"fmt"
	"sort"
)

// Auditor is an independent protocol checker: it replays the command stream
// a controller issued and verifies every JEDEC window pairwise, without
// sharing any state with Device's "earliest time" bookkeeping. Tests (and
// the simulator's debug mode) run it to catch scheduler bugs — invariant 6
// in DESIGN.md.
type Auditor struct {
	cfg     Config
	history []timedCommand
	checked int // history length already validated
	// Violations collects human-readable protocol violations (populated by
	// Ok / Validate).
	Violations []string
}

type timedCommand struct {
	cmd Command
	at  Cycle
}

// NewAuditor builds an auditor for the configuration.
func NewAuditor(cfg Config) *Auditor {
	return &Auditor{cfg: cfg}
}

// Record logs one issued command. Commands may be recorded in any order;
// validation sorts by issue time.
func (a *Auditor) Record(cmd Command, at Cycle) {
	a.history = append(a.history, timedCommand{cmd, at})
}

// TimedCommand is one recorded command with its issue time.
type TimedCommand struct {
	Cmd Command
	At  Cycle
}

// History returns a copy of the recorded command stream in record order —
// scheduler-equivalence tests compare two controllers' streams with it.
func (a *Auditor) History() []TimedCommand {
	out := make([]TimedCommand, len(a.history))
	for i, tc := range a.history {
		out[i] = TimedCommand{Cmd: tc.cmd, At: tc.at}
	}
	return out
}

// Validate checks every recorded command pairwise in time order.
func (a *Auditor) Validate() {
	if a.checked == len(a.history) {
		return
	}
	sort.SliceStable(a.history, func(i, j int) bool { return a.history[i].at < a.history[j].at })
	saved := a.history
	a.history = a.history[:0]
	for _, h := range saved {
		a.check(h.cmd, h.at)
		a.history = a.history[:len(a.history)+1]
	}
	a.checked = len(a.history)
}

func (a *Auditor) fail(cmd Command, at Cycle, format string, args ...interface{}) {
	a.Violations = append(a.Violations,
		fmt.Sprintf("t=%d %v: %s", at, cmd, fmt.Sprintf(format, args...)))
}

// sameBank reports whether two commands address the same bank.
func sameBank(x, y Command) bool {
	return x.Rank == y.Rank && x.Group == y.Group && x.Bank == y.Bank
}

// check validates cmd at time at against the recorded history.
func (a *Auditor) check(cmd Command, at Cycle) {
	t := a.cfg.Timing
	require := func(ok bool, format string, args ...interface{}) {
		if !ok {
			a.fail(cmd, at, format, args...)
		}
	}
	// Scan history newest-first; windows are short, so stop once we are
	// past the longest one (tREFI dominates, but per-pair checks use their
	// own windows — we conservatively scan the last tRFC+tFAW span).
	horizon := at - Cycle(t.TRFC+t.TFAW+t.TRAS+t.TRP+t.TWR+t.CL+t.TBL+64)
	var actsInRank []Cycle
	for i := len(a.history) - 1; i >= 0; i-- {
		h := a.history[i]
		if h.at < horizon {
			break
		}
		gap := at - h.at
		switch {
		case cmd.Kind == CmdACT && h.cmd.Kind == CmdACT && h.cmd.Rank == cmd.Rank:
			if h.cmd.Group == cmd.Group {
				require(gap >= Cycle(t.TRRDL), "tRRD_L violated (gap %d)", gap)
			} else {
				require(gap >= Cycle(t.TRRDS), "tRRD_S violated (gap %d)", gap)
			}
			actsInRank = append(actsInRank, h.at)
		case cmd.Kind == CmdACT && h.cmd.Kind == CmdPRE && sameBank(cmd, h.cmd):
			require(gap >= Cycle(t.TRP), "tRP violated (gap %d)", gap)
		case cmd.Kind == CmdACT && h.cmd.Kind == CmdREF && h.cmd.Rank == cmd.Rank:
			require(gap >= Cycle(t.TRFC), "tRFC violated (gap %d)", gap)
		case cmd.Kind == CmdPRE && h.cmd.Kind == CmdACT && sameBank(cmd, h.cmd):
			require(gap >= Cycle(t.TRAS), "tRAS violated (gap %d)", gap)
			return // older same-bank history is behind this ACT
		case cmd.Kind == CmdPRE && h.cmd.Kind == CmdRD && sameBank(cmd, h.cmd):
			require(gap >= Cycle(t.TRTP), "tRTP violated (gap %d)", gap)
		case cmd.Kind == CmdPRE && h.cmd.Kind == CmdWR && sameBank(cmd, h.cmd):
			wrEnd := h.at + Cycle(t.CWL+t.TBL)
			require(at >= wrEnd+Cycle(t.TWR), "tWR violated (PRE at %d, write data ends %d)", at, wrEnd)
		case (cmd.Kind == CmdRD || cmd.Kind == CmdWR) && h.cmd.Kind == CmdACT && sameBank(cmd, h.cmd):
			require(gap >= Cycle(t.TRCD), "tRCD violated (gap %d)", gap)
		case (cmd.Kind == CmdRD || cmd.Kind == CmdWR) && (h.cmd.Kind == CmdRD || h.cmd.Kind == CmdWR) && h.cmd.Rank == cmd.Rank:
			if h.cmd.Group == cmd.Group {
				require(gap >= Cycle(t.TCCDL), "tCCD_L violated (gap %d)", gap)
			} else {
				require(gap >= Cycle(t.TCCDS), "tCCD_S violated (gap %d)", gap)
			}
		}
	}
	if cmd.Kind == CmdACT && len(actsInRank) >= 4 {
		// Four ACTs may share a tFAW window; cmd would be a 5th, so the
		// 4th-most-recent must already be tFAW behind.
		fourth := actsInRank[3]
		require(at-fourth >= Cycle(t.TFAW), "tFAW violated (4 ACTs within %d)", at-fourth)
	}
	// Data bus overlap: successive bursts must not collide.
	if cmd.Kind == CmdRD || cmd.Kind == CmdWR {
		lat := Cycle(t.CL)
		if cmd.Kind == CmdWR {
			lat = Cycle(t.CWL)
		}
		start := at + lat
		for i := len(a.history) - 1; i >= 0; i-- {
			h := a.history[i]
			if h.at < horizon {
				break
			}
			if h.cmd.Kind != CmdRD && h.cmd.Kind != CmdWR {
				continue
			}
			hlat := Cycle(t.CL)
			if h.cmd.Kind == CmdWR {
				hlat = Cycle(t.CWL)
			}
			hstart := h.at + hlat
			hend := hstart + Cycle(t.TBL)
			require(start >= hend || start+Cycle(t.TBL) <= hstart,
				"data bus collision with %v at t=%d", h.cmd, h.at)
		}
	}
}

// Ok validates the recorded stream and reports whether it is protocol
// clean.
func (a *Auditor) Ok() bool {
	a.Validate()
	return len(a.Violations) == 0
}

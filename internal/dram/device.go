package dram

import (
	"fmt"
	"math"
)

// Cycle is a point in time in bus clock cycles.
type Cycle = int64

// never is a sentinel meaning "this event has not happened"; constraints
// derived from it land far in the past.
const never Cycle = math.MinInt64 / 4

// BankStats is one bank's command accounting. Row hit/miss here is the
// device-level view: a column access is a RowHit when it reuses a row a
// previous column access already touched since its ACT, and a RowMiss when
// it is the first access the activation was opened for — so RowMisses
// tracks demanded activations and RowHits tracks row-buffer reuse. The
// controller's mc.Stats.RowHits is request-level and also counts a first
// access to a row the controller opened ahead of it, so it reads higher.
type BankStats struct {
	Acts      uint64
	Pres      uint64
	Reads     uint64 // column read bursts (normal and stride)
	Writes    uint64 // column write bursts (normal and stride)
	RowHits   uint64
	RowMisses uint64
}

// DeviceStats counts the command activity the power model consumes.
type DeviceStats struct {
	Acts, Pres, Refs     uint64
	Reads, Writes        uint64
	StrideReads          uint64
	StrideWrites         uint64
	GangedBursts         uint64
	ModeSwitches         uint64
	BusBusyCycles        uint64
	ColumnWordsFetched   uint64 // internal array words moved to I/O buffers
	ColumnWordsRequested uint64 // words actually sent on the channel
	// PerBank is per-bank accounting, indexed rank*BanksPerRank +
	// group*BanksPerGroup + bank (see Device.BankIndex).
	PerBank []BankStats
}

// Clone deep-copies the stats; plain struct assignment would alias the
// PerBank slice, so baseline snapshots must use Clone.
func (s DeviceStats) Clone() DeviceStats {
	s.PerBank = append([]BankStats(nil), s.PerBank...)
	return s
}

// CloneInto is Clone into a caller-owned destination, reusing dst's PerBank
// backing when its capacity allows — repeated runs on a warm system snapshot
// their baselines without reallocating.
func (s DeviceStats) CloneInto(dst *DeviceStats) {
	per := dst.PerBank
	*dst = s
	dst.PerBank = append(per[:0], s.PerBank...)
}

// Sub returns the per-run delta cur-minus-base.
func (s DeviceStats) Sub(base DeviceStats) DeviceStats {
	d := DeviceStats{
		Acts:                 s.Acts - base.Acts,
		Pres:                 s.Pres - base.Pres,
		Refs:                 s.Refs - base.Refs,
		Reads:                s.Reads - base.Reads,
		Writes:               s.Writes - base.Writes,
		StrideReads:          s.StrideReads - base.StrideReads,
		StrideWrites:         s.StrideWrites - base.StrideWrites,
		GangedBursts:         s.GangedBursts - base.GangedBursts,
		ModeSwitches:         s.ModeSwitches - base.ModeSwitches,
		BusBusyCycles:        s.BusBusyCycles - base.BusBusyCycles,
		ColumnWordsFetched:   s.ColumnWordsFetched - base.ColumnWordsFetched,
		ColumnWordsRequested: s.ColumnWordsRequested - base.ColumnWordsRequested,
		PerBank:              append([]BankStats(nil), s.PerBank...),
	}
	for i := range d.PerBank {
		if i >= len(base.PerBank) {
			break
		}
		b := base.PerBank[i]
		d.PerBank[i].Acts -= b.Acts
		d.PerBank[i].Pres -= b.Pres
		d.PerBank[i].Reads -= b.Reads
		d.PerBank[i].Writes -= b.Writes
		d.PerBank[i].RowHits -= b.RowHits
		d.PerBank[i].RowMisses -= b.RowMisses
	}
	return d
}

// Add accumulates o into s (cross-channel aggregation); per-bank entries
// add index-wise, growing s.PerBank as needed.
func (s *DeviceStats) Add(o DeviceStats) {
	s.Acts += o.Acts
	s.Pres += o.Pres
	s.Refs += o.Refs
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.StrideReads += o.StrideReads
	s.StrideWrites += o.StrideWrites
	s.GangedBursts += o.GangedBursts
	s.ModeSwitches += o.ModeSwitches
	s.BusBusyCycles += o.BusBusyCycles
	s.ColumnWordsFetched += o.ColumnWordsFetched
	s.ColumnWordsRequested += o.ColumnWordsRequested
	for len(s.PerBank) < len(o.PerBank) {
		s.PerBank = append(s.PerBank, BankStats{})
	}
	for i, b := range o.PerBank {
		s.PerBank[i].Acts += b.Acts
		s.PerBank[i].Pres += b.Pres
		s.PerBank[i].Reads += b.Reads
		s.PerBank[i].Writes += b.Writes
		s.PerBank[i].RowHits += b.RowHits
		s.PerBank[i].RowMisses += b.RowMisses
	}
}

// AddSub accumulates the delta cur-minus-base into s without allocating:
// Sub followed by Add, but the per-bank entries are applied in place,
// reusing s.PerBank's backing (grown only on first use). The run engine's
// windowed sampler uses this to build per-sample cross-channel deltas on a
// scratch DeviceStats instead of cloning every channel's bank slice per
// window.
func (s *DeviceStats) AddSub(cur, base DeviceStats) {
	s.Acts += cur.Acts - base.Acts
	s.Pres += cur.Pres - base.Pres
	s.Refs += cur.Refs - base.Refs
	s.Reads += cur.Reads - base.Reads
	s.Writes += cur.Writes - base.Writes
	s.StrideReads += cur.StrideReads - base.StrideReads
	s.StrideWrites += cur.StrideWrites - base.StrideWrites
	s.GangedBursts += cur.GangedBursts - base.GangedBursts
	s.ModeSwitches += cur.ModeSwitches - base.ModeSwitches
	s.BusBusyCycles += cur.BusBusyCycles - base.BusBusyCycles
	s.ColumnWordsFetched += cur.ColumnWordsFetched - base.ColumnWordsFetched
	s.ColumnWordsRequested += cur.ColumnWordsRequested - base.ColumnWordsRequested
	for len(s.PerBank) < len(cur.PerBank) {
		s.PerBank = append(s.PerBank, BankStats{})
	}
	for i, b := range cur.PerBank {
		if i < len(base.PerBank) {
			o := base.PerBank[i]
			b.Acts -= o.Acts
			b.Pres -= o.Pres
			b.Reads -= o.Reads
			b.Writes -= o.Writes
			b.RowHits -= o.RowHits
			b.RowMisses -= o.RowMisses
		}
		s.PerBank[i].Acts += b.Acts
		s.PerBank[i].Pres += b.Pres
		s.PerBank[i].Reads += b.Reads
		s.PerBank[i].Writes += b.Writes
		s.PerBank[i].RowHits += b.RowHits
		s.PerBank[i].RowMisses += b.RowMisses
	}
}

// PerBankActs extracts the per-bank activate counts (for the power model's
// per-bank activation energy).
func (s DeviceStats) PerBankActs() []uint64 {
	acts := make([]uint64, len(s.PerBank))
	for i, b := range s.PerBank {
		acts[i] = b.Acts
	}
	return acts
}

type bankState struct {
	open         bool
	row          int
	actAt        Cycle  // last ACT issue
	preDoneAt    Cycle  // precharge completes (ACT legal from here)
	lastRdAt     Cycle  // last RD issue to this bank
	wrDataEnd    Cycle  // last write burst's final data cycle
	colsSinceAct uint64 // column accesses served by the current activation
}

type groupState struct {
	lastColAt Cycle // last RD/WR issue in this bank group (tCCD_L)
	lastActAt Cycle // last ACT in this bank group (tRRD_L)
}

type rankState struct {
	banks  []bankState
	groups []groupState
	// lastColAt/lastActAt cover any bank group in the rank (tCCD_S/tRRD_S).
	lastColAt Cycle
	lastActAt Cycle
	// faw holds recent ACT times (order-robust: entries may be recorded
	// out of time order when the controller prepares banks ahead).
	faw       [8]Cycle
	mode      IOMode
	tfaw      Cycle
	refDueAt  Cycle
	refUntil  Cycle
	wrDataEnd Cycle // last write data end in rank (tWTR)
	rdDataEnd Cycle // last read data end in rank (tRTW bookkeeping)
	lastWrAt  Cycle // last WR issue in rank (NVM write pulse spacing)
}

// fawConstraint returns the earliest time a new ACT satisfies the
// four-activate window: at least tFAW after the fourth-most-recent ACT.
// The scan is over a small fixed ring, tolerating out-of-time-order entries.
func (rk *rankState) fawConstraint() Cycle {
	var sorted [len(rk.faw)]Cycle
	copy(sorted[:], rk.faw[:])
	// Insertion sort descending (n = 8).
	for i := 1; i < len(sorted); i++ {
		v := sorted[i]
		j := i - 1
		for j >= 0 && sorted[j] < v {
			sorted[j+1] = sorted[j]
			j--
		}
		sorted[j+1] = v
	}
	return sorted[3] + rk.tfaw
}

// recordAct inserts an ACT time, evicting the oldest entry.
func (rk *rankState) recordAct(at Cycle) {
	minIdx := 0
	for i, v := range rk.faw {
		if v < rk.faw[minIdx] {
			minIdx = i
		}
	}
	if at > rk.faw[minIdx] {
		rk.faw[minIdx] = at
	}
}

// CmdTracer observes every command the device applies, together with its
// issue time and result. It is the device-side event-tracing hook
// (implemented by internal/etrace); the field is consulted only when
// non-nil, so the disabled path costs one predictable branch.
type CmdTracer interface {
	CommandIssued(cmd Command, at Cycle, res IssueResult)
}

// BurstVerdict is a data burst's fate after ECC decode: the zero value means
// the burst arrived clean (or fault modeling is off entirely).
type BurstVerdict uint8

// Burst verdicts.
const (
	// BurstOK: no error, or nothing the consumer needs to act on.
	BurstOK BurstVerdict = iota
	// BurstCorrected: ECC corrected the burst in flight; data is good.
	BurstCorrected
	// BurstUncorrectable: a detected-uncorrectable error — the data is NOT
	// trustworthy and the controller must retry or poison the line.
	BurstUncorrectable
)

// String names the verdict.
func (v BurstVerdict) String() string {
	switch v {
	case BurstOK:
		return "ok"
	case BurstCorrected:
		return "corrected"
	case BurstUncorrectable:
		return "uncorrectable"
	default:
		return fmt.Sprintf("BurstVerdict(%d)", uint8(v))
	}
}

// BurstProbe observes every data-carrying burst (RD/WR column access) at the
// moment the device moves it, and rules on its integrity — the hook
// internal/fault implements to push each burst through chipkill
// encode/decode with injected faults. Like Trace, the field is consulted
// only when non-nil, keeping the fault-free fast path allocation- and
// call-free.
//
// Workspace contract: the device calls DataBurst synchronously, one burst at
// a time, and consumes only the returned verdict — so an implementation may
// (and the fault injector does) reuse one internal workspace per channel
// across calls: burst planes, codec scratch, decode buffers. A probe must
// finish adjudicating before returning; nothing it hands out may alias state
// the next call will overwrite.
type BurstProbe interface {
	DataBurst(cmd Command, at Cycle) BurstVerdict
}

// Device is one memory channel's worth of DRAM (or RRAM) state: per-bank
// timing, per-rank mode registers and refresh, and the shared data bus.
type Device struct {
	cfg   Config
	ranks []rankState
	// flatBanks indexes every bank by its flat BankIndex — the scheduler
	// polls OpenRowAt once per occupied bank per service, so the lookup
	// must be one load, not a div/mod re-derivation.
	flatBanks []*bankState
	// Data bus occupancy.
	busFreeAt    Cycle
	busOwnerRank int
	busOwnerGang bool
	busEverUsed  bool
	Stats        DeviceStats

	// Trace, when set, receives every issued command (cycle-accurate event
	// tracing; see internal/etrace).
	Trace CmdTracer

	// Probe, when set, adjudicates every data burst the device moves
	// (fault injection + ECC decode; see internal/fault).
	Probe BurstProbe
}

// NewDevice builds a device for the configuration; it panics if the
// configuration is invalid (construction is programmer-controlled).
func NewDevice(cfg Config) *Device {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	d := &Device{cfg: cfg, busOwnerRank: -1}
	d.Stats.PerBank = make([]BankStats, cfg.Geometry.Ranks*cfg.Geometry.Banks())
	d.ranks = make([]rankState, cfg.Geometry.Ranks)
	for r := range d.ranks {
		rs := &d.ranks[r]
		rs.banks = make([]bankState, cfg.Geometry.Banks())
		rs.groups = make([]groupState, cfg.Geometry.BankGroups)
		for b := range rs.banks {
			rs.banks[b] = bankState{actAt: never, preDoneAt: never, lastRdAt: never, wrDataEnd: never}
		}
		for g := range rs.groups {
			rs.groups[g] = groupState{lastColAt: never, lastActAt: never}
		}
		rs.lastColAt, rs.lastActAt = never, never
		for i := range rs.faw {
			rs.faw[i] = never
		}
		rs.lastWrAt = never
		rs.mode = ModeX4
		rs.tfaw = Cycle(cfg.Timing.TFAW)
		rs.refDueAt = Cycle(cfg.Timing.TREFI)
		rs.refUntil = never
		rs.wrDataEnd, rs.rdDataEnd = never, never
	}
	d.flatBanks = make([]*bankState, 0, cfg.Geometry.Ranks*cfg.Geometry.Banks())
	for r := range d.ranks {
		for b := range d.ranks[r].banks {
			d.flatBanks = append(d.flatBanks, &d.ranks[r].banks[b])
		}
	}
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// RankMode returns rank r's current I/O mode.
func (d *Device) RankMode(r int) IOMode { return d.ranks[r].mode }

// BankOpenRow returns (row, true) if the addressed bank has an open row.
func (d *Device) BankOpenRow(rank, group, bank int) (int, bool) {
	b := &d.ranks[rank].banks[group*d.cfg.Geometry.BanksPerGroup+bank]
	return b.row, b.open
}

// RefreshDue reports the next refresh deadline for a rank.
func (d *Device) RefreshDue(rank int) Cycle { return d.ranks[rank].refDueAt }

func (d *Device) bank(c Command) *bankState {
	return &d.ranks[c.Rank].banks[c.Group*d.cfg.Geometry.BanksPerGroup+c.Bank]
}

// BankIndex flattens (rank, group, bank) into the PerBank index.
func (d *Device) BankIndex(rank, group, bank int) int {
	g := &d.cfg.Geometry
	return (rank*g.BankGroups+group)*g.BanksPerGroup + bank
}

// NumBanks returns the number of flat bank indices (Ranks x banks/rank) —
// the valid range of BankIndex and OpenRowAt.
func (d *Device) NumBanks() int {
	return d.cfg.Geometry.Ranks * d.cfg.Geometry.Banks()
}

// OpenRowAt is BankOpenRow addressed by the flat BankIndex — the cheap
// per-bank lookup the controller's scheduling index consults on its hot
// path (a single indexed load).
func (d *Device) OpenRowAt(idx int) (int, bool) {
	b := d.flatBanks[idx]
	return b.row, b.open
}

func (d *Device) bankStats(c Command) *BankStats {
	return &d.Stats.PerBank[d.BankIndex(c.Rank, c.Group, c.Bank)]
}

func max2(a, b Cycle) Cycle {
	if a > b {
		return a
	}
	return b
}

func maxN(vals ...Cycle) Cycle {
	// Cycle values can be negative (the `never` sentinel), so seed from the
	// first element; an empty list yields 0 instead of panicking.
	if len(vals) == 0 {
		return 0
	}
	m := vals[0]
	for _, v := range vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// EarliestIssue returns the earliest cycle >= now at which cmd is legal.
func (d *Device) EarliestIssue(cmd Command, now Cycle) Cycle {
	t := &d.cfg.Timing
	rk := &d.ranks[cmd.Rank]
	switch cmd.Kind {
	case CmdACT:
		bk := d.bank(cmd)
		gs := &rk.groups[cmd.Group]
		earliest := maxN(
			now,
			bk.preDoneAt,
			gs.lastActAt+Cycle(t.TRRDL),
			rk.lastActAt+Cycle(t.TRRDS),
			rk.fawConstraint(),
			rk.refUntil,
		)
		if cmd.GangRanks {
			earliest = d.gangConstrain(cmd, earliest, CmdACT)
		}
		return earliest
	case CmdPRE:
		bk := d.bank(cmd)
		return maxN(
			now,
			bk.actAt+Cycle(t.TRAS),
			bk.lastRdAt+Cycle(t.TRTP),
			bk.wrDataEnd+Cycle(t.TWR),
			rk.refUntil,
		)
	case CmdRD, CmdWR:
		return d.earliestColumn(cmd, now)
	case CmdREF:
		// All banks in the rank must be precharge-able and closed. The
		// implicit precharge happens tRP before the REF lands, so its
		// earliest time depends only on bank history, not on `now`.
		earliest := max2(now, rk.refUntil)
		for g := range rk.groups {
			for b := 0; b < d.cfg.Geometry.BanksPerGroup; b++ {
				bk := &rk.banks[g*d.cfg.Geometry.BanksPerGroup+b]
				if bk.open {
					preAt := maxN(bk.actAt+Cycle(t.TRAS), bk.lastRdAt+Cycle(t.TRTP), bk.wrDataEnd+Cycle(t.TWR))
					earliest = max2(earliest, preAt+Cycle(t.TRP))
				} else {
					earliest = max2(earliest, bk.preDoneAt)
				}
			}
		}
		return earliest
	default:
		panic(fmt.Sprintf("dram: EarliestIssue of unknown command %v", cmd.Kind))
	}
}

// earliestColumn computes the issue constraint for RD/WR including CCD,
// turnaround, data-bus occupancy, and mode/rank switch penalties.
func (d *Device) earliestColumn(cmd Command, now Cycle) Cycle {
	t := &d.cfg.Timing
	rk := &d.ranks[cmd.Rank]
	bk := d.bank(cmd)
	gs := &rk.groups[cmd.Group]

	lat := Cycle(t.CL)
	if cmd.Kind == CmdWR {
		lat = Cycle(t.CWL)
	}
	earliest := maxN(
		now,
		bk.actAt+Cycle(t.TRCD),
		gs.lastColAt+Cycle(t.TCCDL),
		rk.lastColAt+Cycle(t.TCCDS),
		rk.refUntil,
	)
	if cmd.Kind == CmdRD {
		// Write-to-read turnaround in the same rank.
		earliest = max2(earliest, rk.wrDataEnd+Cycle(t.TWTR))
	} else if t.TWRBurst > 0 {
		// NVM write pulses occupy the array between write bursts.
		earliest = max2(earliest, rk.lastWrAt+Cycle(t.TWRBurst))
	}
	// Data bus: the burst must start after the bus frees, plus a switch gap
	// when ownership (rank or I/O mode) changes, plus read/write turnaround.
	busReady := d.busFreeAt
	if d.busEverUsed {
		// Rank-to-rank switch: ownership changes when the driving rank set
		// changes. Back-to-back ganged bursts share ownership.
		if d.busOwnerGang != cmd.GangRanks || (!cmd.GangRanks && d.busOwnerRank != cmd.Rank) {
			busReady += Cycle(t.TRTR)
		}
		if d.modeSwitchNeeded(cmd) {
			busReady += Cycle(t.TRTR)
		}
		if cmd.Kind == CmdWR && d.lastBusWasRead() {
			busReady += Cycle(t.TRTW)
		}
	}
	if dataStart := earliest + lat; dataStart < busReady {
		earliest = busReady - lat
	}
	if cmd.GangRanks {
		earliest = d.gangConstrain(cmd, earliest, cmd.Kind)
	}
	return earliest
}

// modeSwitchNeeded reports whether issuing cmd requires reprogramming the
// target rank's I/O mode register.
func (d *Device) modeSwitchNeeded(cmd Command) bool {
	if d.ranks[cmd.Rank].mode != cmd.Mode {
		return true
	}
	if cmd.GangRanks {
		for r := range d.ranks {
			if d.ranks[r].mode != cmd.Mode {
				return true
			}
		}
	}
	return false
}

func (d *Device) lastBusWasRead() bool {
	var lastRd, lastWr Cycle = never, never
	for r := range d.ranks {
		lastRd = max2(lastRd, d.ranks[r].rdDataEnd)
		lastWr = max2(lastWr, d.ranks[r].wrDataEnd)
	}
	return lastRd > lastWr
}

// gangConstrain folds in the mirror rank's refresh/ccd constraints for
// dual-rank ganged bursts (fine-granularity stride, Section 4.4). The
// mirror rank holds the same row open by construction (mirrored
// allocation), so only rank-global constraints apply.
func (d *Device) gangConstrain(cmd Command, earliest Cycle, kind CmdKind) Cycle {
	t := &d.cfg.Timing
	for r := range d.ranks {
		if r == cmd.Rank {
			continue
		}
		o := &d.ranks[r]
		earliest = max2(earliest, o.refUntil)
		if kind == CmdRD || kind == CmdWR {
			earliest = max2(earliest, o.lastColAt+Cycle(t.TCCDS))
			if kind == CmdRD {
				earliest = max2(earliest, o.wrDataEnd+Cycle(t.TWTR))
			}
		}
	}
	return earliest
}

// IssueResult reports the consequences of a command.
type IssueResult struct {
	// DataStart/DataEnd bound the data burst on the bus (RD/WR only);
	// DataEnd is exclusive.
	DataStart, DataEnd Cycle
	// Done is when the command's effects complete (e.g. REF busy end).
	Done Cycle
	// ModeSwitched reports that the rank's I/O mode register changed.
	ModeSwitched bool
	// Fault is the Probe's ruling on the data burst (RD/WR only); BurstOK
	// whenever no probe is attached.
	Fault BurstVerdict
}

// Issue applies cmd at cycle at. It panics when the command is illegal
// (issued before EarliestIssue, or structurally invalid) — the controller
// is required to consult EarliestIssue first, and a violation is a
// simulator bug, not a runtime condition.
func (d *Device) Issue(cmd Command, at Cycle) IssueResult {
	if e := d.EarliestIssue(cmd, at); e > at {
		panic(fmt.Sprintf("dram: %v issued at %d, legal at %d", cmd, at, e))
	}
	return d.issueAt(cmd, at)
}

// IssueEarliest issues cmd at its earliest legal cycle >= now and returns
// that cycle with the result: EarliestIssue then Issue, with the timing
// constraints evaluated once.
func (d *Device) IssueEarliest(cmd Command, now Cycle) (Cycle, IssueResult) {
	at := d.EarliestIssue(cmd, now)
	return at, d.issueAt(cmd, at)
}

// issueAt applies a command already known to be legal at cycle at and
// reports it to the tracer.
func (d *Device) issueAt(cmd Command, at Cycle) IssueResult {
	res := d.apply(cmd, at)
	if d.Trace != nil {
		d.Trace.CommandIssued(cmd, at, res)
	}
	return res
}

// apply performs Issue's state transition and returns the result.
func (d *Device) apply(cmd Command, at Cycle) IssueResult {
	t := &d.cfg.Timing
	rk := &d.ranks[cmd.Rank]
	switch cmd.Kind {
	case CmdACT:
		bk := d.bank(cmd)
		if bk.open {
			panic(fmt.Sprintf("dram: ACT to open bank: %v", cmd))
		}
		bk.open = true
		bk.row = cmd.Row
		bk.actAt = at
		bk.lastRdAt, bk.wrDataEnd = never, never
		bk.colsSinceAct = 0
		gs := &rk.groups[cmd.Group]
		gs.lastActAt = max2(gs.lastActAt, at)
		rk.lastActAt = max2(rk.lastActAt, at)
		rk.recordAct(at)
		d.Stats.Acts++
		d.bankStats(cmd).Acts++
		if cmd.GangRanks {
			d.Stats.Acts++ // mirror rank activates too
			for r := range d.ranks {
				if r != cmd.Rank {
					d.Stats.PerBank[d.BankIndex(r, cmd.Group, cmd.Bank)].Acts++
				}
			}
		}
		return IssueResult{Done: at + Cycle(t.TRCD)}
	case CmdPRE:
		bk := d.bank(cmd)
		if !bk.open {
			panic(fmt.Sprintf("dram: PRE to closed bank: %v", cmd))
		}
		bk.open = false
		bk.preDoneAt = at + Cycle(t.TRP)
		d.Stats.Pres++
		d.bankStats(cmd).Pres++
		return IssueResult{Done: bk.preDoneAt}
	case CmdRD, CmdWR:
		return d.issueColumn(cmd, at)
	case CmdREF:
		for b := range rk.banks {
			rk.banks[b].open = false
			rk.banks[b].preDoneAt = at
		}
		rk.refUntil = at + Cycle(t.TRFC)
		rk.refDueAt += Cycle(t.TREFI)
		d.Stats.Refs++
		return IssueResult{Done: rk.refUntil}
	default:
		panic(fmt.Sprintf("dram: Issue of unknown command %v", cmd.Kind))
	}
}

func (d *Device) issueColumn(cmd Command, at Cycle) IssueResult {
	t := &d.cfg.Timing
	rk := &d.ranks[cmd.Rank]
	bk := d.bank(cmd)
	if !bk.open || bk.row != cmd.Row {
		panic(fmt.Sprintf("dram: column access to wrong/closed row: %v (open=%v row=%d)", cmd, bk.open, bk.row))
	}
	lat := Cycle(t.CL)
	if cmd.Kind == CmdWR {
		lat = Cycle(t.CWL)
	}
	res := IssueResult{DataStart: at + lat}
	res.DataEnd = res.DataStart + Cycle(t.TBL)
	res.Done = res.DataEnd

	bs := d.bankStats(cmd)
	if bk.colsSinceAct > 0 {
		bs.RowHits++
	} else {
		bs.RowMisses++
	}
	bk.colsSinceAct++
	if cmd.Kind == CmdRD {
		bs.Reads++
	} else {
		bs.Writes++
	}

	if d.modeSwitchNeeded(cmd) {
		res.ModeSwitched = true
		rk.mode = cmd.Mode
		d.Stats.ModeSwitches++
		if cmd.GangRanks {
			for r := range d.ranks {
				d.ranks[r].mode = cmd.Mode
			}
		}
	}
	gs := &rk.groups[cmd.Group]
	gs.lastColAt = max2(gs.lastColAt, at)
	rk.lastColAt = max2(rk.lastColAt, at)
	if cmd.Kind == CmdRD {
		bk.lastRdAt = max2(bk.lastRdAt, at)
		rk.rdDataEnd = max2(rk.rdDataEnd, res.DataEnd)
		if cmd.Mode.IsStride() {
			d.Stats.StrideReads++
			// Stride fetch moves four column words into the I/O buffers
			// (all four, regardless of how many the channel sends).
			d.Stats.ColumnWordsFetched += 4
			d.Stats.ColumnWordsRequested++
		} else {
			d.Stats.Reads++
			d.Stats.ColumnWordsFetched++
			d.Stats.ColumnWordsRequested++
		}
	} else {
		bk.wrDataEnd = max2(bk.wrDataEnd, res.DataEnd)
		rk.wrDataEnd = max2(rk.wrDataEnd, res.DataEnd)
		rk.lastWrAt = max2(rk.lastWrAt, at)
		if cmd.Mode.IsStride() {
			d.Stats.StrideWrites++
			d.Stats.ColumnWordsFetched += 4
			d.Stats.ColumnWordsRequested++
		} else {
			d.Stats.Writes++
			d.Stats.ColumnWordsFetched++
			d.Stats.ColumnWordsRequested++
		}
	}
	if cmd.GangRanks {
		d.Stats.GangedBursts++
	}
	d.Stats.BusBusyCycles += uint64(t.TBL)
	if res.DataEnd > d.busFreeAt {
		d.busFreeAt = res.DataEnd
		d.busOwnerRank = cmd.Rank
		d.busOwnerGang = cmd.GangRanks
	}
	d.busEverUsed = true
	if d.Probe != nil {
		res.Fault = d.Probe.DataBurst(cmd, at)
	}
	return res
}

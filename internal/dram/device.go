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
//
// Each command kind has one entry point that takes the flat bank index the
// controller already holds (Activate, Precharge, Column; Refresh takes the
// rank), issues the command at its earliest legal cycle and returns its
// results as scalars. Every timing rule lives once, in the kind's earliest
// function (actEarliest, preEarliest, colEarliest, refEarliest), and every
// state change once, in its entry point. EarliestIssue, which takes a
// Command, wraps the same earliest functions for reference schedulers. A
// Command value is built on the per-kind path only for an attached Trace
// or Probe.
type Device struct {
	cfg   Config
	ranks []rankState
	// flatBanks resolves every flat BankIndex to its bank, rank and group
	// state and its coordinates in one load: the scheduler polls OpenRowAt
	// once per occupied bank per service, and every command the controller
	// issues arrives by flat index.
	flatBanks []bankRef
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

// bankRef is one flat bank index resolved: the bank's state, and its
// rank's and group's.
type bankRef struct {
	st   *bankState
	rk   *rankState
	gs   *groupState
	rank int
}

// cmd builds the Command of kind addressed to flat bank idx, for a hook or
// a panic message.
func (d *Device) cmd(idx int, kind CmdKind) Command {
	g := &d.cfg.Geometry
	inRank := idx % g.Banks()
	return Command{Kind: kind, Rank: idx / g.Banks(), Group: inRank / g.BanksPerGroup, Bank: inRank % g.BanksPerGroup}
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
	d.flatBanks = make([]bankRef, 0, cfg.Geometry.Ranks*cfg.Geometry.Banks())
	for r := range d.ranks {
		rs := &d.ranks[r]
		for b := range rs.banks {
			d.flatBanks = append(d.flatBanks, bankRef{st: &rs.banks[b], rk: rs, gs: &rs.groups[b/cfg.Geometry.BanksPerGroup], rank: r})
		}
	}
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// RefreshDue reports the next refresh deadline for a rank.
func (d *Device) RefreshDue(rank int) Cycle { return d.ranks[rank].refDueAt }

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
	b := d.flatBanks[idx].st
	return b.row, b.open
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

// actEarliest is the earliest cycle >= now at which an ACT to r is legal.
func (d *Device) actEarliest(r *bankRef, gang bool, now Cycle) Cycle {
	t := &d.cfg.Timing
	earliest := max(
		now,
		r.st.preDoneAt,
		r.gs.lastActAt+Cycle(t.TRRDL),
		r.rk.lastActAt+Cycle(t.TRRDS),
		r.rk.fawConstraint(),
		r.rk.refUntil,
	)
	if gang {
		earliest = d.gangConstrain(r.rank, earliest, false, false)
	}
	return earliest
}

// preEarliest is the earliest cycle >= now at which a PRE to r is legal.
func (d *Device) preEarliest(r *bankRef, now Cycle) Cycle {
	t := &d.cfg.Timing
	return max(
		now,
		r.st.actAt+Cycle(t.TRAS),
		r.st.lastRdAt+Cycle(t.TRTP),
		r.st.wrDataEnd+Cycle(t.TWR),
		r.rk.refUntil,
	)
}

// colEarliest is the earliest cycle >= now at which a RD (or, with write, a
// WR) to r is legal, including CCD, turnaround, data-bus occupancy, and
// mode/rank switch penalties.
func (d *Device) colEarliest(r *bankRef, write bool, mode IOMode, gang bool, now Cycle) Cycle {
	t := &d.cfg.Timing
	rk := r.rk
	lat := Cycle(t.CL)
	if write {
		lat = Cycle(t.CWL)
	}
	earliest := max(
		now,
		r.st.actAt+Cycle(t.TRCD),
		r.gs.lastColAt+Cycle(t.TCCDL),
		rk.lastColAt+Cycle(t.TCCDS),
		rk.refUntil,
	)
	if !write {
		// Write-to-read turnaround in the same rank.
		earliest = max(earliest, rk.wrDataEnd+Cycle(t.TWTR))
	} else if t.TWRBurst > 0 {
		// NVM write pulses occupy the array between write bursts.
		earliest = max(earliest, rk.lastWrAt+Cycle(t.TWRBurst))
	}
	// Data bus: the burst must start after the bus frees, plus a switch gap
	// when ownership (rank or I/O mode) changes, plus read/write turnaround.
	busReady := d.busFreeAt
	if d.busEverUsed {
		// Rank-to-rank switch: ownership changes when the driving rank set
		// changes. Back-to-back ganged bursts share ownership.
		if d.busOwnerGang != gang || (!gang && d.busOwnerRank != r.rank) {
			busReady += Cycle(t.TRTR)
		}
		if d.modeSwitchNeeded(rk, mode, gang) {
			busReady += Cycle(t.TRTR)
		}
		if write && d.lastBusWasRead() {
			busReady += Cycle(t.TRTW)
		}
	}
	if dataStart := earliest + lat; dataStart < busReady {
		earliest = busReady - lat
	}
	if gang {
		earliest = d.gangConstrain(r.rank, earliest, true, !write)
	}
	return earliest
}

// refEarliest is the earliest cycle >= now at which a REF to rank is legal.
// All banks in the rank must be precharge-able and closed. The implicit
// precharge happens tRP before the REF lands, so its earliest time depends
// only on bank history, not on `now`.
func (d *Device) refEarliest(rank int, now Cycle) Cycle {
	t := &d.cfg.Timing
	rk := &d.ranks[rank]
	earliest := max2(now, rk.refUntil)
	for b := range rk.banks {
		bk := &rk.banks[b]
		if bk.open {
			preAt := maxN(bk.actAt+Cycle(t.TRAS), bk.lastRdAt+Cycle(t.TRTP), bk.wrDataEnd+Cycle(t.TWR))
			earliest = max2(earliest, preAt+Cycle(t.TRP))
		} else {
			earliest = max2(earliest, bk.preDoneAt)
		}
	}
	return earliest
}

// modeSwitchNeeded reports whether a column command in mode to rank rk
// (ganged across every rank with gang) requires reprogramming an I/O mode
// register.
func (d *Device) modeSwitchNeeded(rk *rankState, mode IOMode, gang bool) bool {
	if rk.mode != mode {
		return true
	}
	if gang {
		for r := range d.ranks {
			if d.ranks[r].mode != mode {
				return true
			}
		}
	}
	return false
}

func (d *Device) lastBusWasRead() bool {
	var lastRd, lastWr Cycle = never, never
	for r := range d.ranks {
		lastRd = max(lastRd, d.ranks[r].rdDataEnd)
		lastWr = max(lastWr, d.ranks[r].wrDataEnd)
	}
	return lastRd > lastWr
}

// gangConstrain folds in the mirror ranks' refresh constraints, and for a
// column command (col; read for RD) their CCD and write-to-read
// constraints, for dual-rank ganged commands (fine-granularity stride,
// Section 4.4). The mirror rank holds the same row open by construction
// (mirrored allocation), so only rank-global constraints apply.
func (d *Device) gangConstrain(rank int, earliest Cycle, col, read bool) Cycle {
	t := &d.cfg.Timing
	for r := range d.ranks {
		if r == rank {
			continue
		}
		o := &d.ranks[r]
		earliest = max(earliest, o.refUntil)
		if col {
			earliest = max(earliest, o.lastColAt+Cycle(t.TCCDS))
			if read {
				earliest = max(earliest, o.wrDataEnd+Cycle(t.TWTR))
			}
		}
	}
	return earliest
}

// Activate issues an ACT opening row in flat bank idx (and, with gang, in
// its mirror ranks) at its earliest legal cycle >= now, and returns that
// cycle. It panics when the bank is already open.
func (d *Device) Activate(idx, row int, gang bool, now Cycle) Cycle {
	r := &d.flatBanks[idx]
	at := d.actEarliest(r, gang, now)
	bk := r.st
	if bk.open {
		cmd := d.cmd(idx, CmdACT)
		cmd.Row, cmd.GangRanks = row, gang
		panic(fmt.Sprintf("dram: ACT to open bank: %v", cmd))
	}
	bk.open = true
	bk.row = row
	bk.actAt = at
	bk.lastRdAt, bk.wrDataEnd = never, never
	bk.colsSinceAct = 0
	r.gs.lastActAt = max(r.gs.lastActAt, at)
	r.rk.lastActAt = max(r.rk.lastActAt, at)
	r.rk.recordAct(at)
	d.Stats.Acts++
	d.Stats.PerBank[idx].Acts++
	if gang {
		d.Stats.Acts++ // mirror rank activates too
		for o := range d.ranks {
			if o != r.rank {
				d.Stats.PerBank[idx+(o-r.rank)*d.cfg.Geometry.Banks()].Acts++
			}
		}
	}
	if d.Trace != nil {
		cmd := d.cmd(idx, CmdACT)
		cmd.Row, cmd.GangRanks = row, gang
		d.Trace.CommandIssued(cmd, at, IssueResult{Done: at + Cycle(d.cfg.Timing.TRCD)})
	}
	return at
}

// Precharge issues a PRE closing flat bank idx at its earliest legal cycle
// >= now, and returns that cycle. It panics when the bank is closed.
func (d *Device) Precharge(idx int, now Cycle) Cycle {
	r := &d.flatBanks[idx]
	at := d.preEarliest(r, now)
	bk := r.st
	if !bk.open {
		panic(fmt.Sprintf("dram: PRE to closed bank: %v", d.cmd(idx, CmdPRE)))
	}
	bk.open = false
	bk.preDoneAt = at + Cycle(d.cfg.Timing.TRP)
	d.Stats.Pres++
	d.Stats.PerBank[idx].Pres++
	if d.Trace != nil {
		d.Trace.CommandIssued(d.cmd(idx, CmdPRE), at, IssueResult{Done: bk.preDoneAt})
	}
	return at
}

// Column issues a column command, a RD or with write a WR, to column col
// of the open row in flat bank idx, in I/O mode mode and ganged across the
// ranks with gang, at its earliest legal cycle >= now. It returns that
// cycle, the data burst's [start, end) on the bus, whether the rank's I/O
// mode register changed, and the Probe's verdict on the burst (BurstOK
// without a probe). It panics when row is not the bank's open row.
func (d *Device) Column(idx, row, col int, write bool, mode IOMode, gang bool, now Cycle) (at, dataStart, dataEnd Cycle, switched bool, verdict BurstVerdict) {
	r := &d.flatBanks[idx]
	at = d.colEarliest(r, write, mode, gang, now)
	t := &d.cfg.Timing
	rk, bk := r.rk, r.st
	if !bk.open || bk.row != row {
		cmd := d.colCmd(idx, row, col, write, mode, gang)
		panic(fmt.Sprintf("dram: column access to wrong/closed row: %v (open=%v row=%d)", cmd, bk.open, bk.row))
	}
	lat := Cycle(t.CL)
	if write {
		lat = Cycle(t.CWL)
	}
	dataStart = at + lat
	dataEnd = dataStart + Cycle(t.TBL)

	bs := &d.Stats.PerBank[idx]
	if bk.colsSinceAct > 0 {
		bs.RowHits++
	} else {
		bs.RowMisses++
	}
	bk.colsSinceAct++
	if write {
		bs.Writes++
	} else {
		bs.Reads++
	}

	if d.modeSwitchNeeded(rk, mode, gang) {
		switched = true
		rk.mode = mode
		d.Stats.ModeSwitches++
		if gang {
			for o := range d.ranks {
				d.ranks[o].mode = mode
			}
		}
	}
	r.gs.lastColAt = max(r.gs.lastColAt, at)
	rk.lastColAt = max(rk.lastColAt, at)
	// A stride burst moves all four column words into the I/O buffers,
	// regardless of how many the channel sends.
	fetched := uint64(1)
	if mode.IsStride() {
		fetched = 4
	}
	if !write {
		bk.lastRdAt = max(bk.lastRdAt, at)
		rk.rdDataEnd = max(rk.rdDataEnd, dataEnd)
		if mode.IsStride() {
			d.Stats.StrideReads++
		} else {
			d.Stats.Reads++
		}
	} else {
		bk.wrDataEnd = max(bk.wrDataEnd, dataEnd)
		rk.wrDataEnd = max(rk.wrDataEnd, dataEnd)
		rk.lastWrAt = max(rk.lastWrAt, at)
		if mode.IsStride() {
			d.Stats.StrideWrites++
		} else {
			d.Stats.Writes++
		}
	}
	d.Stats.ColumnWordsFetched += fetched
	d.Stats.ColumnWordsRequested++
	if gang {
		d.Stats.GangedBursts++
	}
	d.Stats.BusBusyCycles += uint64(t.TBL)
	if dataEnd > d.busFreeAt {
		d.busFreeAt = dataEnd
		d.busOwnerRank = r.rank
		d.busOwnerGang = gang
	}
	d.busEverUsed = true
	if d.Probe != nil || d.Trace != nil {
		cmd := d.colCmd(idx, row, col, write, mode, gang)
		if d.Probe != nil {
			verdict = d.Probe.DataBurst(cmd, at)
		}
		if d.Trace != nil {
			d.Trace.CommandIssued(cmd, at, IssueResult{
				DataStart: dataStart, DataEnd: dataEnd, Done: dataEnd,
				ModeSwitched: switched, Fault: verdict,
			})
		}
	}
	return at, dataStart, dataEnd, switched, verdict
}

// colCmd builds the column Command Column issues to flat bank idx.
func (d *Device) colCmd(idx, row, col int, write bool, mode IOMode, gang bool) Command {
	cmd := d.cmd(idx, CmdRD)
	if write {
		cmd.Kind = CmdWR
	}
	cmd.Row, cmd.Col, cmd.Mode, cmd.GangRanks = row, col, mode, gang
	return cmd
}

// Refresh issues a REF to rank at its earliest legal cycle >= now, closing
// every bank of the rank, and returns that cycle.
func (d *Device) Refresh(rank int, now Cycle) Cycle {
	t := &d.cfg.Timing
	at := d.refEarliest(rank, now)
	rk := &d.ranks[rank]
	for b := range rk.banks {
		rk.banks[b].open = false
		rk.banks[b].preDoneAt = at
	}
	rk.refUntil = at + Cycle(t.TRFC)
	rk.refDueAt += Cycle(t.TREFI)
	d.Stats.Refs++
	if d.Trace != nil {
		d.Trace.CommandIssued(Command{Kind: CmdREF, Rank: rank}, at, IssueResult{Done: rk.refUntil})
	}
	return at
}

// ref resolves a Command's bank.
func (d *Device) ref(cmd Command) *bankRef {
	return &d.flatBanks[d.BankIndex(cmd.Rank, cmd.Group, cmd.Bank)]
}

// EarliestIssue returns the earliest cycle >= now at which cmd is legal.
// It wraps the per-kind earliest functions the entry points use.
func (d *Device) EarliestIssue(cmd Command, now Cycle) Cycle {
	switch cmd.Kind {
	case CmdACT:
		return d.actEarliest(d.ref(cmd), cmd.GangRanks, now)
	case CmdPRE:
		return d.preEarliest(d.ref(cmd), now)
	case CmdRD, CmdWR:
		return d.colEarliest(d.ref(cmd), cmd.Kind == CmdWR, cmd.Mode, cmd.GangRanks, now)
	case CmdREF:
		return d.refEarliest(cmd.Rank, now)
	default:
		panic(fmt.Sprintf("dram: EarliestIssue of unknown command %v", cmd.Kind))
	}
}

// IssueResult reports the consequences of one issued command, and is what
// a CmdTracer sees.
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

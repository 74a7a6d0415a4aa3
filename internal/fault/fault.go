// Package fault injects deterministic, seed-driven memory faults at the
// dram.Device burst boundary and adjudicates every data-carrying burst
// through the chipkill codecs in internal/ecc.
//
// The injector implements dram.BurstProbe: for each RD/WR burst the device
// moves, it synthesizes a deterministic payload, encodes it under the
// design's burst layout (ecc.Scheme), applies the configured faults —
// transient single-bit flips, correlated multi-bit bursts, transient
// whole-chip kills, and persistent per-rank fault maps (dead chips,
// stuck-at DQs) — then decodes and compares against ground truth. Because
// the injector knows the true payload, a decode that *accepts* wrong data
// is observable here as a silent data corruption, which is exactly the
// quantity the paper's chipkill-compatibility argument says must stay zero.
//
// Determinism: every random draw comes from a splitmix64 stream keyed by
// (Config.Seed, burst index), so a run that issues the same command
// sequence sees the same faults — regardless of wall clock, worker count,
// or anything outside the command stream. Retried reads are new bursts with
// new indices: transient faults are re-drawn (and usually vanish), while
// the persistent fault map reapplies, so a multi-chip map fault stays
// uncorrectable through every retry and ends in a poisoned completion.
package fault

import (
	"fmt"

	"sam/internal/dram"
	"sam/internal/ecc"
)

// ChipFault marks one chip dead. Rank < 0 applies the fault to every rank
// (a channel-wide part failure); otherwise only bursts driven by that rank
// (or ganged bursts, which drive all ranks) see it. Chip is reduced modulo
// the scheme's rank width.
type ChipFault struct {
	Rank int
	Chip int
}

// StuckDQ forces one DQ lane of one chip to a constant value on every beat.
// Rank semantics match ChipFault; DQ is reduced modulo 4.
type StuckDQ struct {
	Rank  int
	Chip  int
	DQ    int
	Value byte // 0 or 1
}

// Config selects the fault models and their rates.
type Config struct {
	// Seed keys the deterministic fault stream.
	Seed uint64
	// Rate is the per-burst probability of one transient fault event.
	Rate float64
	// Relative weights of the transient event kinds; all-zero selects the
	// default mix 0.6 bit / 0.2 chip / 0.2 correlated.
	BitWeight, ChipWeight, CorrelatedWeight float64
	// Persistent per-rank fault map, applied to every burst it covers.
	DeadChips []ChipFault
	StuckDQs  []StuckDQ
	// MaxRetries bounds the controller's read-retry loop before poisoning:
	// 0 means poison on the first detected-uncorrectable read (no
	// retries). The sim layer applies this budget on every fault-injected
	// run and restores the controller default on fault-free runs, so a
	// campaign point never inherits the previous point's budget. (Plumbed
	// by the sim layer — the injector itself never retries.)
	MaxRetries int
}

// Counters is the reliability accounting one injector accumulates. The
// per-burst identity Bursts = clean + Transparent + CorrectedBursts + DUEs +
// SilentCorruptions holds by construction (each adjudicated burst lands in
// exactly one class).
type Counters struct {
	// Bursts is every data burst adjudicated (including retries).
	Bursts uint64 `json:"bursts"`
	// Injected counts bursts where at least one chip's bits actually
	// changed (a drawn fault can be masked by the data, e.g. a stuck DQ
	// already at its value — those count as Transparent when nothing else
	// hit the burst).
	Injected uint64 `json:"injected"`
	// Transparent counts bursts where a fault was drawn or mapped but no
	// bit changed.
	Transparent uint64 `json:"transparent"`
	// CorrectedBursts/CorrectedSymbols: ECC corrected the burst in flight.
	CorrectedBursts  uint64 `json:"corrected_bursts"`
	CorrectedSymbols uint64 `json:"corrected_symbols"`
	// DUEs are detected-uncorrectable decodes (each retry attempt that
	// still fails counts again).
	DUEs uint64 `json:"dues"`
	// SilentCorruptions counts decodes that accepted wrong data — the
	// quantity the chipkill-compatibility argument requires to be zero —
	// plus, on no-ECC designs, every corrupted burst (nothing detects them).
	SilentCorruptions uint64 `json:"silent_corruptions"`
	// Transient event draws by kind.
	TransientBits       uint64 `json:"transient_bits"`
	TransientChips      uint64 `json:"transient_chips"`
	TransientCorrelated uint64 `json:"transient_correlated"`
	// PerChip attributes faulted bursts to the chips that changed.
	PerChip []uint64 `json:"per_chip"`
}

// Add accumulates o into c (cross-channel aggregation).
func (c *Counters) Add(o Counters) {
	c.Bursts += o.Bursts
	c.Injected += o.Injected
	c.Transparent += o.Transparent
	c.CorrectedBursts += o.CorrectedBursts
	c.CorrectedSymbols += o.CorrectedSymbols
	c.DUEs += o.DUEs
	c.SilentCorruptions += o.SilentCorruptions
	c.TransientBits += o.TransientBits
	c.TransientChips += o.TransientChips
	c.TransientCorrelated += o.TransientCorrelated
	for len(c.PerChip) < len(o.PerChip) {
		c.PerChip = append(c.PerChip, 0)
	}
	for i, v := range o.PerChip {
		c.PerChip[i] += v
	}
}

// Injector adjudicates bursts for one device (one channel). It is not
// goroutine-safe; attach one injector per device.
type Injector struct {
	cfg    Config
	codec  *ecc.Chipkill // nil on designs without ECC
	chips  int
	hasECC bool

	// Counters is the accumulated reliability accounting.
	Counters Counters

	n       uint64 // burst index: the deterministic stream key
	synth   uint64 // stream draws a burst's synthesis takes
	payload []byte
	decoded []byte
	burst   *ecc.Burst
	clean   [][ecc.BytesPerChip]byte
}

// New builds an injector for a design whose bursts carry the given layout
// scheme. hasECC=false models designs that physically cannot keep whole
// codewords in a burst (plain GS-DRAM, Section 3.3.1): faults hit raw data
// with nothing to detect them, so every corrupted burst counts as a silent
// corruption.
func New(cfg Config, scheme ecc.Scheme, hasECC bool) *Injector {
	in := &Injector{cfg: cfg, hasECC: hasECC}
	codec := ecc.NewChipkill(scheme)
	in.chips = codec.Chips()
	if hasECC {
		in.codec = codec
		in.payload = make([]byte, codec.DataBytes())
		in.decoded = make([]byte, codec.DataBytes())
	}
	in.burst = ecc.NewBurst(in.chips)
	in.synth = uint64(in.chips * ecc.BytesPerChip)
	if hasECC {
		in.synth = uint64(len(in.payload))
	}
	in.clean = make([][ecc.BytesPerChip]byte, in.chips)
	in.Counters.PerChip = make([]uint64, in.chips)
	return in
}

// Reset rewinds the injector for a fresh run under a new configuration,
// keeping every workspace (codec scratch, burst, counters slice) so repeated
// sweep points and campaign cells reuse one injector per channel instead of
// rebuilding codecs and buffers each run. The deterministic stream restarts
// at burst index 0, exactly as a freshly built injector would.
func (in *Injector) Reset(cfg Config) {
	in.cfg = cfg
	in.n = 0
	per := in.Counters.PerChip
	for i := range per {
		per[i] = 0
	}
	in.Counters = Counters{PerChip: per}
}

// stream is a splitmix64 PRNG keyed per burst.
type stream struct{ s uint64 }

// gamma is splitmix64's state increment: every draw adds it once, so the
// state after k draws is the start state plus k·gamma.
const gamma = 0x9e3779b97f4a7c15

func newStream(seed, idx uint64) stream {
	// Pre-mix the key so consecutive indices land far apart.
	return stream{s: (seed ^ 0x6a09e667f3bcc909) + idx*gamma}
}

func (st *stream) next() uint64 {
	st.s += gamma
	z := st.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (st *stream) intn(n int) int { return int(st.next() % uint64(n)) }

func (st *stream) float() float64 { return float64(st.next()>>11) / (1 << 53) }

// nonzeroByte draws a uniformly random byte in [1, 255].
func (st *stream) nonzeroByte() byte { return byte(st.next()%255) + 1 }

// rankApplies reports whether a per-rank fault entry covers this burst.
func rankApplies(entryRank int, cmd dram.Command) bool {
	return entryRank < 0 || entryRank == cmd.Rank || cmd.GangRanks
}

// mapCovers reports whether any persistent fault-map entry covers the
// burst.
func (in *Injector) mapCovers(cmd dram.Command) bool {
	for _, f := range in.cfg.DeadChips {
		if rankApplies(f.Rank, cmd) {
			return true
		}
	}
	for _, f := range in.cfg.StuckDQs {
		if rankApplies(f.Rank, cmd) {
			return true
		}
	}
	return false
}

// transientFires reports whether burst idx draws a transient event when no
// map entry covers it. Such a burst's stream makes exactly in.synth
// synthesis draws before the transient draw, so the draw's state is reached
// by one multiply-add instead of synthesizing the codeword.
func (in *Injector) transientFires(idx uint64) bool {
	if in.cfg.Rate <= 0 {
		return false
	}
	st := newStream(in.cfg.Seed, idx)
	st.s += in.synth * gamma
	return st.float() < in.cfg.Rate
}

// DataBurst implements dram.BurstProbe: synthesize, corrupt, adjudicate.
// A burst no fault can touch returns BurstOK without synthesizing: nothing
// changes, so it would land in no class but Bursts anyway.
func (in *Injector) DataBurst(cmd dram.Command, at dram.Cycle) dram.BurstVerdict {
	idx := in.n
	in.n++
	in.Counters.Bursts++
	if !in.mapCovers(cmd) && !in.transientFires(idx) {
		return dram.BurstOK
	}
	st := newStream(in.cfg.Seed, idx)

	// The injector's one burst workspace: both branches overwrite every bit,
	// so no Reset is needed between bursts.
	b := in.burst
	if in.hasECC {
		for i := range in.payload {
			in.payload[i] = byte(st.next())
		}
		in.codec.EncodeInto(b, in.payload)
	} else {
		// No codec: the burst is raw data across the rank's chips.
		for ch := range b.Chips {
			for i := range b.Chips[ch] {
				b.Chips[ch][i] = byte(st.next())
			}
		}
	}
	copy(in.clean, b.Chips)

	touched := false
	// Persistent per-rank fault map.
	for _, f := range in.cfg.DeadChips {
		if rankApplies(f.Rank, cmd) {
			b.CorruptChip(((f.Chip%in.chips)+in.chips)%in.chips, st.nonzeroByte())
			touched = true
		}
	}
	for _, f := range in.cfg.StuckDQs {
		if rankApplies(f.Rank, cmd) {
			chip := ((f.Chip % in.chips) + in.chips) % in.chips
			dq := ((f.DQ % 4) + 4) % 4
			for beat := 0; beat < 8; beat++ {
				b.SetBit(chip, beat, dq, f.Value)
			}
			touched = true
		}
	}
	// At most one transient event per burst.
	if in.cfg.Rate > 0 && st.float() < in.cfg.Rate {
		touched = true
		bw, cw, rw := in.cfg.BitWeight, in.cfg.ChipWeight, in.cfg.CorrelatedWeight
		if bw == 0 && cw == 0 && rw == 0 {
			bw, cw, rw = 0.6, 0.2, 0.2
		}
		switch u := st.float() * (bw + cw + rw); {
		case u < bw:
			in.Counters.TransientBits++
			chip, beat, dq := st.intn(in.chips), st.intn(8), st.intn(4)
			b.SetBit(chip, beat, dq, b.Bit(chip, beat, dq)^1)
		case u < bw+cw:
			in.Counters.TransientChips++
			b.CorruptChip(st.intn(in.chips), st.nonzeroByte())
		default:
			// Correlated multi-bit burst confined to one chip: a contiguous
			// run of 2..8 bit positions within the chip's 32 burst bits
			// (the DRAMScope-style single-device multi-bit pattern).
			in.Counters.TransientCorrelated++
			chip := st.intn(in.chips)
			k := 2 + st.intn(7)
			start := st.intn(32 - k + 1)
			for i := start; i < start+k; i++ {
				beat, dq := i/4, i%4
				b.SetBit(chip, beat, dq, b.Bit(chip, beat, dq)^1)
			}
		}
	}

	// Ground truth: which chips actually changed.
	changed := 0
	for ch := range b.Chips {
		if b.Chips[ch] != in.clean[ch] {
			changed++
			in.Counters.PerChip[ch]++
		}
	}
	if changed == 0 {
		if touched {
			in.Counters.Transparent++
		}
		return dram.BurstOK
	}
	in.Counters.Injected++

	if !in.hasECC {
		// Nothing stands between the fault and the consumer.
		in.Counters.SilentCorruptions++
		return dram.BurstOK
	}

	corrected, err := in.codec.DecodeInto(in.decoded, b)
	switch {
	case err != nil:
		in.Counters.DUEs++
		return dram.BurstUncorrectable
	case equalBytes(in.decoded, in.payload):
		in.Counters.CorrectedBursts++
		in.Counters.CorrectedSymbols += uint64(corrected)
		return dram.BurstCorrected
	default:
		// The decoder accepted wrong data: a silent corruption, visible
		// only because we know the ground truth. The campaign asserts this
		// stays zero for every SAM layout.
		in.Counters.SilentCorruptions++
		return dram.BurstOK
	}
}

func equalBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Validate sanity-checks a configuration.
func (c Config) Validate() error {
	if c.Rate < 0 || c.Rate > 1 {
		return fmt.Errorf("fault: rate %v outside [0,1]", c.Rate)
	}
	if c.BitWeight < 0 || c.ChipWeight < 0 || c.CorrelatedWeight < 0 {
		return fmt.Errorf("fault: negative model weight")
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("fault: negative MaxRetries")
	}
	for _, f := range c.StuckDQs {
		if f.Value > 1 {
			return fmt.Errorf("fault: stuck DQ value %d, want 0 or 1", f.Value)
		}
	}
	return nil
}

// Active reports whether the configuration injects anything at all.
func (c Config) Active() bool {
	return c.Rate > 0 || len(c.DeadChips) > 0 || len(c.StuckDQs) > 0
}

package fault

import (
	"sam/internal/dram"
	"sam/internal/ecc"
)

// refInjector is the injector as it was before DataBurst learned to skip
// bursts no fault can touch, kept verbatim as a test-only oracle: every
// burst synthesizes, encodes and copies its codeword, applies the map and
// the transient draw, then compares against ground truth. Its verdicts and
// Counters define correctness for Injector; differential_test.go drives
// both on seeded command streams and requires identical results.
//
// Do not "improve" this type: its value is that it stays frozen.
type refInjector struct {
	cfg    Config
	codec  *ecc.Chipkill // nil on designs without ECC
	chips  int
	hasECC bool

	Counters Counters

	n       uint64
	payload []byte
	decoded []byte
	burst   *ecc.Burst
	clean   [][ecc.BytesPerChip]byte
}

func newRefInjector(cfg Config, scheme ecc.Scheme, hasECC bool) *refInjector {
	in := &refInjector{cfg: cfg, hasECC: hasECC}
	codec := ecc.NewChipkill(scheme)
	in.chips = codec.Chips()
	if hasECC {
		in.codec = codec
		in.payload = make([]byte, codec.DataBytes())
		in.decoded = make([]byte, codec.DataBytes())
	}
	in.burst = ecc.NewBurst(in.chips)
	in.clean = make([][ecc.BytesPerChip]byte, in.chips)
	in.Counters.PerChip = make([]uint64, in.chips)
	return in
}

func (in *refInjector) Reset(cfg Config) {
	in.cfg = cfg
	in.n = 0
	per := in.Counters.PerChip
	for i := range per {
		per[i] = 0
	}
	in.Counters = Counters{PerChip: per}
}

type refStream struct{ s uint64 }

func newRefStream(seed, idx uint64) refStream {
	return refStream{s: (seed ^ 0x6a09e667f3bcc909) + idx*0x9e3779b97f4a7c15}
}

func (st *refStream) next() uint64 {
	st.s += 0x9e3779b97f4a7c15
	z := st.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (st *refStream) intn(n int) int { return int(st.next() % uint64(n)) }

func (st *refStream) float() float64 { return float64(st.next()>>11) / (1 << 53) }

func (st *refStream) nonzeroByte() byte { return byte(st.next()%255) + 1 }

func refRankApplies(entryRank int, cmd dram.Command) bool {
	return entryRank < 0 || entryRank == cmd.Rank || cmd.GangRanks
}

func (in *refInjector) DataBurst(cmd dram.Command, at dram.Cycle) dram.BurstVerdict {
	idx := in.n
	in.n++
	in.Counters.Bursts++
	st := newRefStream(in.cfg.Seed, idx)

	b := in.burst
	if in.hasECC {
		for i := range in.payload {
			in.payload[i] = byte(st.next())
		}
		in.codec.EncodeInto(b, in.payload)
	} else {
		for ch := range b.Chips {
			for i := range b.Chips[ch] {
				b.Chips[ch][i] = byte(st.next())
			}
		}
	}
	copy(in.clean, b.Chips)

	touched := false
	for _, f := range in.cfg.DeadChips {
		if refRankApplies(f.Rank, cmd) {
			b.CorruptChip(((f.Chip%in.chips)+in.chips)%in.chips, st.nonzeroByte())
			touched = true
		}
	}
	for _, f := range in.cfg.StuckDQs {
		if refRankApplies(f.Rank, cmd) {
			chip := ((f.Chip % in.chips) + in.chips) % in.chips
			dq := ((f.DQ % 4) + 4) % 4
			for beat := 0; beat < 8; beat++ {
				b.SetBit(chip, beat, dq, f.Value)
			}
			touched = true
		}
	}
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
		in.Counters.SilentCorruptions++
		return dram.BurstOK
	}

	corrected, err := in.codec.DecodeInto(in.decoded, b)
	switch {
	case err != nil:
		in.Counters.DUEs++
		return dram.BurstUncorrectable
	case refEqualBytes(in.decoded, in.payload):
		in.Counters.CorrectedBursts++
		in.Counters.CorrectedSymbols += uint64(corrected)
		return dram.BurstCorrected
	default:
		in.Counters.SilentCorruptions++
		return dram.BurstOK
	}
}

func refEqualBytes(a, b []byte) bool {
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

package fault

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sam/internal/dram"
	"sam/internal/ecc"
)

// TestInjectorDifferential drives the injector and the frozen full-path
// reference with identical seeded command streams over every scheme, a
// range of transient rates, with and without ECC, and fault maps that
// cover every burst, some bursts, or none. Each burst's verdict and the
// full Counters must agree after every burst, including across a Reset.
func TestInjectorDifferential(t *testing.T) {
	rd := func(rank int) dram.Command { return dram.Command{Kind: dram.CmdRD, Rank: rank} }
	maps := []struct {
		name string
		cfg  Config
		cmd  func(rng *rand.Rand) dram.Command
	}{
		{"no-map", Config{}, func(rng *rand.Rand) dram.Command { return rd(rng.Intn(2)) }},
		{"dead-chip", Config{DeadChips: []ChipFault{{Rank: 0, Chip: 5}}},
			func(rng *rand.Rand) dram.Command { return rd(rng.Intn(2)) }},
		{"stuck-dq", Config{StuckDQs: []StuckDQ{{Rank: -1, Chip: -3, DQ: 6, Value: 1}}},
			func(rng *rand.Rand) dram.Command { return rd(rng.Intn(2)) }},
		{"other-rank", Config{DeadChips: []ChipFault{{Rank: 1, Chip: 2}}, StuckDQs: []StuckDQ{{Rank: 1, Chip: 7, DQ: 1}}},
			func(rng *rand.Rand) dram.Command { return rd(0) }},
		{"gang", Config{DeadChips: []ChipFault{{Rank: 1, Chip: 9}}},
			func(rng *rand.Rand) dram.Command {
				c := rd(0)
				c.GangRanks = rng.Intn(4) == 0
				return c
			}},
	}
	schemes := []ecc.Scheme{ecc.SchemeSSC, ecc.SchemeSSCVariant, ecc.SchemeSSCDSD}
	for _, scheme := range schemes {
		for _, hasECC := range []bool{true, false} {
			for _, rate := range []float64{0, 1e-3, 0.3, 1} {
				for mi, m := range maps {
					name := fmt.Sprintf("%v/ecc=%v/rate=%v/%s", scheme, hasECC, rate, m.name)
					t.Run(name, func(t *testing.T) {
						cfg := m.cfg
						cfg.Seed = uint64(1000*mi) + uint64(scheme)
						cfg.Rate = rate
						injectorDifferential(t, cfg, scheme, hasECC, m.cmd, int64(mi)+int64(rate*1e4))
					})
				}
			}
		}
	}
}

func injectorDifferential(t *testing.T, cfg Config, scheme ecc.Scheme, hasECC bool, cmd func(*rand.Rand) dram.Command, seed int64) {
	const bursts = 1500
	got, want := New(cfg, scheme, hasECC), newRefInjector(cfg, scheme, hasECC)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 2*bursts; i++ {
		if i == bursts {
			// A warm injector rewound for the next run must replay like a
			// fresh one.
			cfg.Seed++
			got.Reset(cfg)
			want.Reset(cfg)
		}
		c := cmd(rng)
		if rng.Intn(3) == 0 {
			c.Kind = dram.CmdWR
		}
		if g, w := got.DataBurst(c, dram.Cycle(i)), want.DataBurst(c, dram.Cycle(i)); g != w {
			t.Fatalf("burst %d %+v: verdict %v, reference %v", i, c, g, w)
		}
		if !reflect.DeepEqual(got.Counters, want.Counters) {
			t.Fatalf("burst %d %+v: counters\n%+v\nreference\n%+v", i, c, got.Counters, want.Counters)
		}
	}
	if cfg.Rate == 1 && want.Counters.Injected == 0 {
		t.Fatalf("rate 1 injected nothing: %+v", want.Counters)
	}
}

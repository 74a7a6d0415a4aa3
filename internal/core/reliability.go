package core

import (
	"context"
	"fmt"

	"sam/internal/design"
	"sam/internal/ecc"
	"sam/internal/fault"
	"sam/internal/runner"
	"sam/internal/sim"
)

// This file is the Monte-Carlo reliability campaign: a grid of timing runs
// with fault injection at the DRAM burst boundary, covering every chipkill
// scheme the paper evaluates (SSC, SAM-IO's transposed SSC variant, and the
// ganged SSC-DSD geometry) under transient and persistent fault models. Its
// headline assertion is the paper's: the SAM layouts keep full chipkill, so
// a campaign over {baseline, SAM-IO, SAM-en} ends with zero silent data
// corruptions — every injected fault is either corrected or detected (and
// then retried/poisoned by the controller).
//
// Fault-model scoping is deliberate, not timid: a distance-3 SSC code
// cannot *guarantee* detection of two simultaneously faulty chips (about 7%
// of two-chip patterns miscorrect consistently — an information-theoretic
// limit, demonstrated by FuzzChipkillDecode in internal/ecc). The campaign
// therefore confines multi-chip persistent maps to the SSC-DSD (distance-5)
// cells, whose detect-or-correct guarantee covers them, and exposes SSC
// cells to the single-chip models chipkill is specified for.

// Fault-model names for ReliabilityCell.Model.
const (
	// ModelTransient draws seed-driven transients (bit flips, chip-wide
	// garbage, correlated runs — each confined to one chip) at Rate per
	// burst.
	ModelTransient = "transient"
	// ModelDeadChip kills one chip on every rank for the whole run.
	ModelDeadChip = "dead-chip"
	// ModelTwoChip combines a dead chip with a stuck DQ on a second chip —
	// beyond correction for every scheme, detectable only at distance 5, so
	// it runs on SSC-DSD cells alone and drives the DUE -> retry -> poison
	// path.
	ModelTwoChip = "two-chip"
)

// ReliabilityCell is one campaign grid point.
type ReliabilityCell struct {
	Design design.Kind
	Gran   design.Granularity
	Model  string
	// Rate is the per-burst transient probability (ModelTransient only).
	Rate float64
}

// Scheme returns the burst-boundary codeword layout this cell decodes
// against (the design's orientation of its granularity's scheme).
func (c ReliabilityCell) Scheme() ecc.Scheme {
	return design.New(c.Design, design.Options{Gran: c.Gran}).BurstScheme()
}

// Label names the cell for reports.
func (c ReliabilityCell) Label() string {
	if c.Model == ModelTransient {
		return fmt.Sprintf("%v/%dbit/%s@%g", c.Design, c.Gran.BitsPerChip, c.Model, c.Rate)
	}
	return fmt.Sprintf("%v/%dbit/%s", c.Design, c.Gran.BitsPerChip, c.Model)
}

// ReliabilityCampaign configures the grid.
type ReliabilityCampaign struct {
	// Seed drives every cell's fault stream; cell seeds derive from it, so
	// one campaign seed replays the whole grid bit-identically.
	Seed uint64
	// Rates are the ModelTransient per-burst probabilities to sweep.
	Rates []float64
	// Designs and Grans span the grid. Granularity selects the scheme
	// (16/8-bit symbols -> SSC, 4-bit -> SSC-DSD).
	Designs []design.Kind
	Grans   []design.Granularity
	// Query and Workload shape the traffic every cell runs.
	Query    BenchQuery
	Workload Workload
	// MaxRetries is the controller's read-retry budget before poisoning.
	MaxRetries int
}

// DefaultReliabilityCampaign is the full grid behind `samfig -exp
// reliability`: three designs x three granularities x {two transient rates,
// a dead chip, and (SSC-DSD only) the two-chip map}.
func DefaultReliabilityCampaign() ReliabilityCampaign {
	return ReliabilityCampaign{
		Seed:       0x5EED0F4A17,
		Rates:      []float64{1e-3, 1e-2},
		Designs:    []design.Kind{design.Baseline, design.SAMIO, design.SAMEn},
		Grans:      []design.Granularity{design.Gran16, design.Gran8, design.Gran4},
		Query:      Benchmark()[2], // Q3: a strided read scan with a 25% predicate
		Workload:   SmallWorkload(),
		MaxRetries: 3,
	}
}

// Cells enumerates the grid in deterministic order.
func (c ReliabilityCampaign) Cells() []ReliabilityCell {
	var cells []ReliabilityCell
	for _, k := range c.Designs {
		for _, g := range c.Grans {
			for _, r := range c.Rates {
				cells = append(cells, ReliabilityCell{Design: k, Gran: g, Model: ModelTransient, Rate: r})
			}
			cells = append(cells, ReliabilityCell{Design: k, Gran: g, Model: ModelDeadChip})
			if g.BitsPerChip == 4 {
				cells = append(cells, ReliabilityCell{Design: k, Gran: g, Model: ModelTwoChip})
			}
		}
	}
	return cells
}

// mix64 is the splitmix64 finalizer, used to derive independent per-cell
// seeds from the campaign seed.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// faultsFor builds cell i's fault configuration. Fault sites (which chip
// dies, which DQ sticks) derive from the cell seed, so the campaign seed
// alone determines the whole grid.
func (c ReliabilityCampaign) faultsFor(cell ReliabilityCell, i int) *sim.FaultModel {
	seed := mix64(c.Seed ^ mix64(uint64(i)+1))
	cfg := &sim.FaultModel{Seed: seed, MaxRetries: c.MaxRetries}
	chips := ecc.NewChipkill(cell.Scheme()).Chips()
	switch cell.Model {
	case ModelTransient:
		cfg.Rate = cell.Rate
	case ModelDeadChip:
		cfg.DeadChips = []fault.ChipFault{{Rank: -1, Chip: int(seed>>8) % chips}}
	case ModelTwoChip:
		dead := int(seed>>8) % chips
		stuck := (dead + 1 + int(seed>>16)%(chips-1)) % chips
		cfg.DeadChips = []fault.ChipFault{{Rank: -1, Chip: dead}}
		cfg.StuckDQs = []fault.StuckDQ{{
			Rank: -1, Chip: stuck, DQ: int(seed>>24) % 4, Value: byte(seed>>28) & 1,
		}}
	default:
		panic(fmt.Sprintf("core: unknown fault model %q", cell.Model))
	}
	return cfg
}

// ReliabilityResult is one cell's outcome, JSON-shaped for the samfig sweep
// and the CI campaign summary.
type ReliabilityResult struct {
	Design string  `json:"design"`
	Bits   int     `json:"bits_per_chip"`
	Scheme string  `json:"scheme"`
	Model  string  `json:"model"`
	Rate   float64 `json:"rate"`

	Counters fault.Counters `json:"counters"`
	Retries  uint64         `json:"retries"`
	Poisoned uint64         `json:"poisoned"`
	Cycles   int64          `json:"cycles"`
}

// spec is cell i's run. Every campaign design is a row store, so the
// Ideal column-store rule never applies.
func (c ReliabilityCampaign) spec(cell ReliabilityCell, i int) RunSpec {
	return RunSpec{
		Design:   cell.Design,
		Options:  design.Options{Gran: cell.Gran},
		Workload: c.Workload,
		Query:    c.Query,
		Faults:   c.faultsFor(cell, i),
	}
}

// RunReliability executes the campaign on the worker pool. Results arrive
// in cell order and are bit-identical for any worker count: each cell owns
// a fresh system and a seed derived only from (campaign seed, cell index).
func RunReliability(ctx context.Context, camp ReliabilityCampaign, par Par) ([]ReliabilityResult, error) {
	cells := camp.Cells()
	return runner.Map(ctx, cells, par.opts(), func(ctx context.Context, i int, cell ReliabilityCell) (ReliabilityResult, error) {
		r, _, err := par.Memo.Run(ctx, camp.spec(cell, i))
		if err != nil {
			return ReliabilityResult{}, fmt.Errorf("%s: %w", cell.Label(), err)
		}
		rel := r.Stats.Reliability
		if rel == nil {
			return ReliabilityResult{}, fmt.Errorf("%s: run carried no reliability block", cell.Label())
		}
		return ReliabilityResult{
			Design:   cell.Design.String(),
			Bits:     cell.Gran.BitsPerChip,
			Scheme:   cell.Scheme().String(),
			Model:    cell.Model,
			Rate:     cell.Rate,
			Counters: *rel,
			Retries:  r.Stats.Controller.Retries,
			Poisoned: r.Stats.Controller.Poisoned,
			Cycles:   int64(r.Stats.Cycles),
		}, nil
	})
}

// ReliabilitySummary is the campaign's JSON summary, the payload of
// samfig -reliability-out and of a samd reliability job.
type ReliabilitySummary struct {
	Seed     uint64              `json:"seed"`
	TotalSDC uint64              `json:"total_sdc"`
	Cells    []ReliabilityResult `json:"cells"`
}

// Summary wraps the campaign's results with its seed and SDC total.
func (c ReliabilityCampaign) Summary(results []ReliabilityResult) ReliabilitySummary {
	return ReliabilitySummary{Seed: c.Seed, TotalSDC: TotalSDC(results), Cells: results}
}

// TotalSDC sums silent corruptions across the campaign — the zero-SDC
// assertion's left-hand side.
func TotalSDC(results []ReliabilityResult) uint64 {
	var n uint64
	for _, r := range results {
		n += r.Counters.SilentCorruptions
	}
	return n
}

// Package serve is the simulation-as-a-service layer behind cmd/samd: a
// long-running HTTP/JSON daemon that accepts simulation, sweep, and
// reliability-campaign job submissions from many concurrent clients and
// multiplexes them onto one bounded worker pool with per-tenant quotas,
// priority classes, and content-addressed dedup — identical design ×
// config × seed submitted by different tenants runs once (memo.Fingerprint
// keys + the in-flight dedup inside internal/memo). There is one cache tier,
// the run memo (core.Memo): a repeated bench submission is served from it
// at admission without occupying a queue slot, and a repeated figure,
// sweep or reliability job rebuilds its payload from cell hits.
//
// The package splits into four layers:
//
//   - api.go: the wire types and their strict decoding — malformed or
//     hostile submissions (unknown fields, NaN/Inf rates, negative seeds,
//     oversized sweep grids) are 4xx rejections, never panics and never
//     accepted-but-wrong jobs (FuzzSubmitRequest pins this).
//   - sched.go: the session-scoped scheduler — per-tenant admission
//     quotas, high/normal/low priority classes with a clock-bounded
//     anti-starvation promotion, follower attachment for deduplicated
//     jobs, and graceful/forced drain.
//   - exec.go: the bridge onto internal/core — each accepted job becomes
//     a deterministic run closure over the shared memo cache, so results
//     are byte-identical to the batch CLIs for any client count, worker
//     count, and arrival order.
//   - server.go: the Daemon — HTTP handlers, the internal/obs telemetry
//     plane (job spans feed /metrics, /progress, /healthz and the JSONL
//     event log), and the SIGTERM drain sequence.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"sam/internal/core"
	"sam/internal/design"
	"sam/internal/mc"
	"sam/internal/memo"
	"sam/internal/sim"
)

// Admission limits. Every bound is enforced at parse time so a hostile
// client cannot smuggle an unbounded amount of work past the scheduler.
const (
	// MaxBodyBytes bounds one submission body.
	MaxBodyBytes = 1 << 20
	// MaxTableRecords bounds the Ta/Tb/sweep table sizes.
	MaxTableRecords = 1 << 22
	// MaxSweepGrid bounds a sweep job's selectivity × projectivity grid.
	MaxSweepGrid = 256
	// MaxSweepAxis bounds each sweep axis on its own.
	MaxSweepAxis = 64
	// MaxRates bounds a reliability job's transient-rate sweep.
	MaxRates = 8
	// MaxRetries bounds the fault read-retry budget a job may request.
	MaxRetries = 16
	// MaxTenantLen bounds the tenant identifier.
	MaxTenantLen = 64
)

// Job kinds.
const (
	KindBench       = "bench"
	KindFigure      = "figure"
	KindSweep       = "sweep"
	KindReliability = "reliability"
)

// Priority classes, strongest first. The scheduler dispatches strictly by
// class, except that a job queued longer than the configured bound is
// promoted regardless of class (no class can starve another forever).
const (
	PriorityHigh   = "high"
	PriorityNormal = "normal"
	PriorityLow    = "low"
)

// RequestError marks a submission defect the client can fix — the
// handlers map it to 400 Bad Request.
type RequestError struct{ msg string }

func (e *RequestError) Error() string { return e.msg }

// badf builds a RequestError.
func badf(format string, args ...any) error {
	return &RequestError{msg: fmt.Sprintf(format, args...)}
}

// SubmitRequest is the POST /jobs body. Kind selects exactly one of the
// payload sections; the others must be absent.
type SubmitRequest struct {
	// Kind: "bench", "figure", "sweep", or "reliability".
	Kind string `json:"kind"`
	// Tenant is the submitting tenant's identifier (required; quota
	// accounting and job listing key on it).
	Tenant string `json:"tenant"`
	// Priority: "high", "normal" (default), or "low".
	Priority string `json:"priority,omitempty"`

	// Workload overrides the Ta/Tb database scale for bench and figure
	// jobs (nil = the default workload).
	Workload *WorkloadReq `json:"workload,omitempty"`

	Bench       *BenchReq       `json:"bench,omitempty"`
	Figure      *FigureReq      `json:"figure,omitempty"`
	Sweep       *SweepReq       `json:"sweep,omitempty"`
	Reliability *ReliabilityReq `json:"reliability,omitempty"`
}

// WorkloadReq selects the benchmark database scale.
type WorkloadReq struct {
	// Small selects the test-scale workload as the base (before Ta/Tb
	// overrides), like samfig -small.
	Small bool `json:"small,omitempty"`
	// Ta/Tb override the record counts (0 = keep the base).
	Ta int `json:"ta,omitempty"`
	Tb int `json:"tb,omitempty"`
	// Seed overrides the table-generation seed.
	Seed *uint64 `json:"seed,omitempty"`
}

// BenchReq runs one Table 3 benchmark query on one design.
type BenchReq struct {
	// Design is the design name exactly as the figures print it
	// ("baseline", "SAM-en", "GS-DRAM-ecc", ...).
	Design string `json:"design"`
	// Query is the Table 3 query name (Q1..Q12, Qs1..Qs6).
	Query string `json:"query"`
	// Gran selects the strided granularity in bits per chip: 0 (design
	// default), 4, 8, or 16.
	Gran int `json:"gran,omitempty"`
	// FaultRate attaches the transient fault model at this per-burst
	// probability (0 = fault-free). Must be a finite value in [0,1].
	FaultRate float64 `json:"fault_rate,omitempty"`
	// FaultSeed seeds the fault stream (0 = the workload seed).
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// FaultRetries bounds read retries before poisoning (nil = controller
	// default; 0 = poison on first DUE).
	FaultRetries *int `json:"fault_retries,omitempty"`
}

// FigureReq regenerates one of the paper's figure tables.
type FigureReq struct {
	// ID: "fig12", "fig14a", or "fig14b".
	ID string `json:"id"`
}

// SweepReq runs a Fig. 15-style selectivity × projectivity grid and
// returns per-point speedups.
type SweepReq struct {
	// Query: "arith" or "aggr".
	Query string `json:"query"`
	// Selectivities are the fractions selected, each finite in (0, 1].
	Selectivities []float64 `json:"selectivities"`
	// Projectivities are the projected field counts, each in [1, 127].
	Projectivities []int `json:"projectivities"`
	// Records sets the generated table size (0 = 2048).
	Records int `json:"records,omitempty"`
	// RecordBytes sets the record size (0 = 1KB): one of the sizes the
	// layouts place, core.Fig15RecordSizes (a power of two from 8B to 1KB).
	RecordBytes int `json:"record_bytes,omitempty"`
}

// ReliabilityReq runs the Monte-Carlo fault campaign.
type ReliabilityReq struct {
	// Seed drives the whole campaign (0 = the default campaign seed).
	Seed uint64 `json:"seed,omitempty"`
	// Rates overrides the transient-rate sweep (each finite in (0, 1]).
	Rates []float64 `json:"rates,omitempty"`
	// MaxRetries overrides the retry budget (nil = campaign default).
	MaxRetries *int `json:"max_retries,omitempty"`
}

// ParseSubmit strictly decodes one submission: unknown fields, trailing
// garbage, bodies past MaxBodyBytes, and every semantic defect Validate
// catches are RequestErrors. It never panics on any input (the
// FuzzSubmitRequest contract).
func ParseSubmit(r io.Reader) (*SubmitRequest, error) {
	dec := json.NewDecoder(io.LimitReader(r, MaxBodyBytes+1))
	dec.DisallowUnknownFields()
	req := &SubmitRequest{}
	if err := dec.Decode(req); err != nil {
		return nil, badf("malformed submission: %v", err)
	}
	// One complete JSON value and nothing else — mirror trace.parseLine's
	// rejection of trailing garbage.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return nil, badf("trailing data after submission object")
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return req, nil
}

// Validate checks every semantic invariant of the submission.
func (r *SubmitRequest) Validate() error {
	if r.Tenant == "" {
		return badf("tenant is required")
	}
	if len(r.Tenant) > MaxTenantLen {
		return badf("tenant name exceeds %d bytes", MaxTenantLen)
	}
	for _, c := range r.Tenant {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_' || c == '.') {
			return badf("tenant name contains %q (allowed: letters, digits, '-', '_', '.')", c)
		}
	}
	switch r.Priority {
	case "", PriorityHigh, PriorityNormal, PriorityLow:
	default:
		return badf("unknown priority %q (high, normal, low)", r.Priority)
	}
	if r.Workload != nil {
		if err := r.Workload.validate(); err != nil {
			return err
		}
	}
	payloads := 0
	for _, p := range []bool{r.Bench != nil, r.Figure != nil, r.Sweep != nil, r.Reliability != nil} {
		if p {
			payloads++
		}
	}
	if payloads > 1 {
		return badf("exactly one job payload may be set")
	}
	switch r.Kind {
	case KindBench:
		if r.Bench == nil {
			return badf("kind %q requires the bench payload", r.Kind)
		}
		return r.Bench.validate()
	case KindFigure:
		if r.Figure == nil {
			return badf("kind %q requires the figure payload", r.Kind)
		}
		return r.Figure.validate()
	case KindSweep:
		if r.Sweep == nil {
			return badf("kind %q requires the sweep payload", r.Kind)
		}
		if r.Workload != nil {
			return badf("sweep jobs generate their own table; workload must be absent")
		}
		return r.Sweep.validate()
	case KindReliability:
		if r.Reliability == nil {
			return badf("kind %q requires the reliability payload", r.Kind)
		}
		if r.Workload != nil {
			return badf("reliability jobs use the campaign workload; workload must be absent")
		}
		return r.Reliability.validate()
	case "":
		return badf("kind is required (bench, figure, sweep, reliability)")
	default:
		return badf("unknown kind %q (bench, figure, sweep, reliability)", r.Kind)
	}
}

func (w *WorkloadReq) validate() error {
	if w.Ta < 0 || w.Tb < 0 {
		return badf("workload record counts must be non-negative")
	}
	if w.Ta > MaxTableRecords || w.Tb > MaxTableRecords {
		return badf("workload record counts exceed %d", MaxTableRecords)
	}
	return nil
}

func (b *BenchReq) validate() error {
	if _, ok := core.KindByName(b.Design); !ok {
		return badf("unknown design %q", b.Design)
	}
	if _, ok := core.BenchQueryByName(b.Query); !ok {
		return badf("unknown benchmark query %q (Q1..Q12, Qs1..Qs6)", b.Query)
	}
	switch b.Gran {
	case 0, 4, 8, 16:
	default:
		return badf("granularity %d bits/chip unsupported (0, 4, 8, 16)", b.Gran)
	}
	if math.IsNaN(b.FaultRate) || math.IsInf(b.FaultRate, 0) {
		return badf("fault rate must be finite")
	}
	if b.FaultRate < 0 || b.FaultRate > 1 {
		return badf("fault rate %g outside [0,1]", b.FaultRate)
	}
	if b.FaultRetries != nil && (*b.FaultRetries < 0 || *b.FaultRetries > MaxRetries) {
		return badf("fault retries %d outside [0,%d]", *b.FaultRetries, MaxRetries)
	}
	return nil
}

// FigureIDs lists the figure tables a figure job can regenerate.
func FigureIDs() []string { return []string{"fig12", "fig14a", "fig14b"} }

func (f *FigureReq) validate() error {
	for _, id := range FigureIDs() {
		if f.ID == id {
			return nil
		}
	}
	return badf("unknown figure %q (fig12, fig14a, fig14b)", f.ID)
}

func (s *SweepReq) validate() error {
	switch s.Query {
	case "arith", "aggr":
	default:
		return badf("unknown sweep query %q (arith, aggr)", s.Query)
	}
	if len(s.Selectivities) == 0 || len(s.Projectivities) == 0 {
		return badf("sweep requires at least one selectivity and one projectivity")
	}
	if len(s.Selectivities) > MaxSweepAxis || len(s.Projectivities) > MaxSweepAxis {
		return badf("sweep axis exceeds %d points", MaxSweepAxis)
	}
	if grid := len(s.Selectivities) * len(s.Projectivities); grid > MaxSweepGrid {
		return badf("sweep grid of %d cells exceeds %d", grid, MaxSweepGrid)
	}
	for _, sel := range s.Selectivities {
		if math.IsNaN(sel) || math.IsInf(sel, 0) || sel <= 0 || sel > 1 {
			return badf("selectivity %g outside (0,1]", sel)
		}
	}
	for _, p := range s.Projectivities {
		if p < 1 || p > 127 {
			return badf("projectivity %d outside [1,127]", p)
		}
	}
	if s.Records < 0 || s.Records > MaxTableRecords {
		return badf("sweep records %d outside [0,%d]", s.Records, MaxTableRecords)
	}
	if sizes := core.Fig15RecordSizes(); s.RecordBytes != 0 && !slices.Contains(sizes, s.RecordBytes) {
		return badf("record size %dB not one of %v", s.RecordBytes, sizes)
	}
	return nil
}

func (r *ReliabilityReq) validate() error {
	if len(r.Rates) > MaxRates {
		return badf("reliability rate sweep exceeds %d rates", MaxRates)
	}
	for _, rate := range r.Rates {
		if math.IsNaN(rate) || math.IsInf(rate, 0) || rate <= 0 || rate > 1 {
			return badf("fault rate %g outside (0,1]", rate)
		}
	}
	if r.MaxRetries != nil && (*r.MaxRetries < 0 || *r.MaxRetries > MaxRetries) {
		return badf("max retries %d outside [0,%d]", *r.MaxRetries, MaxRetries)
	}
	return nil
}

// workload resolves the effective database scale for bench/figure jobs:
// base (default or small) with per-field overrides, like samfig's flags.
func (r *SubmitRequest) workload() core.Workload {
	w := core.DefaultWorkload()
	if r.Workload == nil {
		return w
	}
	if r.Workload.Small {
		w = core.SmallWorkload()
	}
	if r.Workload.Ta > 0 {
		w.TaRecords = r.Workload.Ta
	}
	if r.Workload.Tb > 0 {
		w.TbRecords = r.Workload.Tb
	}
	if r.Workload.Seed != nil {
		w.Seed = *r.Workload.Seed
	}
	return w
}

// granOptions maps the wire granularity to design options.
func granOptions(bits int) design.Options {
	switch bits {
	case 4:
		return design.Options{Gran: design.Gran4}
	case 8:
		return design.Options{Gran: design.Gran8}
	case 16:
		return design.Options{Gran: design.Gran16}
	default:
		return design.Options{}
	}
}

// benchSpec resolves a validated bench submission into its run. A zero
// fault rate runs fault-free, whatever the other fault fields say.
func (r *SubmitRequest) benchSpec() core.RunSpec {
	b := r.Bench
	kind, _ := core.KindByName(b.Design)
	q, _ := core.BenchQueryByName(b.Query)
	spec := core.RunSpec{Design: kind, Options: granOptions(b.Gran), Workload: r.workload(), Query: q}
	if b.FaultRate > 0 {
		spec.Faults = &sim.FaultModel{Rate: b.FaultRate, Seed: b.FaultSeed, MaxRetries: mc.DefaultConfig().MaxRetries}
		if spec.Faults.Seed == 0 {
			spec.Faults.Seed = spec.Workload.Seed
		}
		if b.FaultRetries != nil {
			spec.Faults.MaxRetries = *b.FaultRetries
		}
	}
	return spec
}

// Key is the submission's content address: a memo.Fingerprint over every
// field that determines the job's result — and nothing else. Tenant and
// priority are scheduling metadata, so identical work submitted by
// different tenants at different priorities shares one key (and therefore
// one execution). Workload resolution happens before hashing, so
// {"small":true} collides with the equivalent explicit record counts. A
// bench job's key is its run's memo key, so submissions that resolve to
// one run (a design's default granularity spelled out, a fault seed at
// rate 0) share one execution.
func (r *SubmitRequest) Key() string {
	if r.Kind == KindBench {
		return r.benchSpec().Key()
	}
	f := memo.NewFingerprint("samd")
	f.Str("kind", r.Kind)
	switch r.Kind {
	case KindFigure:
		w := r.workload()
		f.Str("figure", r.Figure.ID).
			I64("ta", int64(w.TaRecords)).
			I64("tb", int64(w.TbRecords)).
			U64("seed", w.Seed)
	case KindSweep:
		f.Str("query", r.Sweep.Query).
			I64("records", int64(r.Sweep.Records)).
			I64("recordBytes", int64(r.Sweep.RecordBytes)).
			I64("sels", int64(len(r.Sweep.Selectivities)))
		for _, s := range r.Sweep.Selectivities {
			f.F64("sel", s)
		}
		f.I64("projs", int64(len(r.Sweep.Projectivities)))
		for _, p := range r.Sweep.Projectivities {
			f.I64("proj", int64(p))
		}
	case KindReliability:
		f.U64("seed", r.Reliability.Seed).
			I64("rates", int64(len(r.Reliability.Rates)))
		for _, rate := range r.Reliability.Rates {
			f.F64("rate", rate)
		}
		retries := -1
		if r.Reliability.MaxRetries != nil {
			retries = *r.Reliability.MaxRetries
		}
		f.I64("retries", int64(retries))
	}
	return f.Sum()
}

package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"sam/internal/core"
	"sam/internal/memo"
	"sam/internal/obs"
	"sam/internal/runner"
)

// executor turns accepted jobs into deterministic runs over the run memo
// (core.Memo). It caches each simulation under its canonical fingerprint,
// in the batch CLIs' keyspace, so a daemon that reuses a samfig -cache-dir
// starts warm. A job's payload is rebuilt from its runs every time: a
// bench job encodes its one run, and a figure, sweep or reliability job
// renders its table from its cells, which are memo hits on a repeat.
//
// Determinism contract: every payload byte is derived from sweeps that
// are worker-count-invariant (runner.Map/Grid ordered results) and from
// codecs that are map-order-stable (sim.EncodeResult, sorted sweep keys),
// so N concurrent clients observe byte-identical results for identical
// submissions regardless of arrival order, dedup, and cache state — the
// differential the concurrent-client test pins against the CLIs.
type executor struct {
	runMemo *core.Memo
	// innerWorkers sizes the worker pool of one figure/sweep/reliability
	// job's internal sweep.
	innerWorkers int
	// tracker observes inner sweeps under "samd:<label>" scopes (memo
	// attribution per simulation run, inner-job histograms).
	tracker *obs.Tracker
}

func newExecutor(runMemo *core.Memo, innerWorkers int, tracker *obs.Tracker) *executor {
	if innerWorkers < 1 {
		innerWorkers = 1
	}
	return &executor{runMemo: runMemo, innerWorkers: innerWorkers, tracker: tracker}
}

// lookup serves a bench job at admission when its run is already in the
// run memo, attributed to the tier that held it. Figure, sweep and
// reliability jobs always go to a worker. lookup may read the disk tier,
// so the scheduler calls it outside its lock.
func (e *executor) lookup(req *SubmitRequest) (jobResult, string, bool) {
	if req.Kind != KindBench {
		return jobResult{}, "", false
	}
	r, out, ok := e.runMemo.Lookup(req.benchSpec())
	return jobResult{ContentType: "application/json", Run: r}, out.String(), ok
}

// run executes one leader job. The returned memo string attributes it: a
// bench job reports its run's cache outcome, and a compound job reports
// "hit" when none of its cells simulated and "miss" otherwise.
func (e *executor) run(ctx context.Context, j *job) (jobResult, string, error) {
	req := j.req
	if req.Kind == KindBench {
		r, out, err := e.runMemo.Run(ctx, req.benchSpec())
		if err != nil {
			return jobResult{}, "", err
		}
		return jobResult{ContentType: "application/json", Run: r}, out.String(), nil
	}
	label := req.Kind
	if req.Kind == KindFigure {
		label = req.Figure.ID
	}
	watch := &missWatch{SweepObserver: e.tracker.Hooks("samd:" + label)}
	par := core.Par{Workers: e.innerWorkers, Memo: e.runMemo, Observer: watch}
	var res jobResult
	var err error
	switch req.Kind {
	case KindFigure:
		res, err = computeFigure(ctx, req, par)
	case KindSweep:
		res, err = computeSweep(ctx, req, par)
	case KindReliability:
		res, err = computeReliability(ctx, req, par)
	default:
		err = fmt.Errorf("serve: unvalidated job kind %q", req.Kind)
	}
	if err != nil {
		return jobResult{}, "", err
	}
	if watch.missed.Load() {
		return res, memo.Miss.String(), nil
	}
	return res, memo.Hit.String(), nil
}

// missWatch forwards a compound job's inner sweeps to the tracker and
// notes whether any of their runs simulated, i.e. missed the run memo.
type missWatch struct {
	runner.SweepObserver
	missed atomic.Bool
}

func (m *missWatch) SweepStarted(total int) runner.SweepSpan {
	return missSpan{m.SweepObserver.SweepStarted(total), &m.missed}
}

// missSpan is one inner sweep's span under a missWatch.
type missSpan struct {
	runner.SweepSpan
	missed *atomic.Bool
}

func (s missSpan) JobAnnotate(i int, key, value string) {
	if key == "memo" && value == memo.Miss.String() {
		s.missed.Store(true)
	}
	s.SweepSpan.JobAnnotate(i, key, value)
}

// computeFigure renders the figure's table exactly as samfig prints it
// (minus the "== id ==" banner), so clients — and the CI smoke test —
// can byte-compare daemon output against the batch CLI.
func computeFigure(ctx context.Context, req *SubmitRequest, par core.Par) (jobResult, error) {
	w := req.workload()
	var fig *core.Figure
	var err error
	switch req.Figure.ID {
	case "fig12":
		fig, err = core.Fig12(ctx, w, par)
	case "fig14a":
		fig, err = core.Fig14a(ctx, w, par)
	case "fig14b":
		fig, err = core.Fig14b(ctx, w, par)
	default:
		err = fmt.Errorf("serve: unvalidated figure %q", req.Figure.ID)
	}
	if err != nil {
		return jobResult{}, err
	}
	return jobResult{
		ContentType: "text/plain; charset=utf-8",
		Body:        []byte(fig.Table().String()),
	}, nil
}

// sweepPointOut is one grid cell in a sweep job's JSON payload.
type sweepPointOut struct {
	Selectivity  float64            `json:"selectivity"`
	Projectivity int                `json:"projectivity"`
	Speedups     map[string]float64 `json:"speedups"`
}

func computeSweep(ctx context.Context, req *SubmitRequest, par core.Par) (jobResult, error) {
	kind := core.Arithmetic
	if req.Sweep.Query == "aggr" {
		kind = core.Aggregate
	}
	records := req.Sweep.Records
	if records == 0 {
		records = 2048
	}
	type cell struct {
		sel  float64
		proj int
	}
	var cells []cell
	for _, sel := range req.Sweep.Selectivities {
		for _, p := range req.Sweep.Projectivities {
			cells = append(cells, cell{sel, p})
		}
	}
	out := make([]sweepPointOut, len(cells))
	// Points run serially; each point's per-design runs fan out on the
	// inner pool (mirroring samfig's fig15 loop). The ctx check between
	// points is the forced-drain cancellation boundary.
	for i, c := range cells {
		if err := ctx.Err(); err != nil {
			return jobResult{}, err
		}
		p := core.SweepPoint{
			Query:       kind,
			Selectivity: c.sel,
			Projected:   c.proj,
			RecordBytes: req.Sweep.RecordBytes,
		}
		speedups, _, err := core.RunSweepPointStats(ctx, p, records, par)
		if err != nil {
			return jobResult{}, err
		}
		out[i] = sweepPointOut{Selectivity: c.sel, Projectivity: c.proj, Speedups: speedups}
	}
	body, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return jobResult{}, err
	}
	return jobResult{ContentType: "application/json", Body: body}, nil
}

func computeReliability(ctx context.Context, req *SubmitRequest, par core.Par) (jobResult, error) {
	camp := core.DefaultReliabilityCampaign()
	if req.Reliability.Seed != 0 {
		camp.Seed = req.Reliability.Seed
	}
	if len(req.Reliability.Rates) > 0 {
		camp.Rates = req.Reliability.Rates
	}
	if req.Reliability.MaxRetries != nil {
		camp.MaxRetries = *req.Reliability.MaxRetries
	}
	results, err := core.RunReliability(ctx, camp, par)
	if err != nil {
		return jobResult{}, err
	}
	body, err := json.MarshalIndent(camp.Summary(results), "", "  ")
	if err != nil {
		return jobResult{}, err
	}
	return jobResult{ContentType: "application/json", Body: body}, nil
}

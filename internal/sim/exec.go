package sim

import (
	"fmt"
	"slices"

	"sam/internal/sql"
)

// QueryResult is the functional output of a plan plus the run's statistics.
// Functional values come straight from the table contents (the design
// under test only changes *where* bytes live, never *what* they are), so
// results must be identical across designs — invariant 9.
type QueryResult struct {
	Rows        int       // records matched / returned / modified / inserted
	Aggregates  []float64 // one per AggSpec (global aggregates)
	Groups      map[uint64][]float64
	ArithChecks uint64 // xor-fold of arithmetic projection outputs
	ProjChecks  uint64 // xor-fold of projected values (order-insensitive)
	Stats       RunStats
}

// aggState accumulates one aggregate.
type aggState struct {
	sum   float64
	count int
	min   uint64
	max   uint64
	seen  bool
}

func (a *aggState) add(v uint64) {
	a.sum += float64(v)
	a.count++
	if !a.seen || v < a.min {
		a.min = v
	}
	if !a.seen || v > a.max {
		a.max = v
	}
	a.seen = true
}

func (a *aggState) value(kind string) float64 {
	switch kind {
	case "SUM":
		return a.sum
	case "AVG":
		if a.count == 0 {
			return 0
		}
		return a.sum / float64(a.count)
	case "COUNT":
		return float64(a.count)
	case "MIN":
		if !a.seen {
			return 0
		}
		return float64(a.min)
	case "MAX":
		if !a.seen {
			return 0
		}
		return float64(a.max)
	default:
		panic("sim: unknown aggregate " + kind)
	}
}

// InsertCount is how many rows a single INSERT plan is repeated for (the
// Qs5/Qs6 workloads insert a batch, like the LIMIT queries read one).
const InsertCount = 1024

// scanBatch is the vectorized execution batch: predicates and projections
// run column-at-a-time over this many records, the execution style of
// analytical engines (and what keeps SAM's I/O-mode switches rare, as
// Section 5.3 assumes).
const scanBatch = 256

// RunPlan executes a compiled plan on the system: its front end streams a
// MissLog, at s's own clock, into s's back end, chunk by chunk.
func (s *System) RunPlan(p *sql.Plan) (*QueryResult, error) {
	b := newBackEnd(s)
	l := s.streamLog(&b)
	r, err := s.runFrontEnd(p, l)
	if err != nil {
		return nil, err
	}
	l.flush()
	r.Stats = b.finishAt(l.ends[0])
	return r, nil
}

// streamLog starts a log of s's own clock that streams into b through
// s's chunk buffer.
func (s *System) streamLog(b *backEnd) *MissLog {
	l := newMissLog(s, []ClockVariant{ClockVariantOf(s.Design)})
	s.chunk = slices.Grow(s.chunk, chunkBytes) // allocates once per system
	l.chunks = [][]byte{s.chunk}
	l.stream = &chunkDecoder{b: b, log: l}
	return l
}

// FieldAccesses reports whether executing p may issue per-field
// transactions, the only ones a strided design serves with a gather:
// INSERTs, and scans that read whole records up front, touch records only.
func FieldAccesses(p *sql.Plan) bool {
	switch p.Kind {
	case sql.PlanInsert:
		return false
	case sql.PlanScan, sql.PlanAggregate:
		return !(p.FullScan && p.WholeRecord)
	}
	return true
}

// runFrontEnd executes p's front end, writing its stream into log, and
// returns its functional result.
func (s *System) runFrontEnd(p *sql.Plan, log *MissLog) (res *QueryResult, err error) {
	e := newLogEngine(s, log)
	switch p.Kind {
	case sql.PlanScan, sql.PlanAggregate:
		res, err = s.runScan(p, e)
	case sql.PlanUpdate:
		res, err = s.runUpdate(p, e)
	case sql.PlanInsert:
		res, err = s.runInsert(p, e)
	case sql.PlanJoin:
		res, err = s.runJoin(p, e)
	default:
		err = fmt.Errorf("sim: cannot run plan kind %v", p.Kind)
	}
	if err == nil {
		e.finish()
	}
	return res, err
}

// RunQuery parses, compiles, and executes a query string.
func (s *System) RunQuery(query string, params sql.Params) (*QueryResult, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	plan, err := sql.Compile(stmt, params)
	if err != nil {
		return nil, err
	}
	return s.RunPlan(plan)
}

// forEachMatchBatch runs the predicate phase of plan's vectorized scan
// batch by batch, handing the matching record indices to visit. Limit
// counts matched records.
func (e *engine) forEachMatchBatch(plan *sql.Plan, visit func(matches []int)) error {
	t, err := e.sys.Table(plan.Table)
	if err != nil {
		return err
	}
	pl := e.sys.placers[plan.Table]
	limit := plan.Limit
	if limit < 0 {
		limit = t.Records()
	}
	taken := 0
	var matches []int
	for start := 0; start < t.Records() && taken < limit; start += scanBatch {
		end := start + scanBatch
		if end > t.Records() {
			end = t.Records()
		}
		stop := end
		if plan.FullScan {
			// Row-preferring execution: whole records up front. Predicate-
			// free LIMIT scans stop exactly at the limit.
			if rem := limit - taken; len(plan.Preds) == 0 && start+rem < stop {
				stop = start + rem
			}
			for rec := start; rec < stop; rec++ {
				e.record(pl.ReadRecord(rec))
			}
		} else {
			// Column-at-a-time predicate reads.
			for _, f := range plan.PredFields {
				for rec := start; rec < end; rec++ {
					e.field(pl, rec, f, false)
				}
			}
		}
		matches = matches[:0]
		for rec := start; rec < stop && taken < limit; rec++ {
			if plan.Match(func(f int) uint64 { return t.Value(rec, f) }) {
				matches = append(matches, rec)
				taken++
				e.spend(e.sys.matchCost)
			}
		}
		visit(matches)
	}
	return nil
}

func (s *System) runScan(p *sql.Plan, e *engine) (*QueryResult, error) {
	t, err := s.Table(p.Table)
	if err != nil {
		return nil, err
	}
	pl := s.placers[p.Table]
	res := &QueryResult{Aggregates: make([]float64, len(p.Aggs))}
	global := make([]aggState, len(p.Aggs))
	grouped := map[uint64][]aggState{}

	accumulate := func(rec int) {
		states := global
		if p.GroupBy >= 0 {
			key := t.Value(rec, p.GroupBy)
			if _, ok := grouped[key]; !ok {
				grouped[key] = make([]aggState, len(p.Aggs))
			}
			states = grouped[key]
		}
		for i, agg := range p.Aggs {
			if agg.Field < 0 { // COUNT(*)
				states[i].count++
				states[i].seen = true
				continue
			}
			states[i].add(t.Value(rec, agg.Field))
		}
	}

	err = e.forEachMatchBatch(p, func(matches []int) {
		if p.WholeRecord {
			for _, rec := range matches {
				if !p.FullScan {
					e.record(pl.ReadRecord(rec))
				}
				res.Rows++
				for f := 0; f < t.Fields(); f++ {
					res.ProjChecks ^= t.Value(rec, f)
				}
			}
			return
		}
		// Column-at-a-time projection over the batch's matches.
		for _, f := range p.ProjFields {
			for _, rec := range matches {
				e.field(pl, rec, f, false)
			}
		}
		for _, rec := range matches {
			res.Rows++
			for _, f := range p.ProjFields {
				res.ProjChecks ^= t.Value(rec, f)
			}
			accumulate(rec)
			for _, group := range p.ArithGroups {
				var sum uint64
				for _, f := range group {
					sum += t.Value(rec, f)
				}
				res.ArithChecks ^= sum
			}
		}
	})
	if err != nil {
		return nil, err
	}
	// ProjChecks double-counts fields that are both projected and
	// aggregated; that is fine — it only needs to be deterministic.
	if p.GroupBy >= 0 && p.Kind == sql.PlanAggregate {
		res.Groups = make(map[uint64][]float64, len(grouped))
		for key, states := range grouped {
			vals := make([]float64, len(p.Aggs))
			for i, agg := range p.Aggs {
				vals[i] = states[i].value(agg.Kind)
				res.ProjChecks ^= key ^ uint64(int64(vals[i]))
			}
			res.Groups[key] = vals
		}
	} else {
		for i, agg := range p.Aggs {
			res.Aggregates[i] = global[i].value(agg.Kind)
		}
	}
	return res, nil
}

func (s *System) runUpdate(p *sql.Plan, e *engine) (*QueryResult, error) {
	t, err := s.Table(p.Table)
	if err != nil {
		return nil, err
	}
	pl := s.placers[p.Table]
	res := &QueryResult{}
	err = e.forEachMatchBatch(p, func(matches []int) {
		// Column-at-a-time writes (the sstore path on strided designs).
		for _, set := range p.Sets {
			for _, rec := range matches {
				e.field(pl, rec, set.Field, true)
				t.SetValue(rec, set.Field, set.Value)
			}
		}
		res.Rows += len(matches)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (s *System) runInsert(p *sql.Plan, e *engine) (*QueryResult, error) {
	t, err := s.Table(p.Table)
	if err != nil {
		return nil, err
	}
	pl := s.placers[p.Table]
	if len(p.InsertValues) > t.Fields() {
		return nil, fmt.Errorf("sim: INSERT of %d values into %d-field table", len(p.InsertValues), t.Fields())
	}
	res := &QueryResult{}
	row := make([]uint64, t.Fields())
	copy(row, p.InsertValues)
	for i := 0; i < InsertCount; i++ {
		row[0] = p.InsertValues[0] + uint64(i) // distinct rows
		rec := t.Append(row)
		e.spend(s.matchCost)
		e.record(pl.WriteRecord(rec))
		res.Rows++
	}
	return res, nil
}

// runJoin executes a hash join: build on the inner table, probe with the
// outer, both scans vectorized column-at-a-time. The hash table itself is
// modeled as cache-resident (its traffic is negligible next to the scans
// at the paper's scale).
func (s *System) runJoin(p *sql.Plan, e *engine) (*QueryResult, error) {
	outer, err := s.Table(p.Table)
	if err != nil {
		return nil, err
	}
	inner, err := s.Table(p.InnerTable)
	if err != nil {
		return nil, err
	}
	plOut, plIn := s.placers[p.Table], s.placers[p.InnerTable]

	var eqPred *sql.JoinPred
	var ineqPreds []sql.JoinPred
	for i := range p.JoinPreds {
		if p.JoinPreds[i].Op == "=" && eqPred == nil {
			eqPred = &p.JoinPreds[i]
		} else {
			ineqPreds = append(ineqPreds, p.JoinPreds[i])
		}
	}
	if eqPred == nil {
		return nil, fmt.Errorf("sim: join requires one equality predicate")
	}

	res := &QueryResult{}

	// Build phase: column-at-a-time scan of the inner table. The hash maps
	// each key to the first and last inner record of its chain, and next
	// links each record to the following one with the same key, so the
	// build allocates no per-key slices and probes still visit matches in
	// insertion order. The map is sized for one key per inner record, so
	// the build never rehashes.
	hash := make(map[uint64][2]int32, inner.Records())
	next := make([]int32, inner.Records())
	innerFields := dedup(append(append([]int{}, p.InnerPredFields...), p.InnerProj...))
	for start := 0; start < inner.Records(); start += scanBatch {
		end := start + scanBatch
		if end > inner.Records() {
			end = inner.Records()
		}
		for _, f := range innerFields {
			for rec := start; rec < end; rec++ {
				e.field(plIn, rec, f, false)
			}
		}
		for rec := start; rec < end; rec++ {
			key := inner.Value(rec, eqPred.InnerField)
			next[rec] = -1
			ends, ok := hash[key]
			if ok {
				next[ends[1]] = int32(rec)
			} else {
				ends[0] = int32(rec)
			}
			ends[1] = int32(rec)
			hash[key] = ends
		}
	}

	// Probe phase: column-at-a-time scan of the outer table.
	outerFields := dedup(append(append([]int{}, p.OuterPredFields...), p.OuterProj...))
	for start := 0; start < outer.Records(); start += scanBatch {
		end := start + scanBatch
		if end > outer.Records() {
			end = outer.Records()
		}
		for _, f := range outerFields {
			for rec := start; rec < end; rec++ {
				e.field(plOut, rec, f, false)
			}
		}
		for rec := start; rec < end; rec++ {
			key := outer.Value(rec, eqPred.OuterField)
			ends, ok := hash[key]
			if !ok {
				continue
			}
			for in := int(ends[0]); in >= 0; in = int(next[in]) {
				ok := true
				for _, jp := range ineqPreds {
					ov, iv := outer.Value(rec, jp.OuterField), inner.Value(in, jp.InnerField)
					switch jp.Op {
					case ">":
						ok = ov > iv
					case "<":
						ok = ov < iv
					case "=":
						ok = ov == iv
					}
					if !ok {
						break
					}
				}
				if !ok {
					continue
				}
				res.Rows++
				for _, f := range p.OuterProj {
					res.ProjChecks ^= outer.Value(rec, f)
				}
				for _, f := range p.InnerProj {
					res.ProjChecks ^= inner.Value(in, f)
				}
			}
		}
	}
	return res, nil
}

func dedup(xs []int) []int {
	seen := map[int]bool{}
	out := xs[:0:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

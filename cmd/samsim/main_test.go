package main

import (
	"bytes"
	"context"
	"testing"

	"sam/internal/core"
	"sam/internal/design"
	"sam/internal/etrace"
	"sam/internal/sim"
)

// traceAll records everything samsim can record.
var traceAll = tracing{requests: true, events: true, window: 2048, limit: etrace.DefaultCapacity}

// equivalent fails the test unless a and b are equal under the stable
// result encoding.
func equivalent(t *testing.T, what string, a, b *sim.QueryResult) {
	t.Helper()
	ea, err := sim.EncodeResult(a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := sim.EncodeResult(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, eb) {
		t.Fatalf("%s: results differ (cycles %d vs %d)", what, a.Stats.Cycles, b.Stats.Cycles)
	}
}

// TestRunPathsAgree pins that a run means the same thing on every samsim
// path. Ideal×Q3 needs the column store and SAM-en×Qs2 the Qs full-record
// scan; a traced run, a run with an inactive fault model and the memoized
// run must all apply both rules.
func TestRunPathsAgree(t *testing.T) {
	ctx := context.Background()
	cache := core.NewMemo(core.MemoOptions{})
	for _, c := range []struct {
		kind  design.Kind
		query string
	}{{design.Ideal, "Q3"}, {design.SAMEn, "Qs2"}} {
		q, _ := core.BenchQueryByName(c.query)
		name := c.kind.String() + "/" + c.query
		spec := core.RunSpec{Design: c.kind, Workload: core.SmallWorkload(), Query: q}
		memoized, _, err := runQuery(ctx, cache, spec, tracing{})
		if err != nil {
			t.Fatal(err)
		}
		spec.Faults = &sim.FaultModel{}
		inactive, _, err := runQuery(ctx, nil, spec, tracing{})
		if err != nil {
			t.Fatal(err)
		}
		traced, rec, err := runQuery(ctx, nil, spec, traceAll)
		if err != nil {
			t.Fatal(err)
		}
		if rec.requests.Len() == 0 || rec.events.Len() == 0 {
			t.Fatalf("%s: traced run recorded nothing", name)
		}
		equivalent(t, name+" inactive faults vs memoized", inactive, memoized)
		equivalent(t, name+" traced vs memoized", traced, memoized)
		spec.Faults = nil
		if want, _ := spec.Run(); want.Stats.Cycles != memoized.Stats.Cycles {
			t.Fatalf("%s: samsim %d cycles, RunSpec.Run %d", name, memoized.Stats.Cycles, want.Stats.Cycles)
		}
	}
}

// TestTracedCyclesMatch: for every design × benchmark query at small
// scale, samsim reports the same run, cycles included, with and without
// tracing.
func TestTracedCyclesMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("full design × query grid skipped in short mode")
	}
	ctx := context.Background()
	for _, k := range core.AllKinds() {
		for _, q := range core.Benchmark() {
			spec := core.RunSpec{Design: k, Workload: core.SmallWorkload(), Query: q}
			plain, _, err := runQuery(ctx, nil, spec, tracing{})
			if err != nil {
				t.Fatal(err)
			}
			traced, _, err := runQuery(ctx, nil, spec, tracing{events: true, window: 2048, limit: 1})
			if err != nil {
				t.Fatal(err)
			}
			equivalent(t, k.String()+"/"+q.Name+" traced vs untraced", traced, plain)
		}
	}
}

package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"sam/internal/design"
	"sam/internal/runner"
	"sam/internal/sim"
)

// fig12Kinds is the Fig. 12 grid's columns in grid order.
func fig12Kinds() []design.Kind {
	return append([]design.Kind{design.Baseline}, design.AllEvaluated()...)
}

// recording is one spec's live run with its miss log.
type recording struct {
	spec RunSpec
	key  string
	res  *sim.QueryResult
	log  *sim.MissLog
}

// recordAll records every spec live, in parallel.
func recordAll(t *testing.T, specs []RunSpec) []recording {
	t.Helper()
	out, err := runner.Map(context.Background(), specs, runner.Options{},
		func(_ context.Context, _ int, s RunSpec) (recording, error) {
			r, l, err := s.record()
			return recording{spec: s, key: s.FrontEndKey(), res: r, log: l}, err
		})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// partition renders how recs split into classes by f: members in input
// order, classes in order of their first member.
func partition(recs []recording, f func(recording) string) string {
	var order []string
	classes := map[string][]string{}
	for _, r := range recs {
		k := f(r)
		if _, ok := classes[k]; !ok {
			order = append(order, k)
		}
		classes[k] = append(classes[k], r.spec.Design.String())
	}
	var parts []string
	for _, k := range order {
		parts = append(parts, "{"+strings.Join(classes[k], " ")+"}")
	}
	return strings.Join(parts, " ")
}

// TestFrontEndKeySound checks that equal front-end keys mean equal front
// ends: over every design × Table 3 query at SmallWorkload, with the
// default options and with Fig. 14a's substrate swap, specs that share a
// key record identical miss logs. The swap puts RC-NVM on DRAM next to
// SAM-sub, so the stripe's ChunkRecords is all that tells them apart. It
// also pins the default Fig. 12 classes. The key may split runs whose logs
// match (on Qs queries the baseline's log equals GS-DRAM's, as no gather
// ever fires), but it must never merge runs whose logs differ.
func TestFrontEndKeySound(t *testing.T) {
	w := SmallWorkload()
	swap := func(k design.Kind) design.Options {
		sub := design.NVM
		if (design.Options{}).Canon(k).Substrate == design.NVM {
			sub = design.DRAM
		}
		return design.Options{Substrate: sub, SubstrateSet: true}
	}
	var specs []RunSpec
	for _, q := range Benchmark() {
		for _, k := range fig12Kinds() {
			specs = append(specs,
				RunSpec{Design: k, Workload: w, Query: q},
				RunSpec{Design: k, Options: swap(k), Workload: w, Query: q})
		}
	}
	recs := recordAll(t, specs)
	byKey := map[string]recording{}
	for _, r := range recs {
		first, ok := byKey[r.key]
		if !ok {
			byKey[r.key] = r
			continue
		}
		if first.log.Digest() != r.log.Digest() {
			t.Errorf("%s: %v %+v and %v %+v share a front-end key but not a front end",
				r.spec.Query.Name, first.spec.Design, first.spec.Options, r.spec.Design, r.spec.Options)
		}
	}

	want := map[QueryClass]string{
		ClassQ:  "{baseline} {RC-NVM-bit RC-NVM-wd} {GS-DRAM GS-DRAM-ecc SAM-IO} {SAM-sub} {SAM-en} {ideal}",
		ClassQs: "{baseline ideal} {RC-NVM-bit RC-NVM-wd} {GS-DRAM GS-DRAM-ecc SAM-IO SAM-en} {SAM-sub}",
	}
	for i := 0; i < len(recs); i += 2 * len(fig12Kinds()) {
		var defaults []recording
		for j := i; j < i+2*len(fig12Kinds()); j += 2 {
			defaults = append(defaults, recs[j])
		}
		q := defaults[0].spec.Query
		if got := partition(defaults, func(r recording) string { return r.key }); got != want[q.Class] {
			t.Errorf("%s: front-end key classes %s, want %s", q.Name, got, want[q.Class])
		}
	}
}

// checkReplayExact runs each spec live, then replays the miss log of its
// class's first member into it: the replayed result must encode to the
// live run's bytes, and so must the recording run's own result. Every log
// must stay under maxLogBytes.
func checkReplayExact(t *testing.T, specs []RunSpec) {
	t.Helper()
	recs := recordAll(t, specs)
	leader := map[string]*sim.MissLog{}
	for _, r := range recs {
		if leader[r.key] == nil {
			leader[r.key] = r.log
		}
		if n := r.log.Bytes(); n > maxLogBytes {
			t.Errorf("%s on %v: %d-byte miss log, over %d", r.spec.Query.Name, r.spec.Design, n, maxLogBytes)
		}
	}
	_, err := runner.Map(context.Background(), recs, runner.Options{},
		func(_ context.Context, _ int, r recording) (struct{}, error) {
			live, err := r.spec.Run()
			if err != nil {
				t.Error(err)
				return struct{}{}, nil
			}
			want := encode(live)
			if got := encode(r.res); !bytes.Equal(got, want) {
				t.Errorf("%s on %v: recording changed the live run", r.spec.Query.Name, r.spec.Design)
			}
			if got := encode(r.spec.replay(leader[r.key])); !bytes.Equal(got, want) {
				t.Errorf("%s on %v: replayed run differs from the live run", r.spec.Query.Name, r.spec.Design)
			}
			return struct{}{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

// encode is sim.EncodeResult for a non-nil result; safe off the test
// goroutine.
func encode(r *sim.QueryResult) []byte {
	b, err := sim.EncodeResult(r)
	if err != nil {
		panic(err)
	}
	return b
}

// maxLogBytes bounds one miss log. Qs4 at DefaultWorkload has the largest
// shared logs, 262K operations each.
const maxLogBytes = 1536 << 10

// TestReplayExact is the replay differential: every design × Table 3
// query at SmallWorkload, and Q7, Q11 and Qs4 at DefaultWorkload, replay
// their class's shared miss log to the live run's exact result.
func TestReplayExact(t *testing.T) {
	var specs []RunSpec
	for _, q := range Benchmark() {
		for _, k := range fig12Kinds() {
			specs = append(specs, RunSpec{Design: k, Workload: SmallWorkload(), Query: q})
		}
	}
	checkReplayExact(t, specs)
	if testing.Short() {
		t.Skip("DefaultWorkload replays skipped in -short mode")
	}
	specs = specs[:0]
	for _, name := range []string{"Q7", "Q11", "Qs4"} {
		q, _ := BenchQueryByName(name)
		for _, k := range fig12Kinds() {
			specs = append(specs, RunSpec{Design: k, Workload: DefaultWorkload(), Query: q})
		}
	}
	checkReplayExact(t, specs)
}

// TestFig12SharesFrontEnds checks the Fig. 12 sweep against per-cell
// runs through the same memo: every cell, shared front end or not, holds
// exactly what its own RunSpec produces.
func TestFig12SharesFrontEnds(t *testing.T) {
	w := SmallWorkload()
	queries := Benchmark()
	grid, err := runShared(context.Background(), queries, fig12Kinds(), w, Par{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	live, err := runner.Grid(context.Background(), queries, fig12Kinds(), runner.Options{},
		func(_ context.Context, _, _ int, q BenchQuery, k design.Kind) (*sim.QueryResult, error) {
			return RunSpec{Design: k, Workload: w, Query: q}.Run()
		})
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		for ki, k := range fig12Kinds() {
			if !bytes.Equal(encode(grid[qi][ki]), encode(live[qi][ki])) {
				t.Errorf("%s on %v: shared sweep differs from the spec's own run", q.Name, k)
			}
		}
	}
}

// TestFrontEndsAbortedRecording checks that a recording that panics hands
// the class's waiting members an error instead of blocking them, and that
// a waiting member gives up with its context.
func TestFrontEndsAbortedRecording(t *testing.T) {
	fe := newFrontEnds([]string{"k", "k", "k"})
	bad := RunSpec{Design: design.Kind(99), Workload: SmallWorkload(), Query: Benchmark()[0]}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("recording an unknown design did not panic")
			}
		}()
		fe.run(context.Background(), bad, "k")
	}()
	if _, err := fe.run(context.Background(), bad, "k"); !errors.Is(err, errRecordAborted) {
		t.Fatalf("member after an aborted recording got %v, want errRecordAborted", err)
	}

	fe = newFrontEnds([]string{"k", "k"})
	fe.classes["k"].done = make(chan struct{}) // a recording in flight
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fe.run(ctx, bad, "k"); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiting member with a cancelled context got %v", err)
	}
}

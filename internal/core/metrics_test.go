package core

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"sam/internal/sim"
	"sam/internal/stats"
)

// TestSweepPointStatsDeterministicAcrossWorkers is the acceptance check for
// the observability layer: the full per-design statistics of a sweep point
// — histogram snapshots included — must be byte-identical whether the
// point's runs execute serially or on eight workers.
func TestSweepPointStatsDeterministicAcrossWorkers(t *testing.T) {
	p := SweepPoint{Query: Arithmetic, Selectivity: 0.5, Projected: 8}
	run := func(workers int) ([]byte, map[string]float64) {
		res, err := RunSweep(context.Background(), []SweepPoint{p}, 256, Par{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		speedups, sts := res[0].Speedups, res[0].Stats
		enc, err := json.Marshal(sts)
		if err != nil {
			t.Fatal(err)
		}
		return enc, speedups
	}
	serial, spSerial := run(1)
	parallel, spParallel := run(8)
	if string(serial) != string(parallel) {
		t.Fatal("per-design stats differ between workers=1 and workers=8")
	}
	if !reflect.DeepEqual(spSerial, spParallel) {
		t.Fatalf("speedups differ: %v vs %v", spSerial, spParallel)
	}
	var decoded map[string]sim.RunStats
	if err := json.Unmarshal(serial, &decoded); err != nil {
		t.Fatalf("stats JSON does not round-trip: %v", err)
	}
	st, ok := decoded["baseline"]
	if !ok || st.Metrics == nil {
		t.Fatal("baseline stats missing the metrics snapshot")
	}
	if h, ok := st.Metrics.Histograms["mc.lat.read.normal"]; !ok || h.Total == 0 {
		t.Fatalf("read-latency histogram missing or empty: %+v", st.Metrics.Histograms)
	}
}

// TestSweepFigureMetricsSink checks the Par.Metrics plumbing: every run of
// the sweep is emitted exactly once, in the same order for any worker
// count, and the merged histogram snapshot is worker-count invariant.
func TestSweepFigureMetricsSink(t *testing.T) {
	points := []SweepPoint{
		{Query: Arithmetic, Selectivity: 0.25, Projected: 4},
		{Query: Arithmetic, Selectivity: 0.75, Projected: 4},
	}
	type key struct{ fig, x, design string }
	collect := func(workers int) ([]key, *stats.Snapshot) {
		var order []key
		merged := &stats.Snapshot{}
		par := Par{Workers: workers, Metrics: func(figID, x, designName string, st sim.RunStats) {
			order = append(order, key{figID, x, designName})
			if err := merged.Merge(st.Metrics); err != nil {
				t.Fatal(err)
			}
		}}
		_, err := sweepFigure(context.Background(), "figtest", points, 256,
			func(i int) string { return fmt.Sprintf("p%d", i) }, par)
		if err != nil {
			t.Fatal(err)
		}
		return order, merged
	}
	serialOrder, serialMerged := collect(1)
	parallelOrder, parallelMerged := collect(8)
	// baseline + three sweep designs + ideal, per point.
	if want := len(points) * (len(SweepDesigns()) + 2); len(serialOrder) != want {
		t.Fatalf("emitted %d metric entries, want %d", len(serialOrder), want)
	}
	if !reflect.DeepEqual(serialOrder, parallelOrder) {
		t.Fatalf("emission order differs:\n%v\n%v", serialOrder, parallelOrder)
	}
	a, _ := json.Marshal(serialMerged)
	b, _ := json.Marshal(parallelMerged)
	if string(a) != string(b) {
		t.Fatal("merged snapshot differs between workers=1 and workers=8")
	}
	if len(serialMerged.Histograms) == 0 {
		t.Fatal("merged snapshot has no histograms")
	}
}

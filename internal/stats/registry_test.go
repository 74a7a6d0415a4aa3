package stats

import (
	"encoding/json"
	"math"
	"testing"
)

// fillRegistry records a deterministic workload slice [lo, hi) into a fresh
// registry, standing in for one sweep worker's run.
func fillRegistry(lo, hi int) *Registry {
	r := NewRegistry()
	c := r.Counter("requests")
	g := r.Gauge("occupancy")
	h := r.Histogram("latency", 10, 100, 1000)
	for i := lo; i < hi; i++ {
		c.Add(1)
		g.Set(float64(i % 7))
		h.Observe(uint64(i * 3))
	}
	return r
}

func TestRegistryInstrumentIdentity(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name returned distinct counters")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("same name returned distinct gauges")
	}
	h := r.Histogram("h", 1, 2, 3)
	if r.Histogram("h", 9, 9, 9, 9) != h {
		t.Fatal("same name returned distinct histograms")
	}
	// First registration wins: the second bounds argument is ignored.
	if b := h.Bounds(); len(b) != 3 || b[0] != 1 {
		t.Fatalf("histogram bounds overwritten: %v", b)
	}
}

func TestSnapshotMergeEqualsSerial(t *testing.T) {
	// One run over [0,100) must equal four merged runs over its quarters —
	// the property the sweep runner relies on for worker-count invariance.
	serial := fillRegistry(0, 100).Snapshot()
	merged := &Snapshot{}
	for _, part := range [][2]int{{0, 25}, {25, 50}, {50, 75}, {75, 100}} {
		if err := merged.Merge(fillRegistry(part[0], part[1]).Snapshot()); err != nil {
			t.Fatal(err)
		}
	}
	a, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("merged != serial:\n%s\n%s", a, b)
	}
}

func TestSnapshotMergeBoundsMismatch(t *testing.T) {
	a := NewRegistry()
	a.Histogram("h", 1, 2, 3).Observe(1)
	b := NewRegistry()
	b.Histogram("h", 10, 20).Observe(1)
	s := a.Snapshot()
	if err := s.Merge(b.Snapshot()); err == nil {
		t.Fatal("merging mismatched histogram bounds did not error")
	}
}

func TestSnapshotMergeDoesNotAliasSource(t *testing.T) {
	src := fillRegistry(0, 10).Snapshot()
	dst := &Snapshot{}
	if err := dst.Merge(src); err != nil {
		t.Fatal(err)
	}
	dst.Histograms["latency"].Counts[0] += 100
	if src.Histograms["latency"].Counts[0] == dst.Histograms["latency"].Counts[0] {
		t.Fatal("merge aliased the source snapshot's count slice")
	}
}

func TestHistogramSnapQuantileMirrorsLive(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", 10, 100, 1000)
	for i := 0; i < 1000; i++ {
		h.Observe(uint64(i))
	}
	snap := r.Snapshot().Histograms["h"]
	for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 1} {
		if got, want := snap.Quantile(q), h.Quantile(q); got != want {
			t.Fatalf("q=%v: snapshot %d vs live %d", q, got, want)
		}
	}
	if mean := float64(snap.Sum) / float64(snap.Total); mean != h.Mean() {
		t.Fatalf("mean: snapshot %v vs live %v", mean, h.Mean())
	}
}

func TestGaugeRejectsNonFinite(t *testing.T) {
	var g Gauge
	g.Set(5)
	g.Set(math.NaN())
	g.Set(math.Inf(1))
	g.Set(math.Inf(-1))
	g.Set(3)
	if g.Samples() != 2 {
		t.Fatalf("non-finite samples recorded: %d samples", g.Samples())
	}
	if g.Min() != 3 || g.Max() != 5 || g.Sum() != 8 {
		t.Fatalf("extrema poisoned: min=%v max=%v sum=%v", g.Min(), g.Max(), g.Sum())
	}
}

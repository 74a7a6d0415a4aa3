package stats

import (
	"fmt"
	"math"
	"sync"
)

// Registry is a named-instrument store: counters, gauges, and histograms
// registered under stable string names, with a snapshot-and-merge API so
// sweep workers (internal/runner) can each record into a private registry
// and the aggregator can combine them deterministically afterwards.
//
// Concurrency contract: instrument *registration* (Counter/Gauge/Histogram
// lookups) is goroutine-safe; the returned instruments themselves are not.
// The intended pattern is one registry per simulation run — each run is
// goroutine-confined — with cross-run aggregation done on Snapshots, which
// are plain values. Merging snapshots in item order yields byte-identical
// results for any worker count.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use. Later lookups of an existing name ignore the
// bounds argument (the first registration wins), so every run of the same
// code registers identical shapes and snapshots stay mergeable.
func (r *Registry) Histogram(name string, bounds ...uint64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds...)
		r.hists[name] = h
	}
	return h
}

// GaugeSnap is a gauge's frozen state.
type GaugeSnap struct {
	Cur     float64 `json:"cur"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Sum     float64 `json:"sum"`
	Samples uint64  `json:"samples"`
}

// HistogramSnap is a histogram's frozen state. Counts has one entry per
// bound plus the implicit +Inf overflow bucket.
type HistogramSnap struct {
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Total  uint64   `json:"total"`
	Sum    uint64   `json:"sum"`
	Max    uint64   `json:"max"`
}

// Quantile returns an upper bound for quantile q in [0,1] from the bucket
// bounds (the overflow bucket reports the observed max), mirroring
// Histogram.Quantile.
func (h HistogramSnap) Quantile(q float64) uint64 {
	if h.Total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.Total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			return h.Max
		}
	}
	return h.Max
}

// Snapshot is a registry's frozen, mergeable state. It is a plain value:
// safe to send across goroutines, compare, and serialize. encoding/json
// emits map keys in sorted order, so the JSON form is deterministic.
type Snapshot struct {
	Counters   map[string]uint64        `json:"counters,omitempty"`
	Gauges     map[string]GaugeSnap     `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnap `json:"histograms,omitempty"`
}

// Snapshot freezes the registry's current state.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]GaugeSnap, len(r.gauges)),
		Histograms: make(map[string]HistogramSnap, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = GaugeSnap{Cur: g.Cur(), Min: g.Min(), Max: g.Max(), Sum: g.Sum(), Samples: g.Samples()}
	}
	for name, h := range r.hists {
		s.Histograms[name] = HistogramSnap{Bounds: h.Bounds(), Counts: h.Counts(), Total: h.Total(), Sum: h.Sum(), Max: h.Max()}
	}
	return s
}

// Merge folds o into s: counters and histogram buckets add, gauge extrema
// combine. Histograms sharing a name must share bucket bounds — mismatched
// shapes mean the two snapshots came from different instrument versions,
// which is an error, not something to paper over. Merging is commutative
// on the totals and deterministic for any merge order; merging in item
// order additionally makes Cur fields order-independent.
func (s *Snapshot) Merge(o *Snapshot) error {
	if o == nil {
		return nil
	}
	for name, v := range o.Counters {
		if s.Counters == nil {
			s.Counters = make(map[string]uint64)
		}
		s.Counters[name] += v
	}
	for name, og := range o.Gauges {
		if s.Gauges == nil {
			s.Gauges = make(map[string]GaugeSnap)
		}
		g, ok := s.Gauges[name]
		switch {
		case !ok || g.Samples == 0:
			g = og
		case og.Samples > 0:
			if og.Min < g.Min {
				g.Min = og.Min
			}
			if og.Max > g.Max {
				g.Max = og.Max
			}
			g.Sum += og.Sum
			g.Samples += og.Samples
			g.Cur = og.Cur // the merged-in run is the more recent one
		}
		s.Gauges[name] = g
	}
	for name, oh := range o.Histograms {
		if s.Histograms == nil {
			s.Histograms = make(map[string]HistogramSnap)
		}
		h, ok := s.Histograms[name]
		if !ok || h.Total == 0 && len(h.Counts) == 0 {
			s.Histograms[name] = cloneHistSnap(oh)
			continue
		}
		if !equalBounds(h.Bounds, oh.Bounds) {
			return fmt.Errorf("stats: histogram %q bounds mismatch: %v vs %v", name, h.Bounds, oh.Bounds)
		}
		for i := range h.Counts {
			h.Counts[i] += oh.Counts[i]
		}
		h.Total += oh.Total
		h.Sum += oh.Sum
		if oh.Max > h.Max {
			h.Max = oh.Max
		}
		s.Histograms[name] = h
	}
	return nil
}

func cloneHistSnap(h HistogramSnap) HistogramSnap {
	h.Bounds = append([]uint64(nil), h.Bounds...)
	h.Counts = append([]uint64(nil), h.Counts...)
	return h
}

func equalBounds(a, b []uint64) bool {
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

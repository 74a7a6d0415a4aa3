// Package stats provides counters, aggregates, and plain-text table
// rendering used by the simulator and the experiment harness.
//
// Everything in this package is deterministic and allocation-light; the
// simulator updates counters on its hot path.
package stats

import (
	"math"
	"sort"
	"strings"
)

// Counter is a monotonically increasing event counter.
type Counter struct {
	n uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Gauge tracks a value along with its running min/max/sum for averaging.
type Gauge struct {
	cur, min, max, sum float64
	samples            uint64
}

// Set records a new sample. Only finite samples are recorded: NaN and
// ±Inf are ignored entirely (no field is touched), so Min/Max/Mean and
// Samples always describe the same finite sample set. Before this
// contract a NaN sample failed both min/max comparisons (leaving them
// stale) while still poisoning the running sum.
func (g *Gauge) Set(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	g.cur = v
	if g.samples == 0 || v < g.min {
		g.min = v
	}
	if g.samples == 0 || v > g.max {
		g.max = v
	}
	g.sum += v
	g.samples++
}

// Cur returns the most recent sample.
func (g *Gauge) Cur() float64 { return g.cur }

// Min returns the smallest sample seen, or 0 if none.
func (g *Gauge) Min() float64 { return g.min }

// Max returns the largest sample seen, or 0 if none.
func (g *Gauge) Max() float64 { return g.max }

// Samples returns how many recorded (finite) samples Set has seen.
func (g *Gauge) Samples() uint64 { return g.samples }

// Sum returns the running sum of all recorded samples.
func (g *Gauge) Sum() float64 { return g.sum }

// Histogram is a fixed-bucket histogram for latency-style distributions.
type Histogram struct {
	bounds []uint64 // upper bounds, ascending; implicit +Inf last bucket
	counts []uint64
	total  uint64
	sum    uint64
	max    uint64
}

// NewHistogram builds a histogram with the given ascending upper bounds.
func NewHistogram(bounds ...uint64) *Histogram {
	b := append([]uint64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i]++
	h.total++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() uint64 { return h.sum }

// Bounds returns a copy of the bucket upper bounds.
func (h *Histogram) Bounds() []uint64 { return append([]uint64(nil), h.bounds...) }

// Counts returns a copy of the per-bucket counts (len(Bounds())+1 entries;
// the final bucket is the implicit +Inf overflow bucket).
func (h *Histogram) Counts() []uint64 { return append([]uint64(nil), h.counts...) }

// Max returns the largest observation.
func (h *Histogram) Max() uint64 { return h.max }

// Mean returns the mean observation, or 0 if none.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Quantile returns an upper bound for quantile q in [0,1], using bucket
// upper bounds (the final bucket reports the observed max).
func (h *Histogram) Quantile(q float64) uint64 {
	if h.total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.max
		}
	}
	return h.max
}

// Gmean returns the geometric mean of xs. Non-positive inputs are skipped;
// it returns 0 when no positive inputs exist.
func Gmean(xs []float64) float64 {
	var logSum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			logSum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Table renders aligned plain-text tables for experiment output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells may be fewer than the header width.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// String renders the table with column alignment.
func (t *Table) String() string {
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			} else if i >= len(width) {
				width = append(width, len(c))
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if pad := width[i] - len(c); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("value = %d, want 42", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	for _, v := range []float64{3, 1, 4, 1, 5} {
		g.Set(v)
	}
	if g.Min() != 1 || g.Max() != 5 || g.Cur() != 5 || g.Samples() != 5 {
		t.Fatalf("gauge state: min=%v max=%v cur=%v n=%d", g.Min(), g.Max(), g.Cur(), g.Samples())
	}
	if g.Sum() != 14 {
		t.Fatalf("sum = %v, want 14", g.Sum())
	}
}

func TestGaugeNegativeFirstSample(t *testing.T) {
	var g Gauge
	g.Set(-7)
	if g.Min() != -7 || g.Max() != -7 {
		t.Fatalf("first negative sample: min=%v max=%v", g.Min(), g.Max())
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10, 100, 1000)
	for i := uint64(1); i <= 100; i++ {
		h.Observe(i)
	}
	if h.Total() != 100 {
		t.Fatalf("total = %d", h.Total())
	}
	if h.Max() != 100 {
		t.Fatalf("max = %d", h.Max())
	}
	if got := h.Quantile(0.5); got != 100 {
		t.Fatalf("p50 bucket bound = %d, want 100", got)
	}
	if got := h.Quantile(0.05); got != 10 {
		t.Fatalf("p5 bucket bound = %d, want 10", got)
	}
	if math.Abs(h.Mean()-50.5) > 1e-9 {
		t.Fatalf("mean = %v", h.Mean())
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram(10)
	h.Observe(99)
	if h.Quantile(1.0) != 99 {
		t.Fatalf("overflow quantile = %d, want observed max", h.Quantile(1.0))
	}
	if NewHistogram(5).Quantile(0.9) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}

func TestGmean(t *testing.T) {
	if g := Gmean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("gmean(2,8) = %v", g)
	}
	if g := Gmean([]float64{1, 1, 1}); math.Abs(g-1) > 1e-12 {
		t.Fatalf("gmean(ones) = %v", g)
	}
	if Gmean(nil) != 0 || Gmean([]float64{0, -1}) != 0 {
		t.Fatal("gmean of no positive inputs should be 0")
	}
}

func TestGmeanScaleInvariance(t *testing.T) {
	f := func(a, b, c uint16) bool {
		x := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		scaled := []float64{2 * x[0], 2 * x[1], 2 * x[2]}
		return math.Abs(Gmean(scaled)-2*Gmean(x)) < 1e-9*Gmean(scaled)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("design", "speedup")
	tb.AddRow("baseline", "1.00")
	tb.AddRow("SAM-en", "4.20")
	out := tb.String()
	if !strings.Contains(out, "SAM-en") || !strings.Contains(out, "4.20") {
		t.Fatalf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4", len(lines))
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Fatalf("missing separator row: %q", lines[1])
	}
}

func TestTableCSVEscaping(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow(`has "quote"`, "plain, comma")
	csv := tb.CSV()
	if !strings.Contains(csv, `"has ""quote"""`) {
		t.Fatalf("quote not escaped: %s", csv)
	}
	if !strings.Contains(csv, `"plain, comma"`) {
		t.Fatalf("comma cell not quoted: %s", csv)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("x")
	tb.AddRow("1", "extra", "more")
	out := tb.String()
	if !strings.Contains(out, "extra") {
		t.Fatalf("ragged row dropped: %s", out)
	}
}

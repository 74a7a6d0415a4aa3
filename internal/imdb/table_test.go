package imdb

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSchemas(t *testing.T) {
	ta := Ta(1000)
	if ta.Fields != 128 || ta.RecordBytes() != 1024 {
		t.Fatalf("Ta: %+v", ta)
	}
	tb := Tb(1000)
	if tb.Fields != 16 || tb.RecordBytes() != 128 {
		t.Fatalf("Tb: %+v", tb)
	}
	if (Schema{Fields: 0}).Validate() == nil {
		t.Fatal("zero-field schema accepted")
	}
}

func TestValuesDeterministic(t *testing.T) {
	a := NewTable(Ta(100), 42)
	b := NewTable(Ta(100), 42)
	c := NewTable(Ta(100), 43)
	same, diff := 0, 0
	for r := 0; r < 100; r++ {
		for f := 0; f < 128; f += 17 {
			if a.Value(r, f) != b.Value(r, f) {
				t.Fatalf("same seed diverged at (%d,%d)", r, f)
			}
			if a.Value(r, f) == c.Value(r, f) {
				same++
			} else {
				diff++
			}
		}
	}
	if same > diff/100 {
		t.Fatalf("different seeds produce suspiciously equal data: %d same, %d diff", same, diff)
	}
}

func TestValueDistributionRoughlyUniform(t *testing.T) {
	// SelectivityThreshold relies on uniformity; check the top bit is fair.
	tb := NewTable(Tb(4000), 7)
	high := 0
	for r := 0; r < 4000; r++ {
		if tb.Value(r, 9) > math.MaxUint64/2 {
			high++
		}
	}
	if high < 1800 || high > 2200 {
		t.Fatalf("top-bit balance %d/4000", high)
	}
}

func TestOverlayUpdate(t *testing.T) {
	tb := NewTable(Tb(10), 1)
	orig := tb.Value(3, 5)
	tb.SetValue(3, 5, orig+1)
	if tb.Value(3, 5) != orig+1 {
		t.Fatal("update lost")
	}
	if tb.Value(3, 6) == orig+1 && tb.Value(4, 5) == orig+1 {
		t.Fatal("update leaked to other cells")
	}
}

// TestOverlayWrittenFieldsOnly checks reads around a partial overlay: a
// SetValue on one field leaves every other field (and that field of every
// other record) at its generated value, and appended rows read back what
// was appended, zeros included, plus later updates.
func TestOverlayWrittenFieldsOnly(t *testing.T) {
	tb, twin := NewTable(Tb(10), 1), NewTable(Tb(10), 1)
	tb.SetValue(3, 5, 77)
	vals := make([]uint64, 16)
	for i := 1; i < len(vals); i += 2 {
		vals[i] = uint64(i * 100)
	}
	rec := tb.Append(vals)
	tb.SetValue(rec, 2, 9)
	vals[2] = 9
	for r := 0; r < 10; r++ {
		for f := 0; f < 16; f++ {
			want := twin.Value(r, f)
			if r == 3 && f == 5 {
				want = 77
			}
			if got := tb.Value(r, f); got != want {
				t.Fatalf("Value(%d,%d) = %d, want %d", r, f, got, want)
			}
		}
	}
	for f, want := range vals {
		if got := tb.Value(rec, f); got != want {
			t.Fatalf("appended Value(%d,%d) = %d, want %d", rec, f, got, want)
		}
	}
}

func TestAppend(t *testing.T) {
	tb := NewTable(Tb(10), 1)
	vals := make([]uint64, 16)
	for i := range vals {
		vals[i] = uint64(i * 100)
	}
	rec := tb.Append(vals)
	if rec != 10 || tb.Records() != 11 {
		t.Fatalf("append landed at %d, records %d", rec, tb.Records())
	}
	if tb.Value(10, 3) != 300 {
		t.Fatalf("appended value = %d", tb.Value(10, 3))
	}
}

func TestAppendWrongWidthPanics(t *testing.T) {
	tb := NewTable(Tb(10), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("short append accepted")
		}
	}()
	tb.Append(make([]uint64, 3))
}

func TestOutOfRangePanics(t *testing.T) {
	tb := NewTable(Tb(10), 1)
	for name, fn := range map[string]func(){
		"value rec":   func() { tb.Value(10, 0) },
		"value field": func() { tb.Value(0, 16) },
		"set rec":     func() { tb.SetValue(-1, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSelectivityThreshold(t *testing.T) {
	tb := NewTable(Tb(20000), 99)
	for _, frac := range []float64{0.25, 0.5, 0.9} {
		x := SelectivityThreshold(frac)
		hits := 0
		for r := 0; r < 20000; r++ {
			if tb.Value(r, 9) > x {
				hits++
			}
		}
		got := float64(hits) / 20000
		if math.Abs(got-frac) > 0.02 {
			t.Errorf("selectivity %.2f measured %.3f", frac, got)
		}
	}
	if SelectivityThreshold(0) != ^uint64(0) || SelectivityThreshold(1) != 0 {
		t.Fatal("threshold extremes")
	}
}

func TestPercentile(t *testing.T) {
	tb := NewTable(Tb(20000), 123)
	v := Percentile(0.1)
	hits := 0
	for r := 0; r < 20000; r++ {
		if tb.Value(r, 0) < v {
			hits++
		}
	}
	got := float64(hits) / 20000
	if math.Abs(got-0.1) > 0.02 {
		t.Fatalf("percentile 0.1 measured %.3f", got)
	}
	if Percentile(0) != 0 || Percentile(1) != ^uint64(0) {
		t.Fatal("percentile extremes")
	}
}

// TestFracScalingEdges pins the numeric edges of the float→uint64 scaling:
// the old frac*float64(^uint64(0)) form rounded to exactly 2^64 for frac
// just below 1, making the conversion implementation-defined.
func TestFracScalingEdges(t *testing.T) {
	almostOne := math.Nextafter(1, 0) // 1 - 2^-53, the largest float64 < 1
	v := Percentile(almostOne)
	if want := uint64(1<<53-1) << 11; v != want {
		t.Fatalf("Percentile(almost 1) = %#x, want %#x", v, want)
	}
	if v >= ^uint64(0) {
		t.Fatalf("Percentile(almost 1) = %#x must stay below max", v)
	}
	if Percentile(almostOne) <= Percentile(0.5) {
		t.Fatal("Percentile not monotonic near 1")
	}
	// Exactly representable fractions keep their exact scaled value.
	if Percentile(0.5) != 1<<63 {
		t.Fatalf("Percentile(0.5) = %#x, want 2^63", Percentile(0.5))
	}
	if Percentile(0.25) != 1<<62 {
		t.Fatalf("Percentile(0.25) = %#x, want 2^62", Percentile(0.25))
	}
	// The mirrored threshold form: frac just above 0 means "select almost
	// nothing", so the threshold saturates at max (1-frac rounds to 1).
	tiny := math.Nextafter(0, 1)
	if x := SelectivityThreshold(tiny); x != ^uint64(0) {
		t.Fatalf("SelectivityThreshold(tiny) = %#x, want max", x)
	}
	if x := SelectivityThreshold(almostOne); x >= SelectivityThreshold(0.5) {
		t.Fatal("SelectivityThreshold not monotonic near 1")
	}
}

func TestMixAvalanche(t *testing.T) {
	// Neighbouring keys must produce wildly different values (no strides in
	// the synthetic data itself).
	f := func(x uint64) bool {
		a, b := mix(x), mix(x+1)
		diff := a ^ b
		// At least 8 bits must differ.
		n := 0
		for diff != 0 {
			n++
			diff &= diff - 1
		}
		return n >= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCategoricalField(t *testing.T) {
	// The predicate field f10 draws from four categories with ~25% each.
	tb := NewTable(Tb(40000), 5)
	counts := map[uint64]int{}
	for r := 0; r < 40000; r++ {
		v := tb.Value(r, PredicateField)
		if v >= PredicateCardinality {
			t.Fatalf("categorical value %d out of range", v)
		}
		counts[v]++
	}
	for v, n := range counts {
		frac := float64(n) / 40000
		if frac < 0.23 || frac > 0.27 {
			t.Fatalf("category %d has share %.3f, want ~0.25", v, frac)
		}
	}
	// "f10 > 2" and "f10 = 3" therefore both select ~25%.
	gt2, eq3 := 0, 0
	for r := 0; r < 40000; r++ {
		v := tb.Value(r, PredicateField)
		if v > 2 {
			gt2++
		}
		if v == 3 {
			eq3++
		}
	}
	if gt2 != eq3 {
		t.Fatal("categorical predicate equivalence broken")
	}
}

func TestNonCategoricalFieldsFullRange(t *testing.T) {
	ta := NewTable(Ta(100), 6)
	big := 0
	for r := 0; r < 100; r++ {
		if ta.Value(r, 9) > 1<<32 {
			big++
		}
	}
	if big < 30 {
		t.Fatal("non-categorical field looks truncated")
	}
}

// TestTableMatchesMapReference drives random SetValue, Append and Value
// sequences against a plain map reference: every read must return the
// last value written to the cell, the appended value for an inserted row,
// or else the generated value of an untouched twin table.
func TestTableMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := Tb(1 + rng.Intn(40))
		if seed%2 == 0 {
			s = Schema{Name: "odd", Fields: 3, Records: rng.Intn(30),
				Categorical: map[int]uint64{1: 5, 7: 2}} // 7 is past the last field
		}
		tb, twin := NewTable(s, uint64(seed)), NewTable(s, uint64(seed))
		ref := map[[2]int]uint64{}
		for step := 0; step < 2000; step++ {
			recs := tb.Records()
			switch op := rng.Intn(10); {
			case op == 0:
				vals := make([]uint64, s.Fields)
				for f := range vals {
					if rng.Intn(3) > 0 {
						vals[f] = rng.Uint64()
					}
				}
				if rec := tb.Append(vals); rec != recs {
					t.Fatalf("seed %d: Append landed at %d, want %d", seed, rec, recs)
				}
				for f, v := range vals {
					ref[[2]int{recs, f}] = v
				}
			case op < 4 && recs > 0:
				rec, f, v := rng.Intn(recs), rng.Intn(s.Fields), rng.Uint64()%7
				tb.SetValue(rec, f, v)
				ref[[2]int{rec, f}] = v
			case recs > 0:
				rec, f := rng.Intn(recs), rng.Intn(s.Fields)
				want, ok := ref[[2]int{rec, f}]
				if !ok {
					want = twin.Value(rec, f)
				}
				if got := tb.Value(rec, f); got != want {
					t.Fatalf("seed %d step %d: Value(%d,%d) = %d, want %d", seed, step, rec, f, got, want)
				}
			}
		}
	}
}

package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sam/internal/design"
)

// TestFig12DeterministicAcrossWorkers asserts the tentpole guarantee: the
// rendered figure table is byte-identical no matter how many workers run
// the sweep grid.
func TestFig12DeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig12 grid skipped in short mode")
	}
	w := tiny()
	serial, err := Fig12(context.Background(), w, Par{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Fig12(context.Background(), w, Par{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if s, p := serial.Table().String(), parallel.Table().String(); s != p {
		t.Fatalf("Fig12 tables differ between -workers=1 and -workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s", s, p)
	}
}

// TestFig15DeterministicAcrossWorkers is the same guarantee for the sweep
// pipelines, which additionally rely on the fixed design column order
// (the old code ranged over a map, so even two serial runs could differ).
func TestFig15DeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep grid skipped in short mode")
	}
	serial, err := Fig15SelectivitySweep(context.Background(), Arithmetic, 8, 256, Par{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Fig15SelectivitySweep(context.Background(), Arithmetic, 8, 256, Par{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if s, p := serial.Table().String(), parallel.Table().String(); s != p {
		t.Fatalf("Fig15 tables differ between -workers=1 and -workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s", s, p)
	}
}

// TestSweepCancellation cancels a sweep from its own progress callback and
// checks it stops promptly with the context error surfaced.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	par := Par{
		Workers: 2,
		Progress: func(done, total int) {
			once.Do(cancel) // cancel as soon as the first point completes
		},
	}
	start := time.Now()
	_, err := Fig15SelectivitySweep(ctx, Arithmetic, 8, 256, par)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// Generous bound: well under what the remaining points would cost, so
	// a sweep that ignores cancellation fails loudly.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("sweep did not stop promptly after cancel: %v", elapsed)
	}
}

// TestRunComparisonPreCancelled asserts no simulation starts on a dead
// context.
func TestRunComparisonPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunComparison(ctx, design.AllEvaluated(), design.Options{}, tiny(), Benchmark()[0], Par{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestRunComparisonJoinsAllErrors feeds an unparseable query so every
// design fails, and checks the joined error names each of them instead of
// dropping all but the first (the pre-runner behaviour).
func TestRunComparisonJoinsAllErrors(t *testing.T) {
	bad := BenchQuery{Name: "Qbad", SQL: "SELEKT nonsense FROM"}
	kinds := []design.Kind{design.SAMEn, design.RCNVMWd}
	_, err := RunComparison(context.Background(), kinds, design.Options{}, tiny(), bad, Par{})
	if err == nil {
		t.Fatal("want error for unparseable query")
	}
	for _, want := range []string{"baseline", "SAM-en", "RC-NVM-wd"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("joined error missing %q: %v", want, err)
		}
	}
}

// TestProgressReporting checks the callback covers the whole grid exactly
// once and in completed order.
func TestProgressReporting(t *testing.T) {
	var mu sync.Mutex
	var last, calls, total int
	par := Par{Workers: 4, Progress: func(done, n int) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if done != last+1 {
			t.Errorf("progress jumped from %d to %d", last, done)
		}
		last, total = done, n
	}}
	q := Benchmark()[2] // Q3
	kinds := []design.Kind{design.SAMEn, design.RCNVMWd}
	if _, err := RunComparison(context.Background(), kinds, design.Options{}, tiny(), q, par); err != nil {
		t.Fatal(err)
	}
	if wantTotal := len(kinds) + 1; total != wantTotal || calls != wantTotal {
		t.Fatalf("progress saw %d/%d runs, want %d (designs + baseline)", calls, total, wantTotal)
	}
}

// TestFig12SmallGolden pins the rendered Fig. 12 table at SmallWorkload
// byte for byte. Hot-path rewrites (lazy stride gathers, bank-preparation
// passes, buffer reuse) must leave every simulated cycle where it was, so
// any drift here is a semantic change, not a rounding artefact. Regenerate
// with `go test ./internal/core -run Fig12SmallGolden -update` only when the
// simulator's semantics change on purpose (and bump memo.SchemaVersion).
func TestFig12SmallGolden(t *testing.T) {
	fig, err := Fig12(context.Background(), SmallWorkload(), Par{})
	if err != nil {
		t.Fatal(err)
	}
	got := fig.Table().String()
	golden := filepath.Join("testdata", "fig12_small.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to generate)", err)
	}
	if got != string(want) {
		t.Fatalf("Fig12 table at SmallWorkload changed:\n--- got ---\n%s\n--- golden ---\n%s", got, want)
	}
}

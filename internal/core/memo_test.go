package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sam/internal/design"
	"sam/internal/imdb"
	"sam/internal/memo"
	"sam/internal/sim"
	"sam/internal/sql"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files (memo salt tripwire, Fig. 12 table)")

// TestMemoKeyCanonicalization is the key-schema property test: every
// semantically meaningful single-field mutation changes the key, and
// semantically identical inputs built different ways collide.
func TestMemoKeyCanonicalization(t *testing.T) {
	w := tiny()
	q := Benchmark()[2] // Q3
	base := func() string {
		return benchRunKey(design.SAMEn, design.Options{}, w, q, false, nil)
	}

	t.Run("mutations", func(t *testing.T) {
		seen := map[string]string{"base": base()}
		distinct := func(label, key string) {
			t.Helper()
			for prev, pk := range seen {
				if pk == key {
					t.Fatalf("%s collides with %s", label, prev)
				}
			}
			seen[label] = key
		}
		distinct("kind", benchRunKey(design.SAMIO, design.Options{}, w, q, false, nil))
		distinct("gran", benchRunKey(design.SAMEn, design.Options{Gran: design.Gran8}, w, q, false, nil))
		distinct("substrate", benchRunKey(design.SAMEn, design.Options{Substrate: design.NVM, SubstrateSet: true}, w, q, false, nil))
		wm := w
		wm.TaRecords++
		distinct("ta-records", benchRunKey(design.SAMEn, design.Options{}, wm, q, false, nil))
		wm = w
		wm.TbRecords++
		distinct("tb-records", benchRunKey(design.SAMEn, design.Options{}, wm, q, false, nil))
		wm = w
		wm.Seed++
		distinct("workload-seed", benchRunKey(design.SAMEn, design.Options{}, wm, q, false, nil))
		qm := q
		qm.SQL += " "
		distinct("sql", benchRunKey(design.SAMEn, design.Options{}, w, qm, false, nil))
		qm = q
		qm.Class = ClassQs
		distinct("class", benchRunKey(design.SAMEn, design.Options{}, w, qm, false, nil))
		qm = q
		qm.Params = sql.Params{"x": 2, "y": 2, "z": 4}
		distinct("param-value", benchRunKey(design.SAMEn, design.Options{}, w, qm, false, nil))
		qm = q
		qm.Params = sql.Params{"x": 2, "y": 2, "z": 3, "w": 0}
		distinct("param-extra", benchRunKey(design.SAMEn, design.Options{}, w, qm, false, nil))
		distinct("colstore", benchRunKey(design.SAMEn, design.Options{}, w, q, true, nil))
		distinct("fault-rate", benchRunKey(design.SAMEn, design.Options{}, w, q, false, &sim.FaultModel{Rate: 1e-3}))
		distinct("fault-rate2", benchRunKey(design.SAMEn, design.Options{}, w, q, false, &sim.FaultModel{Rate: 1e-2}))
		distinct("fault-seed", benchRunKey(design.SAMEn, design.Options{}, w, q, false, &sim.FaultModel{Rate: 1e-3, Seed: 1}))
		distinct("fault-retries", benchRunKey(design.SAMEn, design.Options{}, w, q, false, &sim.FaultModel{Rate: 1e-3, MaxRetries: 5}))
		distinct("fault-dead", benchRunKey(design.SAMEn, design.Options{}, w, q, false, sim.DeadChipFault(3, 9)))
		distinct("fault-dead-chip", benchRunKey(design.SAMEn, design.Options{}, w, q, false, sim.DeadChipFault(4, 9)))
		distinct("fault-weights", benchRunKey(design.SAMEn, design.Options{}, w, q, false,
			&sim.FaultModel{Rate: 1e-3, BitWeight: 1, ChipWeight: 1, CorrelatedWeight: 1}))
		distinct("sweep-shape", sweepRunKey(design.SAMEn, design.Options{}, testSweepSchema(), sweepTableSeed, q.SQL, q.Params, false))
	})

	t.Run("collisions", func(t *testing.T) {
		same := func(label, a, b string) {
			t.Helper()
			if a != b {
				t.Fatalf("%s: keys differ for semantically identical inputs", label)
			}
		}
		// Decorative metadata stays out of the key.
		qm := q
		qm.Name = "renamed"
		qm.IsWrite = !q.IsWrite
		same("name+iswrite", base(), benchRunKey(design.SAMEn, design.Options{}, w, qm, false, nil))
		// Option defaults resolve before keying: the zero Options, explicit
		// Gran4, and an explicit paper-default substrate are one design.
		same("gran-default", base(), benchRunKey(design.SAMEn, design.Options{Gran: design.Gran4}, w, q, false, nil))
		same("substrate-default", base(),
			benchRunKey(design.SAMEn, design.Options{Substrate: design.DRAM, SubstrateSet: true}, w, q, false, nil))
		same("nvm-design-default",
			benchRunKey(design.RCNVMWd, design.Options{}, w, q, false, nil),
			benchRunKey(design.RCNVMWd, design.Options{Substrate: design.NVM, SubstrateSet: true}, w, q, false, nil))
		// Params: nil and empty both bind nothing.
		qn := q
		qn.Params = nil
		qe := q
		qe.Params = sql.Params{}
		same("params-nil-empty",
			benchRunKey(design.SAMEn, design.Options{}, w, qn, false, nil),
			benchRunKey(design.SAMEn, design.Options{}, w, qe, false, nil))
		// Fault: nil, the zero config, and an inactive non-zero config all
		// run fault-free.
		same("fault-nil-zero", base(), benchRunKey(design.SAMEn, design.Options{}, w, q, false, &sim.FaultModel{}))
		same("fault-nil-inactive", base(),
			benchRunKey(design.SAMEn, design.Options{}, w, q, false, &sim.FaultModel{Seed: 99, MaxRetries: 7}))
		// Fault weights: the zero mix is the documented default, and the
		// draw normalizes by the sum.
		mk := func(bw, cw, rw float64) string {
			return benchRunKey(design.SAMEn, design.Options{}, w, q, false,
				&sim.FaultModel{Rate: 1e-3, BitWeight: bw, ChipWeight: cw, CorrelatedWeight: rw})
		}
		same("weights-default", mk(0, 0, 0), mk(0.6, 0.2, 0.2))
		same("weights-scaled", mk(0.6, 0.2, 0.2), mk(6, 2, 2))
	})
}

func testSweepSchema() imdb.Schema {
	return imdb.Schema{Name: "T", Fields: 128, Records: 512}
}

// TestMemoCachedRunsMatch: a memoized RunOne returns results equivalent
// to the plain path, for fault-free and fault-injected runs alike.
func TestMemoCachedRunsMatch(t *testing.T) {
	w := tiny()
	m := NewMemo(MemoOptions{})
	for _, q := range []BenchQuery{Benchmark()[0], Benchmark()[13]} { // Q1, Qs2
		for _, kind := range []design.Kind{design.Baseline, design.SAMEn, design.Ideal} {
			plain, err := RunOne(kind, design.Options{}, w, q)
			if err != nil {
				t.Fatal(err)
			}
			cached, err := m.RunOne(kind, design.Options{}, w, q)
			if err != nil {
				t.Fatal(err)
			}
			if eq, err := sim.ResultsEquivalent(plain, cached); err != nil || !eq {
				t.Fatalf("%s on %v: memoized result differs (eq=%v err=%v)", q.Name, kind, eq, err)
			}
			// Second lookup serves the identical value without recomputing.
			again, err := m.RunOne(kind, design.Options{}, w, q)
			if err != nil {
				t.Fatal(err)
			}
			if again != cached {
				t.Fatalf("%s on %v: hit returned a different value", q.Name, kind)
			}
		}
	}
	ct := m.Counters()
	if ct.Misses != 6 || ct.Hits != 6 {
		t.Fatalf("counters %+v, want 6 misses / 6 hits", ct)
	}
}

// TestMemoDedupAcrossFigures is the in-process acceptance criterion: one
// shared cache across the fig12+fig13+fig14 pipelines must cut executed
// simulations by at least 30% — and produce byte-identical figures.
func TestMemoDedupAcrossFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-figure sweep")
	}
	ctx := context.Background()
	w := tiny()
	m := NewMemo(MemoOptions{})
	par := Par{Workers: 4, Memo: m}

	fig12, err := Fig12(ctx, w, par)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fig13(ctx, w, par); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig14a(ctx, w, par); err != nil {
		t.Fatal(err)
	}
	fig14b, err := Fig14b(ctx, w, par)
	if err != nil {
		t.Fatal(err)
	}

	ct := m.Counters()
	lookups := ct.Lookups()
	saved := lookups - ct.Misses
	t.Logf("memo: %v", ct)
	if lookups == 0 || ct.InflightDedup+ct.Hits != saved {
		t.Fatalf("counter bookkeeping off: %+v", ct)
	}
	if frac := float64(saved) / float64(lookups); frac < 0.30 {
		t.Fatalf("dedup saved %.1f%% of %d simulations, acceptance floor is 30%%", frac*100, lookups)
	}

	// Figures are byte-identical to the uncached pipelines.
	plain12, err := Fig12(ctx, w, Par{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fig12.Table().String(), plain12.Table().String(); got != want {
		t.Fatalf("fig12 differs under memoization:\n%s\nvs\n%s", got, want)
	}
	plain14b, err := Fig14b(ctx, w, Par{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fig14b.Table().String(), plain14b.Table().String(); got != want {
		t.Fatal("fig14b differs under memoization")
	}
}

// TestMemoSweepPoint: the Fig. 15 sweep driver honors Par.Memo — repeat
// points hit, and speedups are bit-identical to the uncached run.
func TestMemoSweepPoint(t *testing.T) {
	ctx := context.Background()
	p := SweepPoint{Query: Arithmetic, Selectivity: 0.25, Projected: 4}
	const records = 512
	plain, err := RunSweepPoint(ctx, p, records, Par{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMemo(MemoOptions{})
	cached, err := RunSweepPoint(ctx, p, records, Par{Workers: 2, Memo: m})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, cached) {
		t.Fatalf("sweep speedups differ under memoization:\n%v\nvs\n%v", cached, plain)
	}
	if ct := m.Counters(); ct.Misses == 0 {
		t.Fatalf("first sweep recorded no misses: %+v", ct)
	}
	before := m.Counters().Misses
	again, err := RunSweepPoint(ctx, p, records, Par{Workers: 2, Memo: m})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, again) {
		t.Fatal("warm sweep speedups differ")
	}
	if ct := m.Counters(); ct.Misses != before {
		t.Fatalf("warm sweep recomputed: %+v", ct)
	}
}

// TestMemoReliability: the reliability campaign honors Par.Memo with
// bit-identical results, and a warm cache replays the grid without
// simulating.
func TestMemoReliability(t *testing.T) {
	ctx := context.Background()
	camp := testCampaign()
	plain, err := RunReliability(ctx, camp, Par{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMemo(MemoOptions{})
	cached, err := RunReliability(ctx, camp, Par{Workers: 4, Memo: m})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, cached) {
		t.Fatal("reliability results differ under memoization")
	}
	warm, err := RunReliability(ctx, camp, Par{Workers: 4, Memo: m})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, warm) {
		t.Fatal("warm reliability results differ")
	}
	ct := m.Counters()
	cells := uint64(len(camp.Cells()))
	if ct.Misses != cells || ct.Hits != cells {
		t.Fatalf("counters %+v, want %d misses and %d hits", ct, cells, cells)
	}
}

// sameSpeedups compares comparison outcomes under the codec's semantic
// equality (a disk-decoded Result is equivalent to, not DeepEqual with,
// the computed one: the encoding erases nil-vs-empty map distinctions).
func sameSpeedups(t *testing.T, a, b []SpeedupResult) bool {
	t.Helper()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Query != b[i].Query || a[i].Design != b[i].Design || a[i].Speedup != b[i].Speedup {
			return false
		}
		eq, err := sim.ResultsEquivalent(a[i].Result, b[i].Result)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			return false
		}
	}
	return true
}

// TestMemoDiskWarm: a fresh process (modeled as a fresh Memo) over the
// same cache directory serves every run from disk.
func TestMemoDiskWarm(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	w := tiny()
	q := Benchmark()[2] // Q3
	kinds := []design.Kind{design.SAMEn, design.SAMIO}

	cold := NewMemo(MemoOptions{Dir: dir})
	first, err := RunComparison(ctx, kinds, design.Options{}, w, q, Par{Workers: 2, Memo: cold})
	if err != nil {
		t.Fatal(err)
	}
	if ct := cold.Counters(); ct.Misses != 3 { // baseline + 2 designs
		t.Fatalf("cold counters %+v, want 3 misses", ct)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.memo"))
	if err != nil || len(entries) != 3 {
		t.Fatalf("disk tier holds %d entries (err=%v), want 3", len(entries), err)
	}

	warm := NewMemo(MemoOptions{Dir: dir})
	second, err := RunComparison(ctx, kinds, design.Options{}, w, q, Par{Workers: 2, Memo: warm})
	if err != nil {
		t.Fatal(err)
	}
	ct := warm.Counters()
	if ct.Misses != 0 || ct.DiskHits != 3 {
		t.Fatalf("warm counters %+v, want 0 misses / 3 disk hits", ct)
	}
	if !sameSpeedups(t, first, second) {
		t.Fatalf("warm speedups differ:\n%v\nvs\n%v", second, first)
	}

	// Corrupting one entry degrades to recomputation, never a wrong result.
	if err := os.WriteFile(entries[0], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	repair := NewMemo(MemoOptions{Dir: dir})
	third, err := RunComparison(ctx, kinds, design.Options{}, w, q, Par{Workers: 2, Memo: repair})
	if err != nil {
		t.Fatal(err)
	}
	if !sameSpeedups(t, first, third) {
		t.Fatal("recovery run differs")
	}
	ct = repair.Counters()
	if ct.Misses != 1 || ct.DiskHits != 2 || ct.Corrupt != 1 {
		t.Fatalf("recovery counters %+v, want 1 miss / 2 disk hits / 1 corrupt", ct)
	}
}

// memoProbeDigest hashes the encoded results of a fixed probe set — a
// fault-free strided read, a baseline scan, and a fault-injected run —
// so the digest moves whenever simulator semantics move.
func memoProbeDigest(t *testing.T) string {
	t.Helper()
	w := Workload{TaRecords: 256, TbRecords: 512, Seed: 0xBEEF}
	h := sha256.New()
	feed := func(r *sim.QueryResult, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		b, err := sim.EncodeResult(r)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		h.Write([]byte{0})
	}
	feed(RunOne(design.SAMEn, design.Options{}, w, Benchmark()[2]))     // strided Q read
	feed(RunOne(design.Baseline, design.Options{}, w, Benchmark()[13])) // row-wise Qs scan
	feed(RunOneFaulted(design.SAMEn, design.Options{}, w, Benchmark()[2], sim.DeadChipFault(7, 42)))
	return hex.EncodeToString(h.Sum(nil))
}

// TestMemoSaltTripwire pins (memo.SchemaVersion, probe digest) as a
// golden pair. If simulator semantics change — the probe digest moves —
// without bumping memo.SchemaVersion, this test fails: stale disk caches
// would silently serve wrong results. Bumping the version requires
// regenerating the golden with `go test ./internal/core -run SaltTripwire -update`.
func TestMemoSaltTripwire(t *testing.T) {
	digest := memoProbeDigest(t)
	golden := filepath.Join("testdata", "memo_salt.golden")
	body := fmt.Sprintf("schema %s\nprobe %s\n", memo.SchemaVersion, digest)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to generate)", err)
	}
	lines := strings.Split(strings.TrimSpace(string(want)), "\n")
	if len(lines) != 2 {
		t.Fatalf("malformed golden %q", want)
	}
	goldSchema := strings.TrimPrefix(lines[0], "schema ")
	goldProbe := strings.TrimPrefix(lines[1], "probe ")
	if digest != goldProbe && memo.SchemaVersion == goldSchema {
		t.Fatalf("simulator output changed (probe %s, golden %s) but memo.SchemaVersion is still %q — "+
			"stale caches would serve wrong results; bump the version and regenerate with -update",
			digest[:12], goldProbe[:12], memo.SchemaVersion)
	}
	if memo.SchemaVersion != goldSchema {
		t.Fatalf("memo.SchemaVersion is %q, golden pins %q — regenerate the golden with -update",
			memo.SchemaVersion, goldSchema)
	}
}

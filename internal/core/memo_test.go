package core

import (
	"bytes"
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
	"sam/internal/fault"
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
	base := RunSpec{Design: design.SAMEn, Workload: w, Query: q}
	with := func(edit func(*RunSpec)) string {
		s := base
		edit(&s)
		return s.Key()
	}

	t.Run("mutations", func(t *testing.T) {
		seen := map[string]string{"base": base.Key()}
		distinct := func(label, key string) {
			t.Helper()
			for prev, pk := range seen {
				if pk == key {
					t.Fatalf("%s collides with %s", label, prev)
				}
			}
			seen[label] = key
		}
		distinct("kind", with(func(s *RunSpec) { s.Design = design.SAMIO }))
		distinct("gran", with(func(s *RunSpec) { s.Options.Gran = design.Gran8 }))
		distinct("substrate", with(func(s *RunSpec) { s.Options = design.Options{Substrate: design.NVM, SubstrateSet: true} }))
		distinct("ta-records", with(func(s *RunSpec) { s.Workload.TaRecords++ }))
		distinct("tb-records", with(func(s *RunSpec) { s.Workload.TbRecords++ }))
		distinct("workload-seed", with(func(s *RunSpec) { s.Workload.Seed++ }))
		distinct("sql", with(func(s *RunSpec) { s.Query.SQL += " " }))
		distinct("class", with(func(s *RunSpec) { s.Query.Class = ClassQs }))
		distinct("param-value", with(func(s *RunSpec) { s.Query.Params = sql.Params{"x": 2, "y": 2, "z": 4} }))
		distinct("param-extra", with(func(s *RunSpec) { s.Query.Params = sql.Params{"x": 2, "y": 2, "z": 3, "w": 0} }))
		// The Ideal design runs Q-class queries on the column store, so
		// its key differs from the row-store key of the same class switch.
		distinct("ideal-colstore", with(func(s *RunSpec) { s.Design = design.Ideal }))
		distinct("ideal-rowstore", with(func(s *RunSpec) { s.Design, s.Query.Class = design.Ideal, ClassQs }))
		distinct("fault-rate", with(func(s *RunSpec) { s.Faults = &sim.FaultModel{Rate: 1e-3} }))
		distinct("fault-rate2", with(func(s *RunSpec) { s.Faults = &sim.FaultModel{Rate: 1e-2} }))
		distinct("fault-seed", with(func(s *RunSpec) { s.Faults = &sim.FaultModel{Rate: 1e-3, Seed: 1} }))
		distinct("fault-retries", with(func(s *RunSpec) { s.Faults = &sim.FaultModel{Rate: 1e-3, MaxRetries: 5} }))
		distinct("fault-dead", with(func(s *RunSpec) { s.Faults = deadChip(3, 9) }))
		distinct("fault-dead-chip", with(func(s *RunSpec) { s.Faults = deadChip(4, 9) }))
		distinct("fault-weights", with(func(s *RunSpec) {
			s.Faults = &sim.FaultModel{Rate: 1e-3, BitWeight: 1, ChipWeight: 1, CorrelatedWeight: 1}
		}))
		distinct("sweep-shape", with(func(s *RunSpec) { s.Table = &imdb.Schema{Name: "T", Fields: 128, Records: 512} }))
		distinct("sweep-fields", with(func(s *RunSpec) { s.Table = &imdb.Schema{Name: "T", Fields: 64, Records: 512} }))
		distinct("sweep-records", with(func(s *RunSpec) { s.Table = &imdb.Schema{Name: "T", Fields: 128, Records: 256} }))
	})

	t.Run("collisions", func(t *testing.T) {
		same := func(label, a, b string) {
			t.Helper()
			if a != b {
				t.Fatalf("%s: keys differ for semantically identical inputs", label)
			}
		}
		// Decorative metadata stays out of the key.
		same("name+iswrite", base.Key(), with(func(s *RunSpec) { s.Query.Name, s.Query.IsWrite = "renamed", !q.IsWrite }))
		// Option defaults resolve before keying: the zero Options, explicit
		// Gran4, and an explicit paper-default substrate are one design.
		same("gran-default", base.Key(), with(func(s *RunSpec) { s.Options.Gran = design.Gran4 }))
		same("substrate-default", base.Key(),
			with(func(s *RunSpec) { s.Options = design.Options{Substrate: design.DRAM, SubstrateSet: true} }))
		same("nvm-design-default",
			with(func(s *RunSpec) { s.Design = design.RCNVMWd }),
			with(func(s *RunSpec) {
				s.Design, s.Options = design.RCNVMWd, design.Options{Substrate: design.NVM, SubstrateSet: true}
			}))
		// Params: nil and empty both bind nothing.
		same("params-nil-empty",
			with(func(s *RunSpec) { s.Query.Params = nil }),
			with(func(s *RunSpec) { s.Query.Params = sql.Params{} }))
		// Fault: nil, the zero config, and an inactive non-zero config all
		// run fault-free.
		same("fault-nil-zero", base.Key(), with(func(s *RunSpec) { s.Faults = &sim.FaultModel{} }))
		same("fault-nil-inactive", base.Key(), with(func(s *RunSpec) { s.Faults = &sim.FaultModel{Seed: 99, MaxRetries: 7} }))
		// Fault weights: the zero mix is the documented default, and the
		// draw normalizes by the sum.
		mk := func(bw, cw, rw float64) string {
			return with(func(s *RunSpec) {
				s.Faults = &sim.FaultModel{Rate: 1e-3, BitWeight: bw, ChipWeight: cw, CorrelatedWeight: rw}
			})
		}
		same("weights-default", mk(0, 0, 0), mk(0.6, 0.2, 0.2))
		same("weights-scaled", mk(0.6, 0.2, 0.2), mk(6, 2, 2))
	})
}

// deadChip is the single-dead-chip model (samsim -fault-chips N builds the
// same): chip dead on every rank, everything else default.
func deadChip(chip int, seed uint64) *sim.FaultModel {
	return &sim.FaultModel{Seed: seed, DeadChips: []fault.ChipFault{{Rank: -1, Chip: chip}}}
}

// TestMemoCachedRunsMatch: a memoized run returns results equivalent to
// the plain path.
func TestMemoCachedRunsMatch(t *testing.T) {
	ctx := context.Background()
	m := NewMemo(MemoOptions{})
	for _, q := range []BenchQuery{Benchmark()[0], Benchmark()[13]} { // Q1, Qs2
		for _, kind := range []design.Kind{design.Baseline, design.SAMEn, design.Ideal} {
			spec := RunSpec{Design: kind, Workload: tiny(), Query: q}
			plain, err := spec.Run()
			if err != nil {
				t.Fatal(err)
			}
			cached, out, err := m.Run(ctx, spec)
			if err != nil || out != memo.Miss {
				t.Fatalf("%s on %v: first run %v (err %v), want a miss", q.Name, kind, out, err)
			}
			if !bytes.Equal(encode(plain), encode(cached)) {
				t.Fatalf("%s on %v: memoized result differs", q.Name, kind)
			}
			// Second lookup serves the identical value without recomputing.
			again, out, err := m.Run(ctx, spec)
			if err != nil || out != memo.Hit {
				t.Fatalf("%s on %v: second run %v (err %v), want a hit", q.Name, kind, out, err)
			}
			if again != cached {
				t.Fatalf("%s on %v: hit returned a different value", q.Name, kind)
			}
			if r, out, ok := m.Lookup(spec); !ok || out != memo.Hit || r != cached {
				t.Fatalf("%s on %v: Lookup = (%v, %v), want the cached hit", q.Name, kind, out, ok)
			}
		}
	}
	ct := m.Counters()
	if ct.Misses != 6 || ct.Hits != 12 {
		t.Fatalf("counters %+v, want 6 misses / 12 hits", ct)
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
		if !bytes.Equal(encode(a[i].Result), encode(b[i].Result)) {
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
	feed(RunSpec{Design: design.SAMEn, Workload: w, Query: Benchmark()[2]}.Run())     // strided Q read
	feed(RunSpec{Design: design.Baseline, Workload: w, Query: Benchmark()[13]}.Run()) // row-wise Qs scan
	feed(RunSpec{Design: design.SAMEn, Workload: w, Query: Benchmark()[2], Faults: deadChip(7, 42)}.Run())
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

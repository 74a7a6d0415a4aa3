package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"testing"

	"sam/internal/cache"
	"sam/internal/design"
	"sam/internal/dram"
	"sam/internal/etrace"
	"sam/internal/fault"
	"sam/internal/imdb"
	"sam/internal/sql"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/multichannel.golden")

func systemFor(kind design.Kind) *System {
	s := NewSystem(design.New(kind, design.Options{}))
	s.AddTable(imdb.NewTable(imdb.Ta(64), 1), false)
	return s
}

func engineFor(kind design.Kind) *engine {
	s := systemFor(kind)
	return newLogEngine(s, newMissLog(s, []ClockVariant{ClockVariantOf(s.Design)}))
}

func TestSpendAccumulatesFractions(t *testing.T) {
	e := engineFor(design.Baseline)
	// 1 CPU cycle = 0.3/4-core = 0.075 bus cycles; 40 of them = 3 cycles.
	for i := 0; i < 40; i++ {
		e.spend(e.sys.CPU.BusCyclesPer(1, e.sys.Design.Mem.ClockMHz))
	}
	c := e.clocks[0]
	total := float64(c.now) + c.frac
	if total < 2.999 || total > 3.001 {
		t.Fatalf("clock+frac = %v after 40x1 CPU cycles, want ~3", total)
	}
	if c.frac < 0 || c.frac >= 1 {
		t.Fatalf("fraction accumulator out of range: %v", c.frac)
	}
}

func TestMemOpRequestMapping(t *testing.T) {
	b := newBackEnd(systemFor(design.SAMEn))
	// Sectored op on a strided design becomes a strided request.
	r := b.memOpRequest(cache.MemOp{Addr: 0x40, IsWrite: true, Sectored: true}, 2, true)
	if !r.Stride || !r.Gang || r.Lane != 2 || !r.IsWrite {
		t.Fatalf("strided writeback mapping: %+v", r)
	}
	// Non-sectored op stays regular even with gang requested.
	r = b.memOpRequest(cache.MemOp{Addr: 0x40}, 2, true)
	if r.Stride || r.Gang {
		t.Fatalf("regular op mapped strided: %+v", r)
	}
	// Baseline designs never stride.
	be := newBackEnd(systemFor(design.Baseline))
	r = be.memOpRequest(cache.MemOp{Addr: 0x40, Sectored: true}, 0, false)
	if r.Stride {
		t.Fatal("baseline op mapped strided")
	}
}

func TestEngineRunRelativeBase(t *testing.T) {
	d := design.New(design.Baseline, design.Options{})
	s := NewSystem(d)
	s.AddTable(imdb.NewTable(imdb.Ta(64), 1), false)
	// Drive some traffic, then a fresh back end must snapshot a nonzero t0.
	if _, err := s.RunQuery("SELECT f1 FROM Ta WHERE f0 < 99", nil); err != nil {
		t.Fatal(err)
	}
	b := newBackEnd(s)
	if b.t0 == 0 {
		t.Fatal("second back end did not snapshot the warm timeline")
	}
	if b.devBase[0].Reads == 0 {
		t.Fatal("device stats baseline not captured")
	}
}

func TestFaultInjectorWiring(t *testing.T) {
	d := design.New(design.SAMEn, design.Options{})
	s := NewSystem(d)
	s.Faults = deadChip(3, 9)
	s.AddTable(imdb.NewTable(imdb.Ta(64), 1), false)
	b := newBackEnd(s)
	if len(b.injectors) != s.Channels() {
		t.Fatalf("%d injectors for %d channels", len(b.injectors), s.Channels())
	}
	for ch := 0; ch < s.Channels(); ch++ {
		if s.devices[ch].Probe == nil {
			t.Fatalf("channel %d device has no probe", ch)
		}
		if v := b.injectors[ch].DataBurst(dram.Command{Kind: dram.CmdRD}, 0); v != dram.BurstCorrected {
			t.Fatalf("channel %d dead-chip burst verdict %v, want corrected", ch, v)
		}
	}
	// Channels must draw independent fault streams from one run seed.
	if s.Channels() > 1 && channelFaultSeed(9, 0) == channelFaultSeed(9, 1) {
		t.Fatal("channel fault seeds collide")
	}
	// A later clean back end on the same warm system detaches every probe.
	s.Faults = nil
	newBackEnd(s)
	for ch := 0; ch < s.Channels(); ch++ {
		if s.devices[ch].Probe != nil {
			t.Fatalf("channel %d probe survived a clean run", ch)
		}
	}

	// GS-DRAM (no ECC): every biting fault is silent corruption.
	g := design.New(design.GSDRAM, design.Options{})
	gs := NewSystem(g)
	gs.Faults = deadChip(3, 9)
	gs.AddTable(imdb.NewTable(imdb.Ta(64), 2), false)
	ge := newBackEnd(gs)
	ge.injectors[0].DataBurst(dram.Command{Kind: dram.CmdRD}, 0)
	if c := ge.injectors[0].Counters; c.SilentCorruptions != 1 || c.CorrectedBursts != 0 {
		t.Fatalf("no-ECC fault path: %+v", c)
	}
}

func TestStatsDeltaHelpers(t *testing.T) {
	a := engineFor(design.Baseline)
	cur := a.sys.devices[0].Stats.Clone()
	cur.Reads = 10
	cur.Acts = 4
	cur.PerBank[0].Acts = 4
	base := cur.Clone()
	base.Reads = 3
	base.Acts = 1
	base.PerBank[0].Acts = 1
	d := cur.Sub(base)
	if d.Reads != 7 || d.Acts != 3 || d.PerBank[0].Acts != 3 {
		t.Fatalf("device delta: %+v", d)
	}
	sum := d.Clone()
	sum.Add(d)
	if sum.Reads != 14 || sum.PerBank[0].Acts != 6 {
		t.Fatalf("device sum: %+v", sum)
	}
	if base.PerBank[0].Acts != 1 {
		t.Fatalf("baseline aliased the per-bank slice: %+v", base.PerBank[0])
	}
}

func TestRunStatsObservability(t *testing.T) {
	d := design.New(design.SAMEn, design.Options{})
	s := NewSystem(d)
	s.AddTable(imdb.NewTable(imdb.Ta(512), 3), false)
	r, err := s.RunQuery("SELECT SUM(f9) FROM Ta WHERE f10 > 1", nil)
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats
	if st.Metrics == nil {
		t.Fatal("run produced no metrics snapshot")
	}
	// The strided design issues both classes of read; every class that saw
	// traffic must be a registered histogram, and total latency
	// observations must cover every memory request.
	var latTotal uint64
	for _, name := range []string{
		"mc.lat.read.normal", "mc.lat.read.stride",
		"mc.lat.write.normal", "mc.lat.write.stride",
	} {
		h, ok := st.Metrics.Histograms[name]
		if !ok {
			t.Fatalf("histogram %s not in snapshot", name)
		}
		latTotal += h.Total
	}
	if latTotal != st.MemRequests {
		t.Fatalf("latency observations %d != memory requests %d", latTotal, st.MemRequests)
	}
	if st.Metrics.Histograms["mc.lat.read.stride"].Total == 0 {
		t.Fatal("SAM-en run recorded no strided reads")
	}
	// Per-bank accounting: sums must match the device-wide tallies, and
	// the per-bank energy split must cover the ActPre total.
	var acts, hits uint64
	for _, b := range st.Device.PerBank {
		acts += b.Acts
		hits += b.RowHits
	}
	if acts != st.Device.Acts {
		t.Fatalf("per-bank Acts sum %d != device Acts %d", acts, st.Device.Acts)
	}
	if acts > 0 && hits == 0 {
		t.Fatal("streaming scan recorded no per-bank row hits")
	}
	if len(st.BankActPreNJ) != len(st.Device.PerBank) {
		t.Fatalf("BankActPreNJ length %d != PerBank length %d", len(st.BankActPreNJ), len(st.Device.PerBank))
	}
	var bankE float64
	for _, e := range st.BankActPreNJ {
		bankE += e
	}
	if diff := bankE - st.Energy.ActPre; diff > 1e-6*st.Energy.ActPre || diff < -1e-6*st.Energy.ActPre {
		t.Fatalf("per-bank ActPre %v != breakdown ActPre %v", bankE, st.Energy.ActPre)
	}
	// The whole report must serialize to valid, round-trippable JSON.
	enc, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back RunStats
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatalf("run stats JSON does not round-trip: %v", err)
	}
	if back.Metrics == nil || back.Metrics.Histograms["mc.lat.read.stride"].Total != st.Metrics.Histograms["mc.lat.read.stride"].Total {
		t.Fatal("metrics lost in JSON round trip")
	}
}

// twoChipFaults is a two-chip persistent map plus a transient rate on an
// SSC-DSD layout: dead chip + stuck DQ exceed the codec's correction
// radius, so a run exercises the full DUE -> retry -> poison path.
func twoChipFaults() *FaultModel {
	return &FaultModel{
		Seed:       0xD1FF5EED,
		Rate:       1e-3,
		DeadChips:  []fault.ChipFault{{Rank: -1, Chip: 2}},
		StuckDQs:   []fault.StuckDQ{{Rank: -1, Chip: 5, DQ: 1, Value: 1}},
		MaxRetries: 1,
	}
}

// checkSamplerReconciles asserts the windowed sampler contract for one
// run: sample times strictly increase, none lies beyond the run's end, and
// the final cumulative totals equal the RunStats exactly.
func checkSamplerReconciles(t *testing.T, sp *etrace.Sampler, rs RunStats) {
	t.Helper()
	if len(sp.Samples) < 2 {
		t.Fatalf("sampler recorded %d samples", len(sp.Samples))
	}
	for i := 1; i < len(sp.Samples); i++ {
		if sp.Samples[i].At <= sp.Samples[i-1].At {
			t.Fatalf("sample times not strictly increasing at %d: %d then %d",
				i, sp.Samples[i-1].At, sp.Samples[i].At)
		}
	}
	last := sp.Samples[len(sp.Samples)-1]
	if last.At > int64(rs.Cycles) {
		t.Fatalf("last sample at %d beyond run end %d", last.At, rs.Cycles)
	}
	if last.Ctl != rs.Controller {
		t.Fatalf("final sample controller totals diverge from RunStats:\n%+v\n%+v", last.Ctl, rs.Controller)
	}
	if last.Dev.Acts != rs.Device.Acts || last.Dev.Reads != rs.Device.Reads ||
		last.Dev.Writes != rs.Device.Writes || last.Dev.Refs != rs.Device.Refs ||
		last.Dev.BusBusyCycles != rs.Device.BusBusyCycles {
		t.Fatalf("final sample device totals diverge from RunStats:\n%+v\n%+v", last.Dev, rs.Device)
	}
	if !reflect.DeepEqual(last.Dev.PerBank, rs.Device.PerBank) {
		t.Fatal("final sample per-bank totals diverge from RunStats")
	}
}

// multiChannelRun builds a fully instrumented SAM-en system with the given
// channel count and ShardWorkers setting — audit, two-chip-plus-transient
// faults, event ring — and runs a strided scan and an update on it warm.
// With sampled set, each query runs under a fresh windowed sampler that
// must reconcile with the query's RunStats. It returns the per-query
// results, the system and the event ring.
func multiChannelRun(t *testing.T, channels, shardWorkers int, sampled bool) ([]*QueryResult, *System, *etrace.Buffer) {
	t.Helper()
	d := design.New(design.SAMEn, design.Options{Gran: design.Gran4})
	d.Mem.Geometry.Channels = channels
	s := NewSystem(d)
	s.Audit = true
	s.reset()
	s.ShardWorkers = shardWorkers
	s.Faults = twoChipFaults()
	buf := etrace.NewBuffer(0)
	s.AttachEventTrace(buf, nil)
	s.AddTable(imdb.NewTable(imdb.Ta(1024), 0xABCD), false)
	s.AddTable(imdb.NewTable(imdb.Tb(256), 0xABCE), false)
	var out []*QueryResult
	for _, q := range []struct {
		query  string
		params sql.Params
	}{
		{"SELECT SUM(f9) FROM Ta WHERE f10 > x", sel25()},
		{"UPDATE Tb SET f3 = x WHERE f10 = y", sql.Params{"x": 5, "y": 3}},
	} {
		var sp *etrace.Sampler
		if sampled {
			sp = etrace.NewSampler(256)
		}
		s.Sampler = sp
		r, err := s.RunQuery(q.query, q.params)
		if err != nil {
			t.Fatal(err)
		}
		if sp != nil {
			checkSamplerReconciles(t, sp, r.Stats)
		}
		out = append(out, r)
	}
	if !auditOK(s) {
		t.Fatalf("ch=%d workers=%d: protocol violations", channels, shardWorkers)
	}
	return out, s, buf
}

// TestMultiChannelFrozen pins multi-channel runs bit for bit against
// testdata/multichannel.golden. For 1, 2 and 4 channels it runs
// multiChannelRun and records SHA-256 digests of each query's encoded
// result, each channel's audited command stream and the event ring. The
// 4-channel run also checks that the windowed sampler reconciles with
// every query's RunStats. Regenerate with
// `go test ./internal/sim -run MultiChannelFrozen -update` only for an
// intended change to simulated behaviour.
func TestMultiChannelFrozen(t *testing.T) {
	var got bytes.Buffer
	for _, channels := range []int{1, 2, 4} {
		results, s, buf := multiChannelRun(t, channels, 0, channels == 4)
		// The run must exercise the fault paths the golden pins.
		if rs := results[0].Stats; rs.Reliability == nil || rs.Reliability.DUEs == 0 ||
			rs.Controller.Retries == 0 || rs.Controller.Poisoned == 0 {
			t.Fatalf("ch=%d: no DUE/retry/poison traffic: %+v", channels, rs.Reliability)
		}
		for i, r := range results {
			enc, err := EncodeResult(r)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "ch=%d query=%d result %x\n", channels, i, sha256.Sum256(enc))
		}
		for ch := 0; ch < channels; ch++ {
			h := sha256.New()
			for _, tc := range s.controllers[ch].Audit.History() {
				fmt.Fprintf(h, "%+v\n", tc)
			}
			fmt.Fprintf(&got, "ch=%d channel=%d commands %x\n", channels, ch, h.Sum(nil))
		}
		h := sha256.New()
		for _, ev := range buf.Events() {
			fmt.Fprintf(h, "%+v\n", ev)
		}
		fmt.Fprintf(&got, "ch=%d events=%d ring %x\n", channels, buf.Len(), h.Sum(nil))
	}
	const golden = "testdata/multichannel.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to generate)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("multi-channel runs diverge from %s:\ngot:\n%s\nwant:\n%s", golden, got.Bytes(), want)
	}
}

// TestShardedEngineDifferential pins the deprecated System.ShardWorkers
// field, which sam/perfbench still sets on its 4-channel workload, as a
// no-op: for every channel and worker count the removed sharded engine was
// differenced over, a run with ShardWorkers set must match the default
// run bit for bit — results including RunStats and Reliability counters,
// each channel's audited command stream and the event ring.
func TestShardedEngineDifferential(t *testing.T) {
	for _, channels := range []int{1, 2, 4} {
		ref, refSys, refBuf := multiChannelRun(t, channels, 0, false)
		for _, workers := range []int{1, 2, 8} {
			got, gotSys, gotBuf := multiChannelRun(t, channels, workers, false)
			for i := range ref {
				if !reflect.DeepEqual(ref[i], got[i]) {
					t.Errorf("ch=%d workers=%d query %d: results diverge from the default run\ndefault: %+v\nworkers: %+v",
						channels, workers, i, ref[i].Stats, got[i].Stats)
				}
			}
			for ch := 0; ch < channels; ch++ {
				refH := refSys.controllers[ch].Audit.History()
				gotH := gotSys.controllers[ch].Audit.History()
				if !reflect.DeepEqual(refH, gotH) {
					t.Errorf("ch=%d workers=%d: channel %d audited command stream diverges (%d vs %d commands)",
						channels, workers, ch, len(refH), len(gotH))
				}
			}
			if !reflect.DeepEqual(refBuf.Events(), gotBuf.Events()) {
				t.Errorf("ch=%d workers=%d: event rings diverge (%d vs %d events)",
					channels, workers, refBuf.Len(), gotBuf.Len())
			}
		}
	}
}

// TestShardedSamplerReconciles checks the windowed sampler contract on a
// baseline 4-channel scan configured the way sam/perfbench configures its
// 4-channel workload, with the deprecated ShardWorkers field set.
func TestShardedSamplerReconciles(t *testing.T) {
	d := design.New(design.Baseline, design.Options{})
	d.Mem.Geometry.Channels = 4
	s := NewSystem(d)
	s.ShardWorkers = 4
	sp := etrace.NewSampler(256)
	s.AttachEventTrace(etrace.NewBuffer(0), sp)
	s.AddTable(imdb.NewTable(imdb.Ta(2048), 0xC0DE), false)
	r, err := s.RunQuery("SELECT SUM(f9) FROM Ta WHERE f10 > x", sel25())
	if err != nil {
		t.Fatal(err)
	}
	checkSamplerReconciles(t, sp, r.Stats)
}

// TestWarmSystemRetryBudget is the regression test for the stale
// retry-budget bug: SetMaxRetries mutates controller state in place, and
// the engine used to apply it only for positive budgets — so running a
// budget-5 campaign point and then a budget-0 point ("poison immediately
// on the first DUE", per mc.Config) on the same warm system silently ran
// the second point with a budget of 5.
func TestWarmSystemRetryBudget(t *testing.T) {
	d := design.New(design.SAMEn, design.Options{Gran: design.Gran4})
	s := NewSystem(d)
	s.AddTable(imdb.NewTable(imdb.Ta(1024), 0xBEEF), false)
	s.AddTable(imdb.NewTable(imdb.Tb(1024), 0xBEF0), false)
	// Each campaign point scans a table the warm caches have not seen, so
	// every point drives real DRAM bursts through the injector.
	run := func(fm *FaultModel, query string) RunStats {
		s.Faults = fm
		r, err := s.RunQuery(query, sel25())
		if err != nil {
			t.Fatal(err)
		}
		return r.Stats
	}

	budget5 := twoChipFaults()
	budget5.MaxRetries = 5
	a := run(budget5, "SELECT SUM(f9) FROM Ta WHERE f10 > x")
	if a.Reliability.DUEs == 0 || a.Controller.Retries == 0 {
		t.Fatalf("budget-5 run produced no DUE/retry traffic (DUEs=%d retries=%d): fault model too weak for the regression",
			a.Reliability.DUEs, a.Controller.Retries)
	}

	budget0 := twoChipFaults()
	budget0.MaxRetries = 0
	b := run(budget0, "SELECT SUM(f9) FROM Tb WHERE f10 > x")
	if b.Reliability.DUEs == 0 {
		t.Fatalf("budget-0 run produced no DUEs")
	}
	if b.Controller.Retries != 0 {
		t.Fatalf("budget-0 warm run retried %d times: the previous run's budget leaked into it", b.Controller.Retries)
	}
	if b.Controller.Poisoned == 0 {
		t.Fatal("budget-0 run poisoned nothing: first DUEs must poison immediately")
	}
}

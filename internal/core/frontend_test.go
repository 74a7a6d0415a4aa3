package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"sam/internal/design"
	"sam/internal/runner"
	"sam/internal/sim"
)

// recording is one spec's miss log with the replay of it at the spec's
// own clock.
type recording struct {
	spec RunSpec
	sh   sharing
	res  *sim.QueryResult
	log  *sim.MissLog
}

// recordAll records every spec's front end, in parallel, each with one
// clock per variant of its front-end class, as runGrid's recordings keep,
// and replays it into the spec's back end.
func recordAll(t *testing.T, specs []RunSpec) []recording {
	t.Helper()
	shares := make([]sharing, len(specs))
	clocks := map[string][]sim.ClockVariant{}
	for i, s := range specs {
		shares[i] = s.sharing()
		clocks[shares[i].front] = append(clocks[shares[i].front], shares[i].clock)
	}
	for k, cs := range clocks {
		slices.Sort(cs)
		clocks[k] = slices.Compact(cs)
	}
	out, err := runner.Map(context.Background(), specs, runner.Options{},
		func(_ context.Context, i int, s RunSpec) (recording, error) {
			l, err := s.record(clocks[shares[i].front])
			if err != nil {
				return recording{}, err
			}
			return recording{spec: s, sh: shares[i], res: s.replay(l, shares[i].clock), log: l}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// partition renders how recs split into classes by f: members in input
// order, classes in order of their first member.
func partition(recs []recording, f func(recording) string) string {
	var order []string
	classes := map[string][]string{}
	for _, r := range recs {
		k := f(r)
		if _, ok := classes[k]; !ok {
			order = append(order, k)
		}
		classes[k] = append(classes[k], r.spec.Design.String())
	}
	var parts []string
	for _, k := range order {
		parts = append(parts, "{"+strings.Join(classes[k], " ")+"}")
	}
	return strings.Join(parts, " ")
}

// swap is Fig. 14a's substrate swap for k: NVM for a DRAM design and
// DRAM for an NVM one.
func swap(k design.Kind) design.Options {
	sub := design.NVM
	if (design.Options{}).Canon(k).Substrate == design.NVM {
		sub = design.DRAM
	}
	return design.Options{Substrate: sub, SubstrateSet: true}
}

// fig12Shapes is every design × Table 3 query at SmallWorkload, each with
// the default options followed by the substrate swap.
func fig12Shapes() []RunSpec {
	w := SmallWorkload()
	var specs []RunSpec
	for _, q := range Benchmark() {
		for _, k := range fig12Kinds() {
			specs = append(specs,
				RunSpec{Design: k, Workload: w, Query: q},
				RunSpec{Design: k, Options: swap(k), Workload: w, Query: q})
		}
	}
	return specs
}

// fig15TestRecords sizes the sweep tables of the front-end tests.
const fig15TestRecords = 256

// fig15Panels lists the points of every default Fig. 15 panel, as samfig
// runs them (panels a to i).
func fig15Panels() [][]SweepPoint {
	sel := func(kind SweepQueryKind, projected int) []SweepPoint {
		var ps []SweepPoint
		for _, s := range Fig15Selectivities() {
			ps = append(ps, SweepPoint{Query: kind, Selectivity: s, Projected: projected})
		}
		return ps
	}
	proj := func(kind SweepQueryKind, selectivity float64) []SweepPoint {
		var ps []SweepPoint
		for _, p := range Fig15Projectivities() {
			ps = append(ps, SweepPoint{Query: kind, Selectivity: selectivity, Projected: p})
		}
		return ps
	}
	var sizes []SweepPoint
	for _, rb := range Fig15RecordSizes() {
		sizes = append(sizes, SweepPoint{Query: Arithmetic, Selectivity: 1.0, Projected: rb / 8, RecordBytes: rb})
	}
	return [][]SweepPoint{
		sel(Arithmetic, 8), sel(Arithmetic, 64), sel(Arithmetic, 128),
		proj(Arithmetic, 0.10), proj(Arithmetic, 0.50), proj(Arithmetic, 1.00),
		sel(Aggregate, 8), proj(Aggregate, 1.00), sizes,
	}
}

// gridShapes is every spec shape beyond Fig. 12's that runGrid shares
// front ends for: Fig. 14b's granularities, the default reliability cells
// (which carry faults), and every default Fig. 15 point's row.
func gridShapes(t *testing.T) []RunSpec {
	t.Helper()
	var specs []RunSpec
	for _, q := range Benchmark() {
		if q.Class != ClassQ {
			continue
		}
		for _, g := range []design.Granularity{design.Gran16, design.Gran8, design.Gran4} {
			for _, k := range []design.Kind{design.RCNVMWd, design.GSDRAMecc, design.SAMEn} {
				specs = append(specs, RunSpec{Design: k, Options: design.Options{Gran: g}, Workload: SmallWorkload(), Query: q})
			}
		}
	}
	camp := DefaultReliabilityCampaign()
	for i, cell := range camp.Cells() {
		specs = append(specs, camp.spec(cell, i))
	}
	for _, panel := range fig15Panels() {
		for _, p := range panel {
			row, err := p.specs(fig15TestRecords)
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, row...)
		}
	}
	return specs
}

// TestFrontEndKeySound checks that equal front-end keys mean equal front
// ends: over every design × Table 3 query at SmallWorkload, with the
// default options and with Fig. 14a's substrate swap, and over every
// other shape runGrid shares (gridShapes), specs that share a key record
// identical miss logs, at every clock of the class. The swap puts RC-NVM
// on DRAM next to SAM-sub, so the stripe's ChunkRecords is all that tells
// them apart. It also pins the default Fig. 12 classes and the
// reliability campaign's class count. The key may split runs whose logs
// match, but it must never merge runs whose logs differ.
func TestFrontEndKeySound(t *testing.T) {
	specs := fig12Shapes()
	nFig12 := len(specs)
	recs := recordAll(t, append(specs, gridShapes(t)...))
	byKey := map[string]recording{}
	for _, r := range recs {
		first, ok := byKey[r.sh.front]
		if !ok {
			byKey[r.sh.front] = r
			continue
		}
		if !reflect.DeepEqual(first.log, r.log) {
			t.Errorf("%s: %v %+v and %v %+v share a front-end key but not a front end",
				r.spec.Query.Name, first.spec.Design, first.spec.Options, r.spec.Design, r.spec.Options)
		}
	}

	want := map[QueryClass]string{
		ClassQ:  "{baseline} {RC-NVM-bit RC-NVM-wd} {GS-DRAM GS-DRAM-ecc SAM-IO SAM-en} {SAM-sub} {ideal}",
		ClassQs: "{baseline GS-DRAM GS-DRAM-ecc SAM-IO SAM-en ideal} {RC-NVM-bit RC-NVM-wd} {SAM-sub}",
	}
	for _, defaults := range fig12Defaults(recs[:nFig12]) {
		q := defaults[0].spec.Query
		if got := partition(defaults, func(r recording) string { return r.sh.front }); got != want[q.Class] {
			t.Errorf("%s: front-end key classes %s, want %s", q.Name, got, want[q.Class])
		}
	}

	camp := DefaultReliabilityCampaign()
	classes := map[string]bool{}
	for i, cell := range camp.Cells() {
		classes[camp.spec(cell, i).sharing().front] = true
	}
	if n := len(classes); n != 4 {
		t.Errorf("the reliability campaign's %d cells fall into %d front-end classes, want 4", len(camp.Cells()), n)
	}
}

// fig12Defaults splits fig12Shapes' recordings into one row per query of
// the default-option specs, in fig12Kinds order.
func fig12Defaults(recs []recording) [][]recording {
	var rows [][]recording
	n := 2 * len(fig12Kinds())
	for i := 0; i < len(recs); i += n {
		var row []recording
		for j := i; j < i+n; j += 2 {
			row = append(row, recs[j])
		}
		rows = append(rows, row)
	}
	return rows
}

// TestSameRunIdentical checks that equal front-end and back-end keys mean
// equal runs: over the shapes of TestFrontEndKeySound, specs that share
// both keys give byte-equal encoded results. It also pins which default
// Fig. 12 specs are one run: on Qs queries, which fire no gather, the
// baseline, GS-DRAM, SAM-IO and ideal.
func TestSameRunIdentical(t *testing.T) {
	specs := fig12Shapes()
	nFig12 := len(specs)
	recs := recordAll(t, append(specs, gridShapes(t)...))
	byRun := map[string]recording{}
	for _, r := range recs {
		first, ok := byRun[r.sh.run()]
		if !ok {
			byRun[r.sh.run()] = r
			continue
		}
		if !bytes.Equal(encode(first.res), encode(r.res)) {
			t.Errorf("%s: %v %+v and %v %+v share both keys but not a result",
				r.spec.Query.Name, first.spec.Design, first.spec.Options, r.spec.Design, r.spec.Options)
		}
	}

	want := map[QueryClass]string{
		ClassQ:  "{baseline} {RC-NVM-bit} {RC-NVM-wd} {GS-DRAM} {GS-DRAM-ecc} {SAM-sub} {SAM-IO} {SAM-en} {ideal}",
		ClassQs: "{baseline GS-DRAM SAM-IO ideal} {RC-NVM-bit} {RC-NVM-wd} {GS-DRAM-ecc} {SAM-sub} {SAM-en}",
	}
	for _, defaults := range fig12Defaults(recs[:nFig12]) {
		q := defaults[0].spec.Query
		if got := partition(defaults, func(r recording) string { return r.sh.run() }); got != want[q.Class] {
			t.Errorf("%s: identical-run groups %s, want %s", q.Name, got, want[q.Class])
		}
	}
}

// checkReplayExact runs each spec, then replays the miss log of its
// class's first member into it, at the spec's own clock: the replayed
// result must encode to the run's bytes. Every log must stay under
// maxLogBytes.
func checkReplayExact(t *testing.T, specs []RunSpec) {
	t.Helper()
	recs := recordAll(t, specs)
	leader := map[string]*sim.MissLog{}
	for _, r := range recs {
		if leader[r.sh.front] == nil {
			leader[r.sh.front] = r.log
		}
		if n := r.log.Bytes(); n > maxLogBytes {
			t.Errorf("%s on %v: %d-byte miss log, over %d", r.spec.Query.Name, r.spec.Design, n, maxLogBytes)
		}
	}
	_, err := runner.Map(context.Background(), recs, runner.Options{},
		func(_ context.Context, _ int, r recording) (struct{}, error) {
			own, err := r.spec.Run()
			if err != nil {
				t.Error(err)
				return struct{}{}, nil
			}
			want := encode(own)
			if got := encode(r.spec.replay(leader[r.sh.front], r.sh.clock)); !bytes.Equal(got, want) {
				t.Errorf("%s on %v: replayed run differs from the spec's own run", r.spec.Query.Name, r.spec.Design)
			}
			return struct{}{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

// encode is sim.EncodeResult for a non-nil result; safe off the test
// goroutine.
func encode(r *sim.QueryResult) []byte {
	b, err := sim.EncodeResult(r)
	if err != nil {
		panic(err)
	}
	return b
}

// maxLogBytes bounds one miss log. Qs4 at DefaultWorkload has the largest
// shared logs, 262K operations each at one clock.
const maxLogBytes = 1536 << 10

// TestReplayExact is the replay differential: every design × Table 3
// query at SmallWorkload, with default options and with the substrate
// swap, every other shape runGrid shares (gridShapes), and Q7, Q11 and
// Qs4 at DefaultWorkload, replay their class's shared miss log to the
// exact result of the spec's own run.
func TestReplayExact(t *testing.T) {
	checkReplayExact(t, append(fig12Shapes(), gridShapes(t)...))
	if testing.Short() {
		t.Skip("DefaultWorkload replays skipped in -short mode")
	}
	var specs []RunSpec
	for _, name := range []string{"Q7", "Q11", "Qs4"} {
		q, _ := BenchQueryByName(name)
		for _, k := range fig12Kinds() {
			specs = append(specs, RunSpec{Design: k, Workload: DefaultWorkload(), Query: q})
		}
	}
	checkReplayExact(t, specs)
}

// TestFig12SharesFrontEnds checks the Fig. 12 grid against per-cell
// runs: every cell, shared front end or not, holds exactly what its own
// RunSpec produces.
func TestFig12SharesFrontEnds(t *testing.T) {
	rows := queryRows(Benchmark(), SmallWorkload(), fig12Kinds())
	grid, err := runGrid(context.Background(), rows, Par{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = runner.Map(context.Background(), rows, runner.Options{},
		func(_ context.Context, ri int, row []RunSpec) (struct{}, error) {
			for ci, spec := range row {
				live, err := spec.Run()
				if err != nil {
					return struct{}{}, err
				}
				if !bytes.Equal(encode(grid[ri][ci]), encode(live)) {
					t.Errorf("%s on %v: shared grid differs from the spec's own run", spec.Query.Name, spec.Design)
				}
			}
			return struct{}{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

// heldRun starts fe.run of spec under sh on its own goroutine, as a grid
// job, and returns once the run has claimed its shared work, which it
// announces with its sim= tag. The run goes on when release is closed;
// the returned channel then carries its job error.
func heldRun(fe *frontEnds, spec RunSpec, sh sharing, release chan struct{}) <-chan error {
	claimed := make(chan struct{})
	done := make(chan error, 1)
	obs := &gateObserver{claimed: claimed, release: release}
	go func() {
		_, err := runner.Map(context.Background(), []int{0}, runner.Options{Observer: obs},
			func(ctx context.Context, _, _ int) (*sim.QueryResult, error) { return fe.run(ctx, spec, sh) })
		done <- err
	}()
	<-claimed
	return done
}

// gateObserver holds a grid job at its sim= tag: it closes claimed and
// waits for release.
type gateObserver struct{ claimed, release chan struct{} }

func (o *gateObserver) SweepStarted(int) runner.SweepSpan { return o }
func (o *gateObserver) JobStarted(int, int)               {}
func (o *gateObserver) JobFinished(int, int, error)       {}

func (o *gateObserver) JobAnnotate(_ int, key, _ string) {
	if key == "sim" {
		close(o.claimed)
		<-o.release
	}
}

// waitingCtx is a never-cancelled context that closes waiting the first
// time its Done channel is read, which a member does only once it blocks
// on another member's shared work.
type waitingCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *waitingCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// TestFrontEndsAbortedRecording checks the failure paths of shared work:
// a recording that panics hands the class's waiting members an error
// instead of blocking them, and so does the first run of an identical
// group; a waiting member, of either kind, gives up with its context.
func TestFrontEndsAbortedRecording(t *testing.T) {
	bad := RunSpec{Design: design.Kind(99), Workload: SmallWorkload(), Query: Benchmark()[0]}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	// Three distinct runs of one front-end class, and three members of one
	// identical run.
	runs := []sharing{{front: "k", back: "a"}, {front: "k", back: "b"}, {front: "k", back: "c"}}
	same := []sharing{runs[0], runs[0], runs[0]}
	for _, tc := range []struct {
		what   string
		shares []sharing
	}{{"recording", runs}, {"shared run", same}} {
		fe := newFrontEnds(tc.shares)
		release := make(chan struct{})
		leader := heldRun(fe, bad, tc.shares[0], release)
		if _, err := fe.run(cancelled, bad, tc.shares[1]); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: waiting member with a cancelled context got %v", tc.what, err)
		}
		ctx := &waitingCtx{Context: context.Background(), waiting: release}
		if _, err := fe.run(ctx, bad, tc.shares[2]); !errors.Is(err, runner.ErrPanicked) {
			t.Errorf("%s: waiting member of an aborted %s got %v, want runner.ErrPanicked", tc.what, tc.what, err)
		}
		if err := <-leader; err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("%s: the leader on an unknown design returned %v, want its panic", tc.what, err)
		}
	}
}

// TestSameRunServedByMemoHit checks that an identical group whose first
// member is a memo hit still serves its followers — or lets one of them
// compute — with exactly what each follower's own run gives.
func TestSameRunServedByMemoHit(t *testing.T) {
	q, _ := BenchQueryByName("Qs1")
	var row []RunSpec
	for _, k := range []design.Kind{design.Baseline, design.GSDRAM, design.SAMIO, design.Ideal} {
		row = append(row, RunSpec{Design: k, Workload: SmallWorkload(), Query: q})
	}
	for _, workers := range []int{1, 4} {
		m := NewMemo(MemoOptions{})
		if _, _, err := m.Run(context.Background(), row[0]); err != nil {
			t.Fatal(err)
		}
		tags := &simTags{}
		grid, err := runGrid(context.Background(), [][]RunSpec{row}, Par{Workers: workers, Memo: m, Observer: tags})
		if err != nil {
			t.Fatal(err)
		}
		for ci, spec := range row {
			live, err := spec.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encode(grid[0][ci]), encode(live)) {
				t.Errorf("%d workers: %v differs from its own run", workers, spec.Design)
			}
		}
		if got := m.Counters().Misses; got != 4 {
			t.Errorf("%d workers: %d memo misses, want the warming run's and 3", workers, got)
		}
		if workers == 1 {
			if got := tags.counts(); got != "shared=3" {
				t.Errorf("1 worker: followers of a memo hit ran %s, want shared=3", got)
			}
		}
	}
}

// simTags is a sweep observer that collects the sim=… job tags.
type simTags struct {
	mu sync.Mutex
	n  map[string]int
}

func (o *simTags) SweepStarted(int) runner.SweepSpan { return o }
func (o *simTags) JobStarted(int, int)               {}
func (o *simTags) JobFinished(int, int, error)       {}

func (o *simTags) JobAnnotate(_ int, key, value string) {
	if key != "sim" {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.n == nil {
		o.n = map[string]int{}
	}
	o.n[value]++
}

// counts renders every tag count as "value=n …" in value order.
func (o *simTags) counts() string {
	var parts []string
	for v, n := range o.n {
		parts = append(parts, fmt.Sprintf("%s=%d", v, n))
	}
	slices.Sort(parts)
	return strings.Join(parts, " ")
}

// TestFig12SimTags checks the grid's work attribution on a cold memo:
// every simulated cell is tagged record, replay or shared, the tags sum
// to the memo's misses, and the default Fig. 12 grid splits 78/66/18, at
// SmallWorkload and at DefaultWorkload.
func TestFig12SimTags(t *testing.T) {
	ws := []Workload{SmallWorkload()}
	if !testing.Short() {
		ws = append(ws, DefaultWorkload())
	}
	for _, w := range ws {
		m := NewMemo(MemoOptions{})
		tags := &simTags{}
		if _, err := Fig12(context.Background(), w, Par{Memo: m, Observer: tags}); err != nil {
			t.Fatal(err)
		}
		const want = "record=78 replay=66 shared=18"
		if got := tags.counts(); got != want {
			t.Errorf("%+v: Fig. 12 cells ran %s, want %s", w, got, want)
		}
		sum := 0
		for _, n := range tags.n {
			sum += n
		}
		if misses := m.Counters().Misses; uint64(sum) != misses {
			t.Errorf("%+v: %d tagged cells, %d memo misses", w, sum, misses)
		}
	}
}

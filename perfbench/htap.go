package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"sam/internal/cache"
	"sam/internal/core"
	"sam/internal/design"
	"sam/internal/dram"
	"sam/internal/imdb"
	"sam/internal/mc"
	"sam/internal/sim"
	"sam/internal/trace"
)

// htapQueries is the mixed read/write set the warm systems serve. Qs5/Qs6
// (INSERT) are left out: an insert followed by a strided read panics on a
// warm strided system (README.md, "Known gap").
var htapQueries = []string{"Q1", "Q3", "Q4", "Q9", "Q11", "Q12", "Qs2", "Qs4"}

// htapKinds are the two long-lived systems.
var htapKinds = []design.Kind{design.Baseline, design.SAMEn}

const (
	htapChannels   = 4
	htapFaultRate  = 1e-3
	htapMaxRetries = 3
	htapSetups     = 3
	// htapPassWall sets the measured pass count, one per htapPassWall of
	// --seconds (bench.passes); a pass takes about that long on a 2-vCPU
	// host.
	htapPassWall = 150 * time.Millisecond
)

// newHTAPSystem builds one 4-channel system with the transient fault plane
// on. shardWorkers 0 is the engine's auto mode.
func newHTAPSystem(k design.Kind, w core.Workload, shardWorkers int) *sim.System {
	d := design.New(k, design.Options{})
	d.Mem.Geometry.Channels = htapChannels
	s := sim.NewSystem(d)
	s.AddTable(imdb.NewTable(imdb.Ta(w.TaRecords), w.Seed), false)
	s.AddTable(imdb.NewTable(imdb.Tb(w.TbRecords), w.Seed+1), false)
	s.ShardWorkers = shardWorkers
	s.Faults = &sim.FaultModel{Seed: w.Seed, Rate: htapFaultRate, MaxRetries: htapMaxRetries}
	return s
}

// htapOrders draws each pass's query order from the workload seed: a
// permutation of htapQueries, so every pass does the same work in a
// seed-dependent order. Order 0 is the warm-up pass.
type htapOrders struct{ rng *rand.Rand }

func (o *htapOrders) next() []core.BenchQuery {
	out := make([]core.BenchQuery, len(htapQueries))
	for i, j := range o.rng.Perm(len(htapQueries)) {
		out[i], _ = core.BenchQueryByName(htapQueries[j])
	}
	return out
}

// htapPass is one order run on every system in turn. Queries run one at a
// time, so the process's CPU time over a query is that query's.
type htapPass struct {
	secs, cpu  float64 // wall time and process CPU seconds
	reqs       uint64
	queryMS    []float64          // wall time per query
	queryCPUMS map[string]float64 // "system/query" → CPU ms
	encoded    []byte             // the sim.EncodeResult stream, systems in order
	results    [][]*sim.QueryResult
	// Host time and simulated requests of read-only and write queries.
	readNS, readReqs, writeNS, writeReqs float64
}

// runHTAPPass runs order on each system and checks invariant 9: both
// systems must return identical functional results query by query.
func (b *bench) runHTAPPass(systems []*sim.System, order []core.BenchQuery) (*htapPass, error) {
	p := &htapPass{results: make([][]*sim.QueryResult, len(systems)), queryCPUMS: map[string]float64{}}
	t0, cpu0 := time.Now(), cpuNow()
	for i, s := range systems {
		for _, q := range order {
			t, cpu := time.Now(), cpuNow()
			r, err := core.RunOn(s, q)
			dt, dcpu := time.Since(t), cpuNow()-cpu
			b.attempted++
			if err != nil {
				b.fail(1, "htap %s on system %d: %v", q.Name, i, err)
				p.results[i] = append(p.results[i], nil)
				continue
			}
			p.queryMS = append(p.queryMS, ms(dt))
			p.queryCPUMS[fmt.Sprintf("%d/%s", i, q.Name)] = ms(dcpu)
			p.reqs += r.Stats.MemRequests
			if q.IsWrite {
				p.writeNS += float64(dt)
				p.writeReqs += float64(r.Stats.MemRequests)
			} else {
				p.readNS += float64(dt)
				p.readReqs += float64(r.Stats.MemRequests)
			}
			p.results[i] = append(p.results[i], r)
		}
	}
	p.secs = time.Since(t0).Seconds()
	p.cpu = (cpuNow() - cpu0).Seconds()
	for i, s := range systems {
		for j, r := range p.results[i] {
			if r == nil {
				continue
			}
			enc, err := sim.EncodeResult(r)
			if err != nil {
				return nil, err
			}
			p.encoded = append(p.encoded, enc...)
			if s.Design.HasECC && r.Stats.Reliability != nil && r.Stats.Reliability.SilentCorruptions > 0 {
				b.fail(1, "htap %s on chipkill system %d: %d silent corruptions", order[j].Name, i, r.Stats.Reliability.SilentCorruptions)
			}
			if base := p.results[0][j]; i > 0 && base != nil && !sameFunctional(base, r) {
				b.fail(1, "htap %s: system %d returned different rows than system 0", order[j].Name, i)
			}
		}
	}
	return p, nil
}

// sameFunctional compares the functional half of two results.
func sameFunctional(a, b *sim.QueryResult) bool {
	if a.Rows != b.Rows || a.ProjChecks != b.ProjChecks || a.ArithChecks != b.ArithChecks || len(a.Aggregates) != len(b.Aggregates) {
		return false
	}
	for i := range a.Aggregates {
		if a.Aggregates[i] != b.Aggregates[i] {
			return false
		}
	}
	return true
}

// htapSetup builds both systems and runs the untimed warm-up pass.
func (b *bench) htapSetup(w core.Workload, shardWorkers int, warm []core.BenchQuery) ([]*sim.System, *htapPass, error) {
	var systems []*sim.System
	for _, k := range htapKinds {
		systems = append(systems, newHTAPSystem(k, w, shardWorkers))
	}
	p, err := b.runHTAPPass(systems, warm)
	return systems, p, err
}

// htapWorkload is the small-scale database (Ta 2K × 1 KB, Tb 16K × 128 B)
// keyed by the workload seed. At default scale a pass took 5 s, and its CPU
// time spread 18–29% between runs on a 2-vCPU host however many passes a
// run averaged; at this scale a run averages over a hundred passes.
func (b *bench) htapWorkload() core.Workload {
	w := core.SmallWorkload()
	w.Seed += uint64(b.seed)
	return w
}

func runHTAP(b *bench) error {
	w := b.htapWorkload()
	orders := &htapOrders{rng: rand.New(rand.NewSource(b.seed))}
	warm := orders.next()

	// Set-up: build both systems and warm them with one pass. Repeated so
	// its median is steady; the last set-up's systems are the ones timed.
	var setup []float64
	var systems []*sim.System
	var warmPass *htapPass
	for i := 0; i < htapSetups; i++ {
		t := time.Now()
		var err error
		if systems, warmPass, err = b.htapSetup(w, 0, warm); err != nil {
			return err
		}
		setup = append(setup, time.Since(t).Seconds())
	}

	var (
		passes       []*htapPass
		passOrders   [][]core.BenchQuery
		prof         *cpuProfile
		rtBase       rtStats
		epochs0      uint64
		counts       = &simCounts{}
		tracedPasses int
	)
	for n := 0; n < b.passes(htapPassWall); n++ {
		order := orders.next()
		if b.traced && n == 1 {
			var err error
			if prof, err = startProfile(); err != nil {
				return err
			}
			rtBase = readRT()
		}
		var before [][]cache.Stats
		if n == 0 {
			epochs0 = sim.ShardObsSnapshot().Counters["sim.shard.epochs"]
			for _, s := range systems {
				before = append(before, cacheStats(s))
			}
		}
		p, err := b.runHTAPPass(systems, order)
		if err != nil {
			return err
		}
		if n == 0 {
			// The first timed pass is a fixed amount of work: its counters
			// and, with the warm-up, its output digest repeat exactly.
			for i, s := range systems {
				counts.addCaches(before[i], cacheStats(s))
				for _, r := range p.results[i] {
					if r != nil {
						if err := counts.addRun(r.Stats); err != nil {
							return err
						}
					}
				}
			}
			epochs := sim.ShardObsSnapshot().Counters["sim.shard.epochs"] - epochs0
			if b.traced {
				b.startLedger()
				b.setL("sim.shard_epochs", float64(epochs))
			}
			b.checkDigest("htap-4ch stream", sha(warmPass.encoded, p.encoded), htapStreamSHA, len(p.queryMS))
		}
		if b.traced && n > 0 {
			tracedPasses++
		}
		passes = append(passes, p)
		passOrders = append(passOrders, order)
	}

	if !b.traced {
		var cpu, mreq, jobs []float64
		var byQuery []map[string]float64
		for _, p := range passes {
			cpu = append(cpu, p.cpu)
			mreq = append(mreq, float64(p.reqs)/p.cpu/1e6)
			jobs = append(jobs, float64(len(p.queryCPUMS))/p.cpu)
			byQuery = append(byQuery, p.queryCPUMS)
		}
		b.setE2E(setup, median(cpu), median(mreq), jobMedians(byQuery), median(jobs))
		return nil
	}

	shares, err := prof.stop()
	if err != nil {
		return err
	}
	b.setRT(rtBase, tracedPasses)
	b.setShares(shares)
	b.setCounts(counts)
	var cpu, runMS []float64
	var rNS, rReq, wNS, wReq float64
	for _, p := range passes[1:] {
		cpu = append(cpu, p.cpu)
		runMS = append(runMS, p.queryMS...)
		rNS, rReq, wNS, wReq = rNS+p.readNS, rReq+p.readReqs, wNS+p.writeNS, wReq+p.writeReqs
	}
	b.setL("trace.overhead_frac", median(cpu)/passes[0].cpu-1)
	b.setL("sim.run_ms_p50", median(runMS))
	b.setL("sim.run_ms_p99", tailPct(runMS, 0.99))
	// On the warm small-scale systems the LLC absorbs every read.
	if rReq > 0 {
		b.setL("sim.host_ns_per_req.read", rNS/rReq)
	}
	if wReq > 0 {
		b.setL("sim.host_ns_per_req.write", wNS/wReq)
	}

	var buildUS []float64
	for i := 0; i < 15; i++ {
		t := time.Now()
		newHTAPSystem(design.SAMEn, w, 0)
		buildUS = append(buildUS, float64(time.Since(t))/1e3)
	}
	b.setL("sim.build_us", median(buildUS))
	if err := b.commonLedger(); err != nil {
		return err
	}
	return b.htapSerialTwin(w, warm, passOrders, passes)
}

// htapSerialTwin replays the same warm-up and first timed pass on serial
// (ShardWorkers = 1) twins of the two systems. Their output must be
// byte-identical to the sharded systems'; sim.shard_gain is the serial
// pass wall time over the auto-sharded one. One more pass on the SAM-en
// twin records its request stream, which a fresh mc.Controller +
// dram.Device then replays alone (mc.replay_ns_per_req).
func (b *bench) htapSerialTwin(w core.Workload, warm []core.BenchQuery, orders [][]core.BenchQuery, auto []*htapPass) error {
	twins, _, err := b.htapSetup(w, 1, warm)
	if err != nil {
		return err
	}
	p, err := b.runHTAPPass(twins, orders[0])
	if err != nil {
		return err
	}
	if !bytes.Equal(p.encoded, auto[0].encoded) {
		b.fail(len(p.queryMS), "htap serial twin: results differ from the sharded engine's")
	}
	b.setL("sim.shard_gain", p.secs/auto[0].secs)

	sam := twins[1]
	sam.TraceSink = &trace.Trace{}
	for _, q := range orders[1] {
		if _, err := core.RunOn(sam, q); err != nil {
			return fmt.Errorf("htap trace capture %s: %v", q.Name, err)
		}
	}
	tr := sam.TraceSink
	sam.TraceSink = nil
	ctl := mc.NewController(dram.NewDevice(sam.Design.Mem), mc.DefaultConfig())
	t := time.Now()
	comps, err := trace.Replay(tr, ctl)
	dt := time.Since(t)
	if err != nil {
		return fmt.Errorf("htap replay: %v", err)
	}
	if len(comps) != tr.Len() {
		b.fail(1, "htap replay: %d completions for %d requests", len(comps), tr.Len())
	}
	if tr.Len() > 0 {
		b.setL("mc.replay_ns_per_req", float64(dt)/float64(tr.Len()))
	}
	return nil
}

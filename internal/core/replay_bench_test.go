package core

import (
	"testing"

	"sam/internal/design"
	"sam/internal/sim"
)

// BenchmarkReplayFig12 times the memory back end alone, the per-layer cost
// of sim.System.Replay: it records the miss log of every front-end class
// of the Fig. 12 grid once, outside the timer, then replays each of the
// grid's 162 cells, at its own clock variant, into a fresh back end of its
// design, timing only the replays. It reports ns per controller request.
// The default sub-benchmark runs at DefaultWorkload, as samfig does; small
// runs at SmallWorkload.
func BenchmarkReplayFig12(b *testing.B) {
	for _, c := range []struct {
		name string
		w    Workload
	}{{"default", DefaultWorkload()}, {"small", SmallWorkload()}} {
		b.Run(c.name, func(b *testing.B) { benchReplay(b, queryRows(Benchmark(), c.w, fig12Kinds())) })
	}
}

// benchReplay records rows' front ends and times replaying every cell.
func benchReplay(b *testing.B, rows [][]RunSpec) {
	var specs []RunSpec
	var shares []sharing
	for _, row := range rows {
		for _, spec := range row {
			specs = append(specs, spec)
			shares = append(shares, spec.sharing())
		}
	}
	fe := newFrontEnds(shares)
	logs := map[string]*sim.MissLog{}
	for i, spec := range specs {
		front := shares[i].front
		if logs[front] != nil {
			continue
		}
		l, err := spec.record(fe.classes[front].clocks)
		if err != nil {
			b.Fatal(err)
		}
		logs[front] = l
	}
	var reqs uint64
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i, spec := range specs {
			b.StopTimer()
			sys := sim.NewSystem(design.New(spec.Design, spec.Options))
			sys.Faults = spec.Faults
			b.StartTimer()
			reqs += sys.Replay(logs[shares[i].front], shares[i].clock).Stats.MemRequests
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(reqs), "ns/req")
	b.ReportMetric(float64(reqs)/float64(b.N), "reqs/op")
}

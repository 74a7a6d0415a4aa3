// Package cpu models the processor side of Table 2 at the fidelity the
// evaluation needs: four 4 GHz cores sharing one memory channel, with a
// window of outstanding misses (memory-level parallelism) and small
// per-operation compute costs. The front end runs the query as one serial
// stream: each core's compute cost is divided by Cores, and one aggregate
// miss window of MissWindow x Cores requests stands for the four cores'
// windows. So compute throughput scales with the core count while the
// memory channel does not, which keeps the IMDB scans memory-bound as the
// paper's multiple cores do. Four real request streams are an open item
// (ROADMAP, "Four cores, four request streams").
package cpu

// Params describe the cores.
type Params struct {
	ClockGHz float64
	Cores    int
	// MissWindow is the outstanding read misses each core sustains.
	MissWindow int
	// ComputePerField is CPU cycles of work per field touched (predicate
	// evaluation, pointer arithmetic, loop overhead).
	ComputePerField float64
	// ComputePerMatch is CPU cycles per matching record (aggregation,
	// result assembly, update bookkeeping).
	ComputePerMatch float64
	// LatencyOverlap is the fraction of cache/memory access latency charged
	// to throughput; the rest overlaps across independent accesses in the
	// out-of-order window.
	LatencyOverlap float64
}

// Default mirrors the Table 2 processor: 4 cores, x86-class, 4.0 GHz.
func Default() Params {
	return Params{
		ClockGHz:        4.0,
		Cores:           4,
		MissWindow:      16,
		ComputePerField: 3,
		ComputePerMatch: 6,
		LatencyOverlap:  0.1,
	}
}

// BusCyclesPer converts CPU cycles of work into bus cycles of aggregate
// throughput across the cores.
func (p Params) BusCyclesPer(cpuCycles, busMHz float64) float64 {
	cores := p.Cores
	if cores < 1 {
		cores = 1
	}
	return cpuCycles * busMHz / (p.ClockGHz * 1e3) / float64(cores)
}

// WindowSize is the aggregate outstanding-miss budget across cores.
func (p Params) WindowSize() int {
	cores := p.Cores
	if cores < 1 {
		cores = 1
	}
	return p.MissWindow * cores
}

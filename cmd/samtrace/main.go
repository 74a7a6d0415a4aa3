// Command samtrace generates and replays memory access traces against the
// controller+device stack, bypassing the query layer — useful for studying
// the raw timing behaviour of access patterns (and for feeding traces from
// other tools through SAM's memory system).
//
// Usage:
//
//	samtrace -gen strided -n 4096 > strided.trace
//	samtrace -replay strided.trace
//	samtrace -gen sequential -n 4096 | samtrace -replay -
//	samtrace -gen random -n 8192 -replay -   (generate and replay in one go)
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"sam/internal/cli"
	"sam/internal/dram"
	"sam/internal/etrace"
	"sam/internal/mc"
	"sam/internal/obs"
	"sam/internal/stats"
	"sam/internal/trace"
)

func main() {
	gen := flag.String("gen", "", "generate a trace: sequential, strided, random")
	n := flag.Int("n", 4096, "requests to generate")
	stride := flag.Int("stride", 1024, "byte stride for the strided pattern")
	replay := flag.String("replay", "", "replay a trace file ('-' for stdin)")
	rram := flag.Bool("rram", false, "replay against the RRAM personality")
	seed := flag.Int64("seed", 1, "generator seed")
	statsJSON := flag.String("stats-json", "", "write replay metrics as JSON to this file ('-' for stdout)")
	eventOut := flag.String("trace-out", "", "write a cycle-accurate Chrome/Perfetto trace-event JSON of the replay")
	traceCSV := flag.String("trace-csv", "", "write the windowed time-series samples as CSV to this file")
	traceWindow := flag.Int64("trace-window", 2048, "sampling window for the trace time series (bus cycles)")
	traceLimit := flag.Int("trace-limit", etrace.DefaultCapacity, "event-ring capacity; oldest events drop beyond this")
	run := cli.Register("samtrace", flag.CommandLine)
	flag.Parse()

	run.Start()
	defer run.Stop()

	var tr *trace.Trace
	if *gen != "" {
		var err error
		tr, err = generate(*gen, *n, *stride, *seed)
		if err != nil {
			run.Fail(err)
		}
		if *replay == "" {
			if err := tr.Write(os.Stdout); err != nil {
				run.Fail(err)
			}
			return
		}
	}
	if *replay != "" {
		if tr == nil {
			in := os.Stdin
			if *replay != "-" {
				f, err := os.Open(*replay)
				if err != nil {
					run.Fail(err)
				}
				defer f.Close()
				in = f
			}
			var err error
			tr, err = trace.Read(in)
			if err != nil {
				run.Fail(err)
			}
		}
		topts := traceOpts{out: *eventOut, csv: *traceCSV, window: *traceWindow, limit: *traceLimit}
		if err := report(tr, *rram, *statsJSON, topts, run.Plane); err != nil {
			run.Fail(err)
		}
		return
	}
	run.Fail(fmt.Errorf("nothing to do: pass -gen and/or -replay"))
}

func generate(kind string, n, stride int, seed int64) (*trace.Trace, error) {
	tr := &trace.Trace{}
	rng := rand.New(rand.NewSource(seed))
	arrival := dram.Cycle(0)
	for i := 0; i < n; i++ {
		rec := trace.Record{Arrival: arrival}
		switch kind {
		case "sequential":
			rec.Addr = uint64(i) * 64
		case "strided":
			// Field-scan shape: one line per record at the given stride,
			// issued as SAM strided requests (one per group of 8).
			rec.Addr = uint64(i) * uint64(stride) * 8
			rec.Stride = true
			rec.Lane = (i / 64) % 4
			rec.Gang = true
		case "random":
			rec.Addr = uint64(rng.Intn(1<<28)) &^ 63
			rec.IsWrite = rng.Intn(4) == 0
		default:
			return nil, fmt.Errorf("unknown pattern %q", kind)
		}
		arrival += dram.Cycle(1 + rng.Intn(4))
		tr.Add(rec)
	}
	return tr, nil
}

// traceOpts carries the event-tracing flags into the replay.
type traceOpts struct {
	out, csv string
	window   int64
	limit    int
}

func (o traceOpts) enabled() bool { return o.out != "" || o.csv != "" }

func report(tr *trace.Trace, rram bool, statsJSON string, topts traceOpts, plane *obs.Plane) error {
	cfg := dram.DDR4_2400()
	if rram {
		cfg = dram.RRAM()
	}
	dev := dram.NewDevice(cfg)
	ctrl := mc.NewController(dev, mc.DefaultConfig())
	reg := stats.NewRegistry()
	ctrl.Metrics = mc.NewMetrics(reg)

	// Event tracing: the replay stack is single-channel and freshly built,
	// so the controller/device stats are already run-relative and the
	// completion observer can drive the windowed sampler directly.
	var buf *etrace.Buffer
	var sp *etrace.Sampler
	var observe func(mc.Completion)
	if topts.enabled() {
		buf = etrace.NewBuffer(topts.limit)
		sp = etrace.NewSampler(topts.window)
		ct := buf.Channel(0)
		ctrl.Trace = ct
		dev.Trace = ct
		var hw dram.Cycle
		observe = func(c mc.Completion) {
			if c.DataEnd > hw {
				hw = c.DataEnd
			}
			for sp.Due(int64(hw)) {
				sp.Record(etrace.Sample{
					At: sp.Advance(), Ctl: ctrl.Stats, Dev: dev.Stats.Clone(),
					Queue: ctrl.Pending(),
				})
			}
		}
	}
	finish := plane.Single("replay")
	comps, err := trace.ReplayObserved(tr, ctrl, observe)
	finish(err)
	// The replay mutates reg from this goroutine, so the controller
	// registry joins the /metrics surface only once it has quiesced.
	plane.AddSource(reg.Snapshot)
	if err != nil {
		// Surface how far the replay got instead of discarding the partial
		// result with the error.
		fmt.Fprintf(os.Stderr, "samtrace: replay stopped after %d of %d requests completed\n",
			len(comps), tr.Len())
		return err
	}

	var end dram.Cycle
	for _, c := range comps {
		if c.DataEnd > end {
			end = c.DataEnd
		}
	}
	st := ctrl.Stats
	fmt.Printf("device        %s\n", cfg.Name)
	fmt.Printf("requests      %d (%d reads, %d writes, %d strided)\n",
		len(comps), st.Reads, st.Writes, st.StrideAccesses)
	fmt.Printf("cycles        %d (%.3f us)\n", end, cfg.CyclesToNs(uint64(end))/1e3)
	if len(comps) > 0 {
		fmt.Printf("throughput    %.2f cycles/request\n", float64(end)/float64(len(comps)))
	}
	total := st.RowHits + st.RowMisses + st.RowEmpties
	if total > 0 {
		fmt.Printf("row buffer    %.1f%% hit, %.1f%% conflict, %.1f%% empty\n",
			100*float64(st.RowHits)/float64(total),
			100*float64(st.RowMisses)/float64(total),
			100*float64(st.RowEmpties)/float64(total))
	}
	for _, class := range []struct {
		name string
		h    *stats.Histogram
	}{
		{"read.normal ", ctrl.Metrics.LatReadNormal},
		{"read.stride ", ctrl.Metrics.LatReadStride},
		{"write.normal", ctrl.Metrics.LatWriteNormal},
		{"write.stride", ctrl.Metrics.LatWriteStride},
	} {
		if class.h.Total() == 0 {
			continue
		}
		fmt.Printf("lat %s  n=%d mean %.1f, p50 <=%d, p99 <=%d cycles\n",
			class.name, class.h.Total(), class.h.Mean(),
			class.h.Quantile(0.5), class.h.Quantile(0.99))
	}
	fmt.Printf("device cmds   ACT=%d PRE=%d REF=%d modeSwitch=%d\n",
		dev.Stats.Acts, dev.Stats.Pres, dev.Stats.Refs, dev.Stats.ModeSwitches)

	if topts.enabled() {
		// Close the last partial window so the series totals match the run.
		if n := len(sp.Samples); n == 0 || sp.Samples[n-1].At < int64(end) {
			sp.Record(etrace.Sample{
				At: int64(end), Ctl: ctrl.Stats, Dev: dev.Stats.Clone(),
				Queue: ctrl.Pending(),
			})
		}
		buf.Name = cfg.Name
		sp.Name = cfg.Name
		if topts.out != "" {
			if err := cli.WriteFile(topts.out, func(f io.Writer) error {
				return etrace.WriteChrome(f, []*etrace.Buffer{buf}, []*etrace.Sampler{sp})
			}); err != nil {
				return err
			}
			fmt.Printf("event trace   %d events (%d dropped), %d samples -> %s\n",
				buf.Len(), buf.Dropped(), len(sp.Samples), topts.out)
		}
		if topts.csv != "" {
			if err := cli.WriteFile(topts.csv, func(f io.Writer) error {
				return etrace.WriteCSV(f, sp)
			}); err != nil {
				return err
			}
			fmt.Printf("trace csv     %d samples (window %d cycles) -> %s\n",
				len(sp.Samples), sp.Window, topts.csv)
		}
	}

	if statsJSON != "" {
		out := struct {
			Device   string
			Requests int
			Cycles   dram.Cycle
			Metrics  *stats.Snapshot
		}{cfg.Name, len(comps), end, reg.Snapshot()}
		return cli.WriteJSON(statsJSON, out)
	}
	return nil
}

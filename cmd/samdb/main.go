// Command samdb is an interactive SQL shell over the simulated memory
// system: type queries from the Table 3 dialect and see their results
// together with the memory-system cost on the chosen design — the fastest
// way to build intuition for what SAM does to a query.
//
//	$ go run ./cmd/samdb -design SAM-en
//	samdb> SELECT SUM(f9) FROM Ta WHERE f10 > 2
//	rows 4148   SUM(f9)=3.79066e+22
//	16434 cycles, 3893 requests (3893 strided), 99.9% row hits
//	samdb> \design baseline
//	samdb> SELECT SUM(f9) FROM Ta WHERE f10 > 2
//	...
//	samdb> \compare SELECT AVG(f1) FROM Tb WHERE f10 > 2
//	baseline 37211 cycles | SAM-en 8922 cycles | speedup 4.17x
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"

	"sam/internal/cli"
	"sam/internal/core"
	"sam/internal/design"
	"sam/internal/etrace"
	"sam/internal/obs"
	"sam/internal/sim"
	"sam/internal/sql"
	"sam/internal/stats"
)

type shell struct {
	kind     design.Kind
	workload core.Workload
	systems  map[design.Kind]*sim.System
	out      *bufio.Writer
	plane    *obs.Plane

	// The session accumulator: every query's metrics snapshot merged in
	// arrival order, behind a mutex because live /metrics scrapes read it
	// concurrently with the REPL goroutine.
	mu      sync.Mutex
	merged  *stats.Snapshot
	queries int
}

func newShell(kind design.Kind, w core.Workload) *shell {
	return &shell{
		kind:     kind,
		workload: w,
		systems:  map[design.Kind]*sim.System{},
		out:      bufio.NewWriter(os.Stdout),
		merged:   &stats.Snapshot{},
	}
}

// record folds one run's metrics into the session accumulator.
func (sh *shell) record(st sim.RunStats) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.queries++
	_ = sh.merged.Merge(st.Metrics)
}

// sessionSnapshot copies the accumulator — the shell's /metrics source
// and the -stats-json payload.
func (sh *shell) sessionSnapshot() *stats.Snapshot {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := &stats.Snapshot{}
	_ = out.Merge(sh.merged)
	return out
}

// system lazily builds (and caches) a system per design so repeated queries
// see warm caches, like a resident database would.
func (sh *shell) system(kind design.Kind) *sim.System {
	if s, ok := sh.systems[kind]; ok {
		return s
	}
	s := core.NewSystem(kind, design.Options{}, sh.workload, false)
	sh.systems[kind] = s
	return s
}

func kindByName(name string) (design.Kind, bool) {
	for _, k := range append([]design.Kind{design.Baseline, design.Ideal}, design.AllEvaluated()...) {
		if strings.EqualFold(k.String(), name) {
			return k, true
		}
	}
	return 0, false
}

func (sh *shell) printf(format string, args ...interface{}) {
	fmt.Fprintf(sh.out, format, args...)
}

func (sh *shell) run(line string) {
	defer sh.out.Flush()
	line = strings.TrimSpace(line)
	switch {
	case line == "" || strings.HasPrefix(line, "--"):
		return
	case line == `\help` || line == `\h`:
		sh.printf("  <sql>              run on the current design (%s)\n", sh.kind)
		sh.printf("  \\design <name>     switch design (baseline, ideal, SAM-sub, SAM-IO, SAM-en,\n")
		sh.printf("                     GS-DRAM, GS-DRAM-ecc, RC-NVM-bit, RC-NVM-wd)\n")
		sh.printf("  \\compare <sql>     run on baseline and the current design, report speedup\n")
		sh.printf("  \\tables            show loaded tables\n")
		sh.printf("  \\bench <name>      run a Table 3 benchmark query (Q1..Qs6)\n")
		sh.printf("  \\trace <file> <sql> run with cycle-accurate tracing, write Perfetto JSON\n")
		sh.printf("  \\quit              exit\n")
	case strings.HasPrefix(line, `\design`):
		name := strings.TrimSpace(strings.TrimPrefix(line, `\design`))
		if k, ok := kindByName(name); ok {
			sh.kind = k
			sh.printf("design: %s\n", k)
		} else {
			sh.printf("unknown design %q\n", name)
		}
	case line == `\tables`:
		sh.printf("  Ta: %d records x 128 fields (1KB records)\n", sh.workload.TaRecords)
		sh.printf("  Tb: %d records x 16 fields (128B records)\n", sh.workload.TbRecords)
	case strings.HasPrefix(line, `\compare`):
		q := strings.TrimSpace(strings.TrimPrefix(line, `\compare`))
		sh.compare(q)
	case strings.HasPrefix(line, `\trace`):
		rest := strings.TrimSpace(strings.TrimPrefix(line, `\trace`))
		file, q, ok := strings.Cut(rest, " ")
		if !ok || file == "" || strings.TrimSpace(q) == "" {
			sh.printf("usage: \\trace <file> <sql>\n")
			return
		}
		sh.trace(file, strings.TrimSpace(q))
	case strings.HasPrefix(line, `\bench`):
		name := strings.TrimSpace(strings.TrimPrefix(line, `\bench`))
		for _, b := range core.Benchmark() {
			if strings.EqualFold(b.Name, name) {
				sh.printf("%s: %s\n", b.Name, b.SQL)
				sh.query(b.SQL, b.Params)
				return
			}
		}
		sh.printf("unknown benchmark %q\n", name)
	case strings.HasPrefix(line, `\`):
		sh.printf("unknown command %q (try \\help)\n", line)
	default:
		sh.query(line, sql.Params{})
	}
}

func (sh *shell) query(text string, params sql.Params) {
	finish := sh.plane.Single("query")
	r, err := sh.system(sh.kind).RunQuery(text, params)
	finish(err)
	if err != nil {
		sh.printf("error: %v\n", err)
		return
	}
	sh.record(r.Stats)
	sh.printf("rows %d", r.Rows)
	for i, agg := range r.Aggregates {
		sh.printf("   agg[%d]=%.6g", i, agg)
	}
	sh.printf("\n%d cycles, %d requests (%d strided), %.1f%% row hits [%s]\n",
		r.Stats.Cycles, r.Stats.MemRequests,
		r.Stats.Device.StrideReads+r.Stats.Device.StrideWrites,
		r.Stats.RowHitRate*100, sh.kind)
}

// traceWindow is the sampling window for \trace time series (bus cycles).
const traceWindow = 2048

// trace runs one query on the current design with cycle-accurate event
// tracing attached and writes the Chrome/Perfetto JSON to file. The
// attachment is removed afterwards, so subsequent queries pay no tracing
// cost.
func (sh *shell) trace(file, text string) {
	s := sh.system(sh.kind)
	buf := etrace.NewBuffer(0)
	buf.Name = sh.kind.String()
	sp := etrace.NewSampler(traceWindow)
	sp.Name = sh.kind.String()
	s.AttachEventTrace(buf, sp)
	defer s.AttachEventTrace(nil, nil)
	finish := sh.plane.Single("trace")
	r, err := s.RunQuery(text, sql.Params{})
	finish(err)
	if err != nil {
		sh.printf("error: %v\n", err)
		return
	}
	sh.record(r.Stats)
	f, err := os.Create(file)
	if err != nil {
		sh.printf("error: %v\n", err)
		return
	}
	if err := etrace.WriteChrome(f, []*etrace.Buffer{buf}, []*etrace.Sampler{sp}); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		sh.printf("error: %v\n", err)
		return
	}
	sh.printf("rows %d, %d cycles [%s]\n", r.Rows, r.Stats.Cycles, sh.kind)
	sh.printf("event trace: %d events (%d dropped), %d samples -> %s\n",
		buf.Len(), buf.Dropped(), len(sp.Samples), file)
}

func (sh *shell) compare(text string) {
	finish := sh.plane.Single("compare")
	base, err := sh.system(design.Baseline).RunQuery(text, sql.Params{})
	if err != nil {
		finish(err)
		sh.printf("error: %v\n", err)
		return
	}
	sh.record(base.Stats)
	r, err := sh.system(sh.kind).RunQuery(text, sql.Params{})
	finish(err)
	if err != nil {
		sh.printf("error: %v\n", err)
		return
	}
	sh.record(r.Stats)
	if r.Rows != base.Rows {
		sh.printf("RESULT MISMATCH: %d vs %d rows\n", base.Rows, r.Rows)
		return
	}
	sh.printf("baseline %d cycles | %s %d cycles | speedup %.2fx\n",
		base.Stats.Cycles, sh.kind, r.Stats.Cycles, sim.Speedup(base.Stats, r.Stats))
}

func main() {
	designName := flag.String("design", "SAM-en", "initial design")
	ta := flag.Int("ta", 4096, "Ta records")
	tb := flag.Int("tb", 32768, "Tb records")
	statsJSON := flag.String("stats-json", "", "write the session's merged run metrics as JSON on exit ('-' for stdout)")
	run := cli.Register("samdb", flag.CommandLine)
	flag.Parse()

	kind, ok := kindByName(*designName)
	if !ok {
		run.Fail(fmt.Errorf("unknown design %q", *designName))
	}
	sh := newShell(kind, core.Workload{TaRecords: *ta, TbRecords: *tb, Seed: 0xDB})
	run.Start(sh.sessionSnapshot)
	defer run.Stop()
	sh.plane = run.Plane

	interactive := false
	if fi, err := os.Stdin.Stat(); err == nil && fi.Mode()&os.ModeCharDevice != 0 {
		interactive = true
	}
	if interactive {
		fmt.Printf("samdb — SQL over the SAM memory simulator (design: %s). \\help for commands.\n", kind)
	}
	sc := bufio.NewScanner(os.Stdin)
	for {
		if interactive {
			fmt.Print("samdb> ")
		}
		if !sc.Scan() {
			break
		}
		line := sc.Text()
		if t := strings.TrimSpace(line); t == `\quit` || t == `\q` {
			break
		}
		sh.run(line)
	}

	if *statsJSON != "" {
		out := struct {
			Queries int             `json:"queries"`
			Metrics *stats.Snapshot `json:"metrics"`
		}{sh.queries, sh.sessionSnapshot()}
		if err := cli.WriteJSON(*statsJSON, out); err != nil {
			run.Fail(err)
		}
	}
}

// Package cli is what the batch commands (samsim, samfig, samdb,
// samtrace) share: the flags two or more of them declare with the same
// meaning, the profiling and observability start-up and teardown those
// flags imply, the error exit, and JSON and file output.
package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"

	"sam/internal/core"
	"sam/internal/obs"
	"sam/internal/stats"
)

// Flags holds one command's shared run flags and, once Start has run, the
// profiler and observability plane they started.
type Flags struct {
	name                   string
	cpuProfile, memProfile string
	obsListen, obsLog      string

	// Plane is the observability plane Start stood up: nil before Start
	// and when both -obs flags are empty (every Plane method is nil-safe).
	Plane    *obs.Plane
	stopProf func() error
}

// Register adds -cpuprofile, -memprofile, -obs-listen and -obs-log to fs
// for the command called name, which prefixes its error messages.
func Register(name string, fs *flag.FlagSet) *Flags {
	f := &Flags{name: name}
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.memProfile, "memprofile", "", "write a heap profile to this file")
	fs.StringVar(&f.obsListen, "obs-listen", "", "serve live telemetry (/metrics, /progress, /healthz, /debug/pprof) on this address while the run executes (e.g. 127.0.0.1:9915)")
	fs.StringVar(&f.obsLog, "obs-log", "", "append the structured JSONL run-lifecycle event log to this file")
	return f
}

// Fail prints "name: err" to stderr, closes the plane so an aborted run
// still summarizes its event log (os.Exit skips deferred calls), and
// exits 1.
func (f *Flags) Fail(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", f.name, err)
	_ = f.Plane.Close()
	os.Exit(1)
}

// Start begins profiling and stands up the observability plane, with
// sources feeding its /metrics (a source may return nil). A failure exits
// through Fail. Defer Stop after it.
func (f *Flags) Start(sources ...func() *stats.Snapshot) {
	stop, err := startProfile(f.cpuProfile, f.memProfile)
	if err != nil {
		f.Fail(err)
	}
	f.stopProf = stop
	if f.Plane, err = obs.StartPlane(f.obsListen, f.obsLog, os.Stderr, sources...); err != nil {
		f.Fail(err)
	}
}

// Stop closes the plane, reporting a close error without failing the
// run, then finishes the profiles, failing on their error.
func (f *Flags) Stop() {
	if err := f.Plane.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: obs: %v\n", f.name, err)
	}
	if err := f.stopProf(); err != nil {
		f.Fail(err)
	}
}

// startProfile begins profiling. cpuPath, when non-empty, receives a CPU
// profile covering the time until stop is called; memPath, when
// non-empty, receives a heap profile taken at stop time (after a GC, so it
// reflects live objects rather than garbage). The returned stop function
// is idempotent: the first call does the work (and its error is
// remembered), later calls return that same result without touching the
// profiles again. Even when the heap-profile write fails, the first call
// has already stopped and closed the CPU profile, leaving the process
// clean for a fresh start.
func startProfile(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("prof: start cpu profile: %w", err)
		}
	}
	var once sync.Once
	var stopErr error
	return func() error {
		once.Do(func() { stopErr = finishProfile(cpuFile, memPath) })
		return stopErr
	}, nil
}

// finishProfile stops the CPU profile (if one is running) and writes the
// heap profile. The CPU half always runs to completion first, so a
// heap-write failure never leaves the runtime's CPU profiler started.
func finishProfile(cpuFile *os.File, memPath string) error {
	if cpuFile != nil {
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil {
			return fmt.Errorf("prof: %w", err)
		}
	}
	if memPath != "" {
		f, err := os.Create(memPath)
		if err != nil {
			return fmt.Errorf("prof: %w", err)
		}
		defer f.Close()
		runtime.GC() // materialize live-object statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("prof: write heap profile: %w", err)
		}
	}
	return nil
}

// Cache is the parsed -cache-dir/-no-cache pair.
type Cache struct {
	dir string
	off bool
}

// RegisterCache adds -cache-dir and -no-cache to fs.
func RegisterCache(fs *flag.FlagSet) *Cache {
	c := &Cache{}
	fs.StringVar(&c.dir, "cache-dir", "", "persist memoized run results in this directory (warm re-runs skip simulation)")
	fs.BoolVar(&c.off, "no-cache", false, "disable run memoization entirely (overrides -cache-dir)")
	return c
}

// Memo builds the run memo the flags select: nil under -no-cache (every
// run simulates), with the disk tier under -cache-dir.
func (c *Cache) Memo() *core.Memo {
	if c.off {
		return nil
	}
	return core.NewMemo(core.MemoOptions{Dir: c.dir})
}

// WriteJSON writes v as indented JSON and a newline to path, or to stdout
// when path is "-".
func WriteJSON(path string, v any) error {
	enc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(path, enc, 0o644)
}

// WriteFile creates path and fills it with write.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

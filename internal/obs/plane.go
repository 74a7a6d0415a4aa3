package obs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"sam/internal/runner"
	"sam/internal/stats"
)

// This file is the one-call wiring every command shares (through
// internal/cli's -obs-listen/-obs-log flags): StartPlane stands the plane
// up (or returns a nil *Plane when both are empty — every Plane method is
// nil-safe, so call sites need no branching), and Close tears it down,
// closing the event log and reporting the first write error. The log is
// written one complete line per event, unbuffered, so a run killed
// mid-sweep leaves a parseable log (missing only the summary record);
// Close is idempotent, letting commands close the plane on their os.Exit
// error paths and still defer it for the normal return.

// Plane is a started observability plane. The zero of the type is never
// used — a disabled plane is a nil *Plane, and every method tolerates
// that, so call sites wire hooks unconditionally.
type Plane struct {
	Tracker *Tracker
	server  *Server
	logFile *os.File
	stop    func() // watchdog
	stderr  io.Writer

	closeOnce sync.Once
	closeErr  error
}

// StartPlane stands the plane up: tracker (+ stall watchdog), an HTTP
// server on listen, an event log at logPath, with any extra sources (memo
// caches, tool registries) attached to /metrics. Returns (nil, nil) when
// both are empty. stderr receives the one-line "serving on ..." notice
// (nil silences it).
func StartPlane(listen, logPath string, stderr io.Writer, sources ...func() *stats.Snapshot) (*Plane, error) {
	if listen == "" && logPath == "" {
		return nil, nil
	}
	p := &Plane{stderr: stderr}
	cfg := Config{}
	if logPath != "" {
		f, err := os.Create(logPath)
		if err != nil {
			return nil, fmt.Errorf("obs: event log: %w", err)
		}
		p.logFile = f
		cfg.Log = f
	}
	p.Tracker = NewTracker(cfg)
	p.stop = p.Tracker.Watch(2 * time.Second)
	if listen != "" {
		p.server = NewServer(p.Tracker)
		for _, src := range sources {
			p.server.AddSource(src)
		}
		addr, err := p.server.Listen(listen)
		if err != nil {
			p.shutdown()
			return nil, fmt.Errorf("obs: %w", err)
		}
		if stderr != nil {
			fmt.Fprintf(stderr, "obs: serving /metrics /progress /healthz /debug/pprof on http://%s\n", addr)
		}
	}
	return p, nil
}

// Hooks returns the sweep observer for label (nil observer when the
// plane is disabled — the worker pool's zero-overhead path).
func (p *Plane) Hooks(label string) runner.SweepObserver {
	if p == nil {
		return nil
	}
	return p.Tracker.Hooks(label)
}

// Single opens a one-job span; the returned finish callback is a no-op
// when the plane is disabled.
func (p *Plane) Single(label string) func(err error) {
	if p == nil {
		return func(error) {}
	}
	return p.Tracker.Single(label)
}

// AddSource attaches an extra /metrics snapshot source (no-op when the
// plane or its server is disabled).
func (p *Plane) AddSource(fn func() *stats.Snapshot) {
	if p == nil || p.server == nil {
		return
	}
	p.server.AddSource(fn)
}

// shutdown releases everything except the log-close path.
func (p *Plane) shutdown() {
	if p.stop != nil {
		p.stop()
	}
	if p.server != nil {
		_ = p.server.Close()
	}
}

// Close stops the watchdog and server, writes the summary event, closes
// the log, and returns the first error the event log hit. Idempotent:
// later calls return the first call's result.
func (p *Plane) Close() error {
	if p == nil {
		return nil
	}
	p.closeOnce.Do(func() {
		p.shutdown()
		err := p.Tracker.Close()
		if p.logFile != nil {
			err = errors.Join(err, p.logFile.Close())
		}
		p.closeErr = err
	})
	return p.closeErr
}

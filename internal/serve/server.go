package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"sam/internal/core"
	"sam/internal/obs"
)

// Config sizes a Daemon. The zero value is serviceable (single worker,
// defaults everywhere, no event log).
type Config struct {
	// Workers is the job dispatch concurrency (simultaneous leader jobs).
	Workers int
	// InnerWorkers sizes each compound job's internal sweep pool
	// (0 = Workers — figure grids fan out as wide as the daemon itself).
	InnerWorkers int
	// QueueCap bounds queued leaders (0 = 256).
	QueueCap int
	// TenantQuota bounds one tenant's non-terminal jobs (0 = unlimited).
	TenantQuota int
	// MaxQueueWait is the anti-starvation promotion bound (0 = 30s).
	MaxQueueWait time.Duration
	// MemoEntries bounds the run-level cache's memory tier (0 = default).
	MemoEntries int
	// CacheDir, when set, adds the run-level cache's disk tier — sharing
	// a samfig/samsim -cache-dir starts the daemon warm.
	CacheDir string
	// EventLog, when non-nil, receives the obs JSONL event stream.
	EventLog io.Writer
	// Clock overrides time.Now everywhere (scheduler aging, obs spans) —
	// injectable for the starvation and drain tests.
	Clock func() time.Time
}

// Daemon is the simulation-as-a-service engine behind cmd/samd: the HTTP
// API, the scheduler, the run memo, and the telemetry plane, wired
// together and torn down as one unit.
type Daemon struct {
	cfg     Config
	tracker *obs.Tracker
	obsSrv  *obs.Server
	exec    *executor
	sched   *sched
	mux     *http.ServeMux
}

// NewDaemon builds and starts the engine (workers launch immediately).
func NewDaemon(cfg Config) *Daemon {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.InnerWorkers < 1 {
		cfg.InnerWorkers = cfg.Workers
	}
	d := &Daemon{cfg: cfg}
	d.tracker = obs.NewTracker(obs.Config{Log: cfg.EventLog, Clock: cfg.Clock})
	runMemo := core.NewMemo(core.MemoOptions{MaxEntries: cfg.MemoEntries, Dir: cfg.CacheDir})
	d.exec = newExecutor(runMemo, cfg.InnerWorkers, d.tracker)
	d.obsSrv = obs.NewServer(d.tracker)
	d.obsSrv.AddSource(runMemo.StatsSnapshot)
	d.sched = newSched(schedConfig{
		Workers:      cfg.Workers,
		QueueCap:     cfg.QueueCap,
		TenantQuota:  cfg.TenantQuota,
		MaxQueueWait: cfg.MaxQueueWait,
		Clock:        cfg.Clock,
		Observer:     d.tracker.Hooks("samd"),
		Exec:         d.exec.run,
	})

	d.mux = http.NewServeMux()
	d.mux.HandleFunc("POST /jobs", d.handleSubmit)
	d.mux.HandleFunc("GET /jobs", d.handleList)
	d.mux.HandleFunc("GET /jobs/{id}", d.handleStatus)
	d.mux.HandleFunc("GET /jobs/{id}/result", d.handleResult)
	d.obsSrv.AttachTo(d.mux)
	return d
}

// Handler is the daemon's full HTTP surface: the job API plus the
// telemetry endpoints (/metrics, /progress, /healthz, /debug/pprof).
func (d *Daemon) Handler() http.Handler { return d.mux }

// Tracker exposes the telemetry plane (the stall watchdog's Watch loop is
// the caller's to start — cmd/samd runs it, tests drive CheckStalls).
func (d *Daemon) Tracker() *obs.Tracker { return d.tracker }

// Drain executes the shutdown sequence: stop admitting (submissions get
// 503), let queued and running jobs finish while ctx lives, then cancel
// what remains; once every accepted job is terminal and the workers have
// exited, close the event log with the summary record. Returns the first
// event-log write error.
func (d *Daemon) Drain(ctx context.Context) error {
	d.sched.Drain(ctx)
	return d.tracker.Close()
}

// SubmitResponse is the POST /jobs reply.
type SubmitResponse struct {
	Job JobStatus `json:"job"`
}

// errorResponse is every non-2xx JSON body.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := ParseSubmit(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	j, err := d.sched.Submit(req, d.exec.lookup)
	switch {
	case err == nil:
	case err == ErrQuota:
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
		return
	case err == ErrQueueFull:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		return
	case err == ErrDraining:
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		return
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	w.Header().Set("Location", "/jobs/"+j.id)
	status := http.StatusAccepted
	if d.sched.Status(j).State == StateDone {
		status = http.StatusOK // served instantly from the run memo
	}
	writeJSON(w, status, SubmitResponse{Job: d.sched.Status(j)})
}

// ListResponse is the GET /jobs reply, submission order.
type ListResponse struct {
	Jobs []JobStatus `json:"jobs"`
}

func (d *Daemon) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, ListResponse{Jobs: d.sched.List()})
}

func (d *Daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := d.sched.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, d.sched.Status(j))
}

func (d *Daemon) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := d.sched.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no such job"})
		return
	}
	st := d.sched.Status(j)
	if st.State != StateDone {
		// Not ready (queued/running) or never will be (failed/canceled):
		// the status document says which.
		writeJSON(w, http.StatusConflict, st)
		return
	}
	res := j.result // immutable once state is done
	body, err := res.payload()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", res.ContentType)
	_, _ = w.Write(body)
}

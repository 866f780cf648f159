// Package serve is the HTTP front end of the simulation service. One
// front end serves both binaries; they differ only in the Backend it
// calls. rocksimd's backend (New) computes on the shared
// experiments.Runner, whose content-addressed run cache deduplicates
// repeated cells across clients — CI shards regenerating overlapping
// figures, developers probing one configuration — exactly as they do
// inside one sstbench process. rockgate's backend (internal/gate)
// routes the same requests over a fleet of rocksimd shards.
//
// The API surfaces the two existing CLI shapes byte-for-byte:
//
//	POST /v1/run     one (kind, workload, options) cell; the response
//	                 body is identical to `sstsim -json` for that cell.
//	POST /v1/cell    the fleet-internal cell endpoint (rocksimd only):
//	                 any cell shape (one core, an SMT pair, a chip, a
//	                 leak-oracle check) with named programs and full wire
//	                 options in, a CellStats snapshot (or classified cell
//	                 error) out. Deterministic simulation failures are
//	                 200s with an error body — only transport/admission
//	                 problems use HTTP status — so a router can tell "this
//	                 cell fails everywhere" from "this shard is
//	                 unavailable".
//	POST /v1/grid    one or more experiments; the body is identical to
//	                 `sstbench` output minus its wall-clock lines.
//	                 {"async": true} returns 202 with a result id.
//	GET  /v1/result/{id}   poll an async grid (202 running, 200 done).
//	GET  /v1/trace/{id}    a traced request's span tree (Chrome JSON, or
//	                       the flat list with ?format=spans).
//	GET  /metrics    Prometheus text (service counters + backend samples).
//	GET  /healthz    liveness; 503 once draining.
//
// Every response echoes (or assigns) X-Request-ID. Requests are traced
// when Config.Trace is set or the client sends X-Trace: 1; tracing
// changes headers and the /v1/trace ring only, never a response body.
//
// Backpressure is admission-controlled: at most Config.QueueDepth run
// and grid requests may be in flight (executing on the backend or queued
// for it); beyond that the service answers 429 with a Retry-After hint
// instead of building an unbounded backlog. StartDrain flips the service
// into lame-duck mode — new work is refused with 503, in-flight and
// queued async work runs to completion — and Wait blocks until the last
// admitted request finishes, which is how both binaries turn SIGTERM
// into a loss-free shutdown.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rocksim/internal/cpu"
	"rocksim/internal/experiments"
	"rocksim/internal/obs"
	"rocksim/internal/workload"
)

// Defaults for Config zero values.
const (
	DefaultQueueDepth = 32
	DefaultRetryAfter = time.Second
	// maxFinishedJobs bounds retained async results; the oldest finished
	// results are evicted first, running jobs are never evicted.
	maxFinishedJobs = 64
)

// Config parameterizes a Server.
type Config struct {
	// ShardID names this daemon within a fleet (rocksimd -shard-id);
	// echoed by /healthz so routers and operators can tell shards apart.
	// Empty outside a fleet.
	ShardID string
	// QueueDepth is the admission bound: the maximum number of run/grid
	// requests in flight at once (executing or queued). 0 means
	// DefaultQueueDepth.
	QueueDepth int
	// RetryAfter is the hint returned with 429 responses. 0 means
	// DefaultRetryAfter.
	RetryAfter time.Duration
	// Trace enables request-scoped tracing for every request; off, a
	// client can still trace one request with the X-Trace: 1 header.
	// Tracing never changes a response body — only headers and the
	// /v1/trace ring.
	Trace bool
	// TraceRing bounds retained finished traces (0 = DefaultTraceRing).
	TraceRing int
	// Logger receives the structured request/drain log lines; nil
	// discards them (tests), the binaries pass their process logger.
	Logger *slog.Logger
	// Clock feeds span timestamps; nil means time.Now. Tests inject a
	// fake incrementing clock to make trace exports byte-deterministic.
	Clock func() time.Time
}

// Backend is what a front end serves requests with: the local
// experiments.Runner for rocksimd (New), the shard fleet for rockgate
// (internal/gate). The front end owns everything else — request ids,
// logging and tracing, admission and drain, the async job store, and
// the /v1/grid and /v1/result handlers.
type Backend interface {
	// Names returns the metric namespace of the front end's counters
	// ("serve" exports rocksim_serve_*) and the name of its admission
	// queue in 429 refusals.
	Names() (metrics, queue string)
	// Run answers one admitted /v1/run request.
	Run(ctx context.Context, w http.ResponseWriter, req RunRequest)
	// Grid returns what one grid request regenerates its experiments
	// on, at scale. A *Refusal from its Run ends the grid with that
	// answer instead of a 500.
	Grid(ctx context.Context, scale workload.Scale) GridRunner
	// Health adds the backend's fields to a /healthz body and reports
	// whether it can serve (false answers 502).
	Health(body map[string]any) (up bool)
	// WriteMetrics writes the /metrics exposition: the front end's
	// registry plus the backend's own samples.
	WriteMetrics(w io.Writer) error
}

// GridRunner regenerates one experiment; *experiments.Runner is one.
type GridRunner interface {
	Run(id string, scale workload.Scale) (*experiments.Result, error)
}

// Refusal is an answer that is not a result: the HTTP status, its
// message and, with 429, the Retry-After hint.
type Refusal struct {
	Code       int
	RetryAfter time.Duration
	Msg        string
}

func (r *Refusal) Error() string { return r.Msg }

// retrySecs rounds a Retry-After hint up to whole seconds.
func retrySecs(d time.Duration) int { return max(int((d+time.Second-1)/time.Second), 0) }

// Write sends the refusal as a JSON error body.
func (r *Refusal) Write(w http.ResponseWriter) {
	if r.Code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(retrySecs(r.RetryAfter)))
	}
	HTTPError(w, r.Code, r.Msg)
}

// Server is the service's HTTP handler.
type Server struct {
	cfg   Config
	back  Backend
	ns    string // metric namespace
	queue string // the admission queue's name in 429 refusals
	reg   *obs.Registry
	mux   *http.ServeMux
	log   *slog.Logger
	clock func() time.Time

	// sem is the admission semaphore: one slot per admitted heavy
	// request. Acquisition is non-blocking — a full channel is a 429,
	// never a queued connection.
	sem      chan struct{}
	draining atomic.Bool
	// wg tracks admitted work, including async grid goroutines that
	// outlive their HTTP request; Wait returns when it drains.
	wg sync.WaitGroup
	// reqID numbers requests that arrive without an X-Request-ID.
	reqID atomic.Uint64
	// inflight counts computations executing right now (inside the
	// backend), as opposed to len(sem) which also counts queued work.
	inflight atomic.Int64

	mu         sync.Mutex
	jobs       map[string]*gridJob
	order      []string // job ids, oldest first, for bounded retention
	nextID     uint64
	traces     map[string]*obs.Tracer
	traceOrder []string // request ids, oldest first
}

// gridJob is one async grid computation.
type gridJob struct {
	done    chan struct{}
	body    []byte
	refused *Refusal
}

// NewFront builds a front end over backend b.
func NewFront(cfg Config, b Backend) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	s := &Server{
		cfg:    cfg,
		back:   b,
		reg:    obs.NewRegistry(),
		mux:    http.NewServeMux(),
		log:    cfg.Logger,
		clock:  cfg.Clock,
		sem:    make(chan struct{}, cfg.QueueDepth),
		jobs:   make(map[string]*gridJob),
		traces: make(map[string]*obs.Tracer),
	}
	s.ns, s.queue = b.Names()
	if s.log == nil {
		s.log = slog.New(discardHandler{})
	}
	if s.clock == nil {
		s.clock = time.Now
	}
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/grid", s.handleGrid)
	s.mux.HandleFunc("GET /v1/result/{id}", s.handleResult)
	s.mux.HandleFunc("GET /v1/trace/{id}", s.handleTrace)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// Registry returns the front end's metrics registry, which backends
// add their own samples to.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Logger returns the front end's logger.
func (s *Server) Logger() *slog.Logger { return s.log }

// discardHandler is the log handler of a server built without a
// Logger: it enables no level, so no record is ever formatted.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }

// count returns the front end's counter name in its namespace.
func (s *Server) count(name string) *obs.Counter { return s.reg.Counter(s.ns + "/" + name) }

// StartDrain puts the service in lame-duck mode: subsequent run/grid
// requests are refused with 503 while already-admitted work (including
// async grids) runs to completion.
func (s *Server) StartDrain() {
	if !s.draining.Swap(true) {
		s.log.Info("drain start", "inflight", s.inflight.Load(), "queued", len(s.sem))
	}
}

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Wait blocks until every admitted request has finished. Call after
// StartDrain (and after http.Server.Shutdown) for a loss-free stop.
func (s *Server) Wait() { s.wg.Wait() }

// RunRequest is the body of POST /v1/run.
type RunRequest struct {
	Kind     string      `json:"kind"`     // core model, e.g. "sst" (sim.KindByName)
	Workload string      `json:"workload"` // built-in workload name
	Scale    string      `json:"scale,omitempty"`
	Options  *RunOptions `json:"options,omitempty"`
}

// RunOptions mirrors the sstsim override flags. Pointer fields
// distinguish "absent" from a zero override, matching the CLI's
// sentinel of -1.
type RunOptions struct {
	DQ        *int   `json:"dq,omitempty"`
	Ckpt      *int   `json:"ckpt,omitempty"`
	SSB       *int   `json:"ssb,omitempty"`
	MemLat    *int   `json:"memlat,omitempty"`
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	Timeout   string `json:"timeout,omitempty"` // Go duration, e.g. "30s"
	Faults    string `json:"faults,omitempty"`  // faults.ParseSpec syntax
}

// GridRequest is the body of POST /v1/grid.
type GridRequest struct {
	Exps  []string `json:"exps,omitempty"` // experiment ids; empty = all
	Scale string   `json:"scale,omitempty"`
	Async bool     `json:"async,omitempty"`
}

// AsyncAccepted is the 202 body of an async grid submission.
type AsyncAccepted struct {
	ID     string `json:"id"`
	Result string `json:"result"` // poll URL
}

// admit takes an admission slot, or explains over HTTP why it could
// not. The caller must release() exactly when ok.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter) (release func(), ok bool) {
	if s.draining.Load() {
		s.count("rejected_draining").Inc()
		s.log.Warn("request refused: draining", "id", RequestID(ctx))
		HTTPError(w, http.StatusServiceUnavailable, "draining: not accepting new work")
		return nil, false
	}
	select {
	case s.sem <- struct{}{}:
	default:
		s.count("rejected_busy").Inc()
		secs := retrySecs(s.cfg.RetryAfter)
		s.log.Warn("request refused: queue full", "id", RequestID(ctx), "retry_after_s", secs)
		(&Refusal{Code: http.StatusTooManyRequests, RetryAfter: s.cfg.RetryAfter,
			Msg: fmt.Sprintf("%s full (%d in flight); retry after %ds", s.queue, s.cfg.QueueDepth, secs)}).Write(w)
		return nil, false
	}
	s.wg.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			<-s.sem
			s.wg.Done()
		})
	}, true
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	s.count("run_requests").Inc()
	_, as := obs.StartSpan(ctx, "admission")
	release, ok := s.admit(ctx, w)
	as.End()
	if !ok {
		return
	}
	defer release()

	var req RunRequest
	if err := decodeJSON(r, &req); err != nil {
		HTTPError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.back.Run(ctx, w, req)
}

func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) {
	s.count("grid_requests").Inc()
	release, ok := s.admit(r.Context(), w)
	if !ok {
		return
	}
	// Released inline on the sync path, by the worker on the async path.
	var req GridRequest
	if err := decodeJSON(r, &req); err != nil {
		release()
		HTTPError(w, http.StatusBadRequest, err.Error())
		return
	}
	ids := req.Exps
	if len(ids) == 0 {
		ids = experiments.All
	}
	for _, id := range ids {
		if !knownExperiment(id) {
			release()
			HTTPError(w, http.StatusBadRequest, fmt.Sprintf("unknown experiment %q", id))
			return
		}
	}
	scale, err := workload.ParseScale(req.Scale)
	if err != nil {
		release()
		HTTPError(w, http.StatusBadRequest, err.Error())
		return
	}

	if req.Async {
		job, id := s.newJob()
		// The computation must outlive this handler's request context.
		ctx := context.WithoutCancel(r.Context())
		go func() {
			defer release()
			body, refused := s.computeGrid(ctx, ids, scale)
			s.finishJob(id, job, body, refused)
		}()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(AsyncAccepted{ID: id, Result: "/v1/result/" + id})
		return
	}

	defer release()
	body, refused := s.computeGrid(r.Context(), ids, scale)
	writeGrid(w, body, refused)
}

// computeGrid regenerates the listed experiments in order. The success
// body is byte-identical to `sstbench -exp <ids>` with the wall-clock
// "(… regenerated in …)" lines removed: each result rendered by
// Result.Fprint followed by the blank separator line.
func (s *Server) computeGrid(ctx context.Context, ids []string, scale workload.Scale) ([]byte, *Refusal) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	run := s.back.Grid(ctx, scale)
	var buf bytes.Buffer
	for _, id := range ids {
		res, err := run.Run(id, scale)
		if err != nil {
			var rf *Refusal
			if errors.As(err, &rf) {
				return nil, rf
			}
			s.count("grid_errors").Inc()
			s.log.Error("grid failed", "exp", id, "err", err)
			code := http.StatusInternalServerError
			if errors.Is(err, cpu.ErrDeadline) {
				code = http.StatusGatewayTimeout
			}
			return nil, &Refusal{Code: code, Msg: err.Error()}
		}
		res.Fprint(&buf)
		fmt.Fprintln(&buf)
	}
	s.count("grids_served").Inc()
	return buf.Bytes(), nil
}

// writeGrid answers with a grid's text, or with its refusal.
func writeGrid(w http.ResponseWriter, body []byte, refused *Refusal) {
	if refused != nil {
		refused.Write(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(body)
}

func knownExperiment(id string) bool {
	for _, k := range experiments.All {
		if k == id {
			return true
		}
	}
	return false
}

// newJob registers a fresh async job and returns it with its id.
func (s *Server) newJob() (*gridJob, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := fmt.Sprintf("g%06d", s.nextID)
	job := &gridJob{done: make(chan struct{})}
	s.jobs[id] = job
	s.order = append(s.order, id)
	return job, id
}

// finishJob publishes an async result and evicts the oldest finished
// results beyond the retention bound.
func (s *Server) finishJob(id string, job *gridJob, body []byte, refused *Refusal) {
	s.mu.Lock()
	job.body, job.refused = body, refused
	finished := 0
	for _, jid := range s.order {
		if j := s.jobs[jid]; j != nil && (j == job || isDone(j)) {
			finished++
		}
	}
	for i := 0; i < len(s.order) && finished > maxFinishedJobs; {
		jid := s.order[i]
		j := s.jobs[jid]
		if j != nil && j != job && isDone(j) {
			delete(s.jobs, jid)
			s.order = append(s.order[:i], s.order[i+1:]...)
			finished--
			continue
		}
		i++
	}
	s.mu.Unlock()
	close(job.done)
}

func isDone(j *gridJob) bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	job := s.jobs[id]
	s.mu.Unlock()
	if job == nil {
		HTTPError(w, http.StatusNotFound, fmt.Sprintf("unknown result id %q", id))
		return
	}
	if !isDone(job) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"state": "running"})
		return
	}
	writeGrid(w, job.body, job.refused)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.back.WriteMetrics(w); err != nil {
		// Headers are gone; nothing more to do than note it.
		s.count("metrics_errors").Inc()
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	draining := s.draining.Load()
	body := map[string]any{"draining": draining}
	up := s.back.Health(body)
	body["ok"] = !draining && up
	w.Header().Set("Content-Type", "application/json")
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
	} else if !up {
		w.WriteHeader(http.StatusBadGateway)
	}
	json.NewEncoder(w).Encode(body)
}

// decodeJSON reads a request body strictly: unknown fields are errors,
// so a typo'd option never silently runs a default simulation.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %v", err)
	}
	return nil
}

// HTTPError writes a JSON error body with the given status.
func HTTPError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

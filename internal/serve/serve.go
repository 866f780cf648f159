// Package serve is the HTTP front-end of rocksimd: simulation as a
// service over the shared experiments.Runner. One daemon hosts the
// content-addressed run cache, so repeated cells across clients —
// CI shards regenerating overlapping figures, developers probing one
// configuration — deduplicate onto single simulations exactly as they
// do inside one sstbench process.
//
// The API surfaces the two existing CLI shapes byte-for-byte:
//
//	POST /v1/run     one (kind, workload, options) cell; the response
//	                 body is identical to `sstsim -json` for that cell.
//	POST /v1/cell    the fleet-internal cell endpoint: any cell shape
//	                 (one core, an SMT pair, a chip, a leak-oracle check)
//	                 with named programs and full wire options in, a
//	                 CellStats snapshot (or classified cell error) out.
//	                 Deterministic simulation failures are 200s with an
//	                 error body — only transport/admission problems use
//	                 HTTP status — so a router can tell "this cell fails
//	                 everywhere" from "this shard is unavailable".
//	POST /v1/grid    one or more experiments; the body is identical to
//	                 `sstbench` output minus its wall-clock lines.
//	                 {"async": true} returns 202 with a result id.
//	GET  /v1/result/{id}   poll an async grid (202 running, 200 done).
//	GET  /v1/trace/{id}    a traced request's span tree (Chrome JSON, or
//	                       the flat list with ?format=spans).
//	GET  /metrics    Prometheus text (service counters + run metrics).
//	GET  /healthz    liveness; 503 once draining.
//
// Every response echoes (or assigns) X-Request-ID. Requests are traced
// when Config.Trace is set or the client sends X-Trace: 1; tracing
// changes headers and the /v1/trace ring only, never a response body.
//
// Backpressure is admission-controlled: at most Config.QueueDepth run
// and grid requests may be in flight (executing on the Runner's worker
// pool or queued for it); beyond that the service answers 429 with a
// Retry-After hint instead of building an unbounded backlog. StartDrain
// flips the service into lame-duck mode — new work is refused with 503,
// in-flight and queued async work runs to completion — and Wait blocks
// until the last admitted request finishes, which is how rocksimd turns
// SIGTERM into a loss-free shutdown.
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
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rocksim/internal/cpu"
	"rocksim/internal/experiments"
	"rocksim/internal/faults"
	"rocksim/internal/obs"
	"rocksim/internal/sim"
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
	// discards them (tests), rocksimd passes its process logger.
	Logger *slog.Logger
	// Clock feeds span timestamps; nil means time.Now. Tests inject a
	// fake incrementing clock to make trace exports byte-deterministic.
	Clock func() time.Time
}

// runner is the slice of *experiments.Runner the service consumes.
// It is an interface so the backpressure and drain tests can inject a
// blocking fake; production code always passes the real Runner.
type runner interface {
	RunCellCtx(ctx context.Context, c sim.Cell, opts sim.Options) (sim.Outcome, error)
	Run(id string, scale workload.Scale) (*experiments.Result, error)
	BaseOptions() sim.Options
	CacheStats() (hits, misses uint64)
	PoolStats() (reused, built uint64)
}

// Server is the rocksimd HTTP handler.
type Server struct {
	cfg   Config
	run   runner
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
	// inflight counts simulations executing right now (inside the
	// runner), as opposed to len(sem) which also counts queued work.
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
	done   chan struct{}
	status int
	body   []byte
}

// New builds a Server over the real experiments Runner.
func New(cfg Config, r *experiments.Runner) *Server {
	return newServer(cfg, r)
}

func newServer(cfg Config, r runner) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	s := &Server{
		cfg:    cfg,
		run:    r,
		reg:    obs.NewRegistry(),
		mux:    http.NewServeMux(),
		log:    cfg.Logger,
		clock:  cfg.Clock,
		sem:    make(chan struct{}, cfg.QueueDepth),
		jobs:   make(map[string]*gridJob),
		traces: make(map[string]*obs.Tracer),
	}
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if s.clock == nil {
		s.clock = time.Now
	}
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/cell", s.handleCell)
	s.mux.HandleFunc("POST /v1/grid", s.handleGrid)
	s.mux.HandleFunc("GET /v1/result/{id}", s.handleResult)
	s.mux.HandleFunc("GET /v1/trace/{id}", s.handleTrace)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

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
	Faults    string `json:"faults,omitempty"`  // faults.Parse syntax or "random:SEED"
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

// parseScale maps the wire scale to workload.Scale; "" defaults to full
// like the CLIs.
func parseScale(s string) (workload.Scale, error) {
	switch s {
	case "", "full":
		return workload.ScaleFull, nil
	case "test":
		return workload.ScaleTest, nil
	}
	return 0, fmt.Errorf("bad scale %q (want test or full)", s)
}

// buildOptions applies a request's overrides to the runner's base
// options, exactly as sstsim maps its flags, refusing sizes outside
// [0, MaxSize].
func (s *Server) buildOptions(ro *RunOptions) (sim.Options, error) {
	opts := s.run.BaseOptions()
	if ro == nil {
		return opts, nil
	}
	for _, f := range []struct {
		name string
		v    *int
	}{{"dq", ro.DQ}, {"ckpt", ro.Ckpt}, {"ssb", ro.SSB}, {"memlat", ro.MemLat}} {
		if f.v != nil {
			if err := checkSize(f.name, *f.v); err != nil {
				return opts, err
			}
		}
	}
	if ro.DQ != nil {
		opts.SST.DQSize = *ro.DQ
	}
	if ro.Ckpt != nil {
		opts.SST.Checkpoints = *ro.Ckpt
	}
	if ro.SSB != nil {
		opts.SST.SSBSize = *ro.SSB
	}
	if ro.MemLat != nil && *ro.MemLat > 0 {
		opts.Hier.DRAM.Latency = *ro.MemLat
	}
	if ro.MaxCycles > 0 {
		opts.MaxCycles = ro.MaxCycles
	}
	if ro.Timeout != "" {
		d, err := time.ParseDuration(ro.Timeout)
		if err != nil {
			return opts, fmt.Errorf("bad timeout: %v", err)
		}
		opts.Timeout = d
	}
	if ro.Faults != "" {
		plan, err := parseFaults(ro.Faults)
		if err != nil {
			return opts, err
		}
		opts.Faults = plan
	}
	return opts, nil
}

// parseFaults accepts the same forms as the sstsim -faults flag.
func parseFaults(spec string) (*faults.Plan, error) {
	if rest, ok := strings.CutPrefix(spec, "random:"); ok {
		seed, err := strconv.ParseInt(rest, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad random faults seed %q: %v", rest, err)
		}
		return faults.Random(seed, 1_000_000), nil
	}
	return faults.Parse(spec)
}

// admit takes an admission slot, or explains over HTTP why it could
// not. The caller must release() exactly when ok.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter) (release func(), ok bool) {
	if s.draining.Load() {
		s.reg.Counter("serve/rejected_draining").Inc()
		s.log.Warn("request refused: draining", "id", RequestID(ctx))
		httpError(w, http.StatusServiceUnavailable, "draining: not accepting new work")
		return nil, false
	}
	select {
	case s.sem <- struct{}{}:
	default:
		s.reg.Counter("serve/rejected_busy").Inc()
		secs := int((s.cfg.RetryAfter + time.Second - 1) / time.Second)
		s.log.Warn("request refused: queue full", "id", RequestID(ctx), "retry_after_s", secs)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		httpError(w, http.StatusTooManyRequests,
			fmt.Sprintf("queue full (%d in flight); retry after %ds", s.cfg.QueueDepth, secs))
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
	s.reg.Counter("serve/run_requests").Inc()
	_, as := obs.StartSpan(ctx, "admission")
	release, ok := s.admit(ctx, w)
	as.End()
	if !ok {
		return
	}
	defer release()

	var req RunRequest
	if err := decodeJSON(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	kind, err := sim.KindByName(req.Kind)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	scale, err := parseScale(req.Scale)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	spec, err := workload.Build(req.Workload, scale)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	opts, err := s.buildOptions(req.Options)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Fresh per-cell registry, exactly like sstsim -json: the report's
	// metrics block comes from the run itself. On a cache hit the cached
	// outcome carries the registry of the original compute — same
	// deterministic contents, so hit and miss responses are identical.
	reg := obs.NewRegistry()
	opts.Metrics = reg

	s.inflight.Add(1)
	t0 := time.Now()
	out, err := s.run.RunCellCtx(ctx, sim.CoreCell(kind, spec.Program), opts)
	computeUs := time.Since(t0).Microseconds()
	s.inflight.Add(-1)
	// X-Compute-Us is the server-side cell time (queue wait + cache or
	// compute), traced or not; rockload subtracts it from client TTFB to
	// separate network/daemon overhead from simulation time.
	w.Header().Set("X-Compute-Us", strconv.FormatInt(computeUs, 10))
	if err != nil {
		s.reg.Counter("serve/run_errors").Inc()
		s.log.Error("run failed", "id", RequestID(ctx), "kind", req.Kind,
			"workload", req.Workload, "err", err)
		code := http.StatusInternalServerError
		if errors.Is(err, cpu.ErrDeadline) {
			code = http.StatusGatewayTimeout
		}
		httpError(w, code, err.Error())
		return
	}
	_, bs := obs.StartSpan(ctx, "assemble")
	var buf bytes.Buffer
	if err := sim.NewReport(out).WriteJSON(&buf); err != nil {
		bs.End()
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	bs.End()
	s.foldRun(out)
	s.reg.Counter("serve/cells_served").Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}

// foldRun merges a served cell's run registry into the service
// metrics, so /metrics exposes every counter a run publishes — where the
// daemon's simulated cycles went, the cache, predictor and leak counters
// — summed across all requests (cached cells count once per serve,
// matching cells_served). A cell computed without a registry publishes
// its snapshot into a fresh one first.
func (s *Server) foldRun(out sim.Outcome) {
	reg := out.Obs
	if reg == nil {
		reg = obs.NewRegistry()
		out.PublishObs(reg)
	}
	s.reg.Merge(reg)
}

// handleCell computes one cell for a fleet router. Admission control,
// drain behavior, X-Compute-Us and the cancellation path are identical
// to /v1/run; what differs is the payload: complete options arrive on
// the wire (no base-option merge, so the router's per-cell overrides
// survive exactly) and a sim.CellStats snapshot goes back instead of
// the rendered report. A simulation error that would render as an
// ERR(reason) cell is returned as a 200 with the class and exact
// message in the body; the router rebuilds it with
// experiments.NewRemoteError so the assembled grid is byte-identical
// to a single-node run.
func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	s.reg.Counter("serve/cell_requests").Inc()
	release, ok := s.admit(ctx, w)
	if !ok {
		return
	}
	defer release()

	var req CellRequest
	if err := decodeJSON(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	c, opts, err := req.Resolve()
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	s.inflight.Add(1)
	t0 := time.Now()
	out, err := s.run.RunCellCtx(ctx, c, opts)
	computeUs := time.Since(t0).Microseconds()
	s.inflight.Add(-1)
	w.Header().Set("X-Compute-Us", strconv.FormatInt(computeUs, 10))
	w.Header().Set("Content-Type", "application/json")
	if err != nil {
		// Deliberately 200: the failure is a property of the cell, not of
		// this shard, and must not trigger router failover (which would
		// recompute the same failure elsewhere).
		s.reg.Counter("serve/cell_errors").Inc()
		s.log.Warn("cell failed", "id", RequestID(ctx), "kind", req.Kind,
			"programs", c.Desc(), "err", err)
		json.NewEncoder(w).Encode(CellResponse{
			ErrClass: experiments.ErrClass(err),
			ErrMsg:   err.Error(),
		})
		return
	}
	s.foldRun(out)
	s.reg.Counter("serve/cells_served").Inc()
	json.NewEncoder(w).Encode(CellResponse{Cell: &out.CellStats})
}

func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("serve/grid_requests").Inc()
	release, ok := s.admit(r.Context(), w)
	if !ok {
		return
	}
	// Released inline on the sync path, by the worker on the async path.
	var req GridRequest
	if err := decodeJSON(r, &req); err != nil {
		release()
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	ids := req.Exps
	if len(ids) == 0 {
		ids = experiments.All
	}
	for _, id := range ids {
		if !knownExperiment(id) {
			release()
			httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown experiment %q", id))
			return
		}
	}
	scale, err := parseScale(req.Scale)
	if err != nil {
		release()
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	if req.Async {
		job, id := s.newJob()
		go func() {
			defer release()
			status, body := s.computeGrid(ids, scale)
			s.finishJob(id, job, status, body)
		}()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(AsyncAccepted{ID: id, Result: "/v1/result/" + id})
		return
	}

	defer release()
	status, body := s.computeGrid(ids, scale)
	if status != http.StatusOK {
		httpError(w, status, string(body))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(body)
}

// computeGrid regenerates the listed experiments in order. The success
// body is byte-identical to `sstbench -exp <ids>` with the wall-clock
// "(… regenerated in …)" lines removed: each result rendered by
// Result.Fprint followed by the blank separator line.
func (s *Server) computeGrid(ids []string, scale workload.Scale) (status int, body []byte) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	var buf bytes.Buffer
	for _, id := range ids {
		res, err := s.run.Run(id, scale)
		if err != nil {
			s.reg.Counter("serve/grid_errors").Inc()
			s.log.Error("grid failed", "exp", id, "err", err)
			if errors.Is(err, cpu.ErrDeadline) {
				return http.StatusGatewayTimeout, []byte(err.Error())
			}
			return http.StatusInternalServerError, []byte(err.Error())
		}
		res.Fprint(&buf)
		fmt.Fprintln(&buf)
	}
	s.reg.Counter("serve/grids_served").Inc()
	return http.StatusOK, buf.Bytes()
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
func (s *Server) finishJob(id string, job *gridJob, status int, body []byte) {
	s.mu.Lock()
	job.status, job.body = status, body
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
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown result id %q", id))
		return
	}
	if !isDone(job) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"state": "running"})
		return
	}
	if job.status != http.StatusOK {
		httpError(w, job.status, string(job.body))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(job.body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.run.CacheStats()
	reused, built := s.run.PoolStats()
	s.reg.Counter("serve/cache_hits").Set(hits)
	s.reg.Counter("serve/cache_misses").Set(misses)
	s.reg.Counter("serve/pool_reused").Set(reused)
	s.reg.Counter("serve/pool_built").Set(built)
	s.reg.Gauge("serve/queue_depth").Set(int64(len(s.sem)))
	s.reg.Gauge("serve/inflight_runs").Set(s.inflight.Load())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.reg.WriteProm(w); err != nil {
		// Headers are gone; nothing more to do than note it.
		s.reg.Counter("serve/metrics_errors").Inc()
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	hits, misses := s.run.CacheStats()
	reused, built := s.run.PoolStats()
	body := map[string]any{
		"ok":            !s.draining.Load(),
		"draining":      s.draining.Load(),
		"shard_id":      s.cfg.ShardID,
		"queue_depth":   len(s.sem),
		"queue_limit":   s.cfg.QueueDepth,
		"inflight_runs": s.inflight.Load(),
		"cache_hits":    hits,
		"cache_misses":  misses,
		"pool_reused":   reused,
		"pool_built":    built,
	}
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
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

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

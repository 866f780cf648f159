// Package gate is the stateless fleet router of the simulation
// service: the HTTP tier cmd/rockgate serves in front of N rocksimd
// shards. It exposes the same API as a single daemon — /v1/run,
// /v1/grid (sync and async), /v1/result, /metrics, /healthz — with the
// same response bytes, so clients cannot tell a fleet from one node.
//
// Routing is cache-affine: every request's cells hash onto the shard
// ring by the same content-addressed key the shards use for their run
// caches (experiments.CellKey), so a popular cell lands on one shard
// and is computed once per fleet. /v1/run proxies whole to the owner;
// /v1/grid decomposes every experiment into its cells — single cores,
// SMT pairs, chips and leak-oracle checks alike — fanned out cell by
// cell (bounded per-shard concurrency, reassembled here in presentation
// order), and the assembled body is byte-identical to a single node's.
//
// The gateway holds no durable state: membership is health-driven
// (startup check, background re-probe, request-path ejection), a dead
// shard's keys re-home to ring successors mid-grid, and saturation is
// surfaced honestly — when every shard answers 429, the gateway
// returns 429 with the largest Retry-After it saw rather than queueing
// or hanging. SIGTERM drain mirrors rocksimd: new work refused with
// 503, admitted work (including async grids) runs to completion.
package gate

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rocksim/internal/cpu"
	"rocksim/internal/experiments"
	"rocksim/internal/fleet"
	"rocksim/internal/obs"
	"rocksim/internal/serve"
	"rocksim/internal/serve/client"
	"rocksim/internal/sim"
	"rocksim/internal/workload"
)

// Defaults for Config zero values.
const (
	// DefaultBusyAttempts bounds how many times one cell waits out a
	// shard's 429 before the gateway reports saturation upstream.
	DefaultBusyAttempts = 3
	// DefaultBusyWait caps the per-attempt sleep on a shard 429; the
	// shard's Retry-After is honored up to this.
	DefaultBusyWait = 2 * time.Second
	// maxFinishedJobs bounds retained async results, as in serve.
	maxFinishedJobs = 64
)

// Config parameterizes a Gateway.
type Config struct {
	// Targets are the shard base URLs, e.g. "http://127.0.0.1:8321".
	Targets []string
	// PerShard bounds concurrent gateway requests per shard (default
	// client.DefaultMaxPerHost). Keep it <= each shard's queue depth or
	// fan-out will trip admission control under its own load.
	PerShard int
	// Jobs bounds a grid's assembly workers (cells in flight across the
	// whole fleet). 0 means PerShard * len(Targets).
	Jobs int
	// VNodes is the ring's virtual-node count (0 = fleet.DefaultVNodes).
	VNodes int
	// QueueDepth is the gateway's own admission bound (0 =
	// serve.DefaultQueueDepth).
	QueueDepth int
	// RetryAfter is the gateway's own 429 hint (0 =
	// serve.DefaultRetryAfter).
	RetryAfter time.Duration
	// BusyAttempts and BusyWait govern per-cell shard-429 handling.
	BusyAttempts int
	BusyWait     time.Duration
	// BaseOptions are the options grid experiments start from, exactly
	// like a single daemon's -faults/-timeout flags. nil means
	// sim.DefaultOptions.
	BaseOptions *sim.Options
	// HTTP overrides the shared shard transport (tests); nil builds a
	// tuned one sized to PerShard.
	HTTP *http.Client
	// Logger receives request/ejection log lines; nil discards them.
	Logger *slog.Logger
}

// Gateway is the fleet router HTTP handler.
type Gateway struct {
	cfg Config
	fl  *client.Fleet
	mux *http.ServeMux
	reg *obs.Registry
	log *slog.Logger

	sem      chan struct{}
	draining atomic.Bool
	wg       sync.WaitGroup
	reqID    atomic.Uint64

	mu     sync.Mutex
	jobs   map[string]*gridJob
	order  []string
	nextID uint64
}

// gridJob is one async grid computation.
type gridJob struct {
	done       chan struct{}
	status     int
	retryAfter time.Duration
	body       []byte
}

// New builds a Gateway over cfg.Targets and runs one synchronous
// health check, so shards that are down at start are ejected before the
// first request routes. Call Fleet().Monitor().Start to begin
// background re-probing and Close on shutdown.
func New(cfg Config) (*Gateway, error) {
	if cfg.PerShard <= 0 {
		cfg.PerShard = client.DefaultMaxPerHost
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = cfg.PerShard * len(cfg.Targets)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = serve.DefaultQueueDepth
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = serve.DefaultRetryAfter
	}
	if cfg.BusyAttempts <= 0 {
		cfg.BusyAttempts = DefaultBusyAttempts
	}
	if cfg.BusyWait <= 0 {
		cfg.BusyWait = DefaultBusyWait
	}
	fl, err := client.NewFleet(cfg.Targets, client.FleetConfig{
		PerShard: cfg.PerShard,
		VNodes:   cfg.VNodes,
		HTTP:     cfg.HTTP,
	})
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:  cfg,
		fl:   fl,
		mux:  http.NewServeMux(),
		reg:  obs.NewRegistry(),
		log:  cfg.Logger,
		sem:  make(chan struct{}, cfg.QueueDepth),
		jobs: make(map[string]*gridJob),
	}
	if g.log == nil {
		g.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	g.mux.HandleFunc("POST /v1/run", g.handleRun)
	g.mux.HandleFunc("POST /v1/grid", g.handleGrid)
	g.mux.HandleFunc("GET /v1/result/{id}", g.handleResult)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	fl.Monitor().Check()
	return g, nil
}

// Fleet exposes the underlying multi-target client (health snapshots,
// probe control).
func (g *Gateway) Fleet() *client.Fleet { return g.fl }

// Close stops probing and releases idle shard connections.
func (g *Gateway) Close() { g.fl.Close() }

// StartDrain puts the gateway in lame-duck mode: new work refused with
// 503, admitted work (including async grids) runs to completion.
func (g *Gateway) StartDrain() {
	if !g.draining.Swap(true) {
		g.log.Info("drain start", "queued", len(g.sem))
	}
}

// Draining reports whether StartDrain has been called.
func (g *Gateway) Draining() bool { return g.draining.Load() }

// Wait blocks until every admitted request has finished.
func (g *Gateway) Wait() { g.wg.Wait() }

// ServeHTTP assigns (or echoes) X-Request-ID and logs the request,
// mirroring the single-daemon middleware.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get("X-Request-ID")
	if id == "" {
		id = fmt.Sprintf("g%08d", g.reqID.Add(1))
	}
	w.Header().Set("X-Request-ID", id)
	g.log.LogAttrs(r.Context(), slog.LevelInfo, "request start",
		slog.String("id", id), slog.String("method", r.Method), slog.String("path", r.URL.Path))
	start := time.Now()
	g.mux.ServeHTTP(w, r)
	g.log.LogAttrs(r.Context(), slog.LevelInfo, "request end",
		slog.String("id", id), slog.Int64("dur_us", time.Since(start).Microseconds()))
}

// admit mirrors the shard-side admission control: 503 while draining,
// 429 with a Retry-After hint when the gateway's own queue is full.
func (g *Gateway) admit(w http.ResponseWriter) (release func(), ok bool) {
	if g.draining.Load() {
		g.reg.Counter("gate/rejected_draining").Inc()
		httpError(w, http.StatusServiceUnavailable, "draining: not accepting new work")
		return nil, false
	}
	select {
	case g.sem <- struct{}{}:
	default:
		g.reg.Counter("gate/rejected_busy").Inc()
		secs := retryAfterSecs(g.cfg.RetryAfter)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		httpError(w, http.StatusTooManyRequests,
			fmt.Sprintf("gateway queue full (%d in flight); retry after %ds", g.cfg.QueueDepth, secs))
		return nil, false
	}
	g.wg.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			<-g.sem
			g.wg.Done()
		})
	}, true
}

// handleRun proxies one cell to its owning shard (ring successors on
// transport failure), streaming back the shard's body and compute
// header so the response is byte-identical to asking that shard — or
// any single daemon — directly.
func (g *Gateway) handleRun(w http.ResponseWriter, r *http.Request) {
	g.reg.Counter("gate/run_requests").Inc()
	release, ok := g.admit(w)
	if !ok {
		return
	}
	defer release()
	var req serve.RunRequest
	if err := decodeJSON(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	res, target, err := g.fl.Run(r.Context(), req)
	if err != nil {
		g.writeUpstreamError(w, err)
		return
	}
	w.Header().Set("X-Shard", target)
	w.Header().Set("X-Compute-Us", strconv.FormatInt(res.Compute.Microseconds(), 10))
	w.Header().Set("Content-Type", "application/json")
	w.Write(res.Body)
}

// writeUpstreamError maps a fleet request failure onto the gateway's
// response: shard 429s propagate with their Retry-After, shard HTTP
// errors keep their status and message, transport-level exhaustion is
// a 502.
func (g *Gateway) writeUpstreamError(w http.ResponseWriter, err error) {
	var busy *client.BusyError
	if errors.As(err, &busy) {
		g.reg.Counter("gate/upstream_busy").Inc()
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs(busy.RetryAfter)))
		httpError(w, http.StatusTooManyRequests, err.Error())
		return
	}
	var se *client.StatusError
	if errors.As(err, &se) {
		httpError(w, se.Code, se.Message)
		return
	}
	g.reg.Counter("gate/upstream_down").Inc()
	httpError(w, http.StatusBadGateway, err.Error())
}

func (g *Gateway) handleGrid(w http.ResponseWriter, r *http.Request) {
	g.reg.Counter("gate/grid_requests").Inc()
	release, ok := g.admit(w)
	if !ok {
		return
	}
	var req serve.GridRequest
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
		job, id := g.newJob()
		// The fan-out must outlive this handler's request context.
		ctx := context.WithoutCancel(r.Context())
		go func() {
			defer release()
			status, retry, body := g.computeGrid(ctx, ids, scale)
			g.finishJob(id, job, status, retry, body)
		}()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(serve.AsyncAccepted{ID: id, Result: "/v1/result/" + id})
		return
	}

	defer release()
	status, retry, body := g.computeGrid(r.Context(), ids, scale)
	writeGridResult(w, status, retry, body)
}

func writeGridResult(w http.ResponseWriter, status int, retry time.Duration, body []byte) {
	if status != http.StatusOK {
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs(retry)))
		}
		httpError(w, status, string(body))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(body)
}

// computeGrid assembles the listed experiments in presentation order on
// a per-request experiments.Runner whose compute backend fans cells out
// to their owning shards — the Runner's cache and singleflight
// deduplicate repeated cells within the request, the worker pool bounds
// fleet-wide fan-out, and presentation-order assembly keeps the bytes
// identical to a single node. Every cell carries its complete options,
// so the shards' own base options never matter. The gateway holds no
// cross-request cache: the shards' caches are the fleet's state.
func (g *Gateway) computeGrid(ctx context.Context, ids []string, scale workload.Scale) (status int, retry time.Duration, body []byte) {
	st := &fanout{}
	r := experiments.NewRunner()
	r.SetJobs(g.cfg.Jobs)
	r.SetBaseOptions(g.baseOptions())
	r.SetComputeBackend(g.cellBackend(ctx, scale, st))
	var buf bytes.Buffer
	for _, id := range ids {
		res, err := r.Run(id, scale)
		if s, ra, msg, fatal := st.takeFatal(); fatal {
			return s, ra, msg
		}
		if err != nil {
			g.reg.Counter("gate/grid_errors").Inc()
			if errors.Is(err, cpu.ErrDeadline) {
				return http.StatusGatewayTimeout, 0, []byte(err.Error())
			}
			return http.StatusInternalServerError, 0, []byte(err.Error())
		}
		res.Fprint(&buf)
		fmt.Fprintln(&buf)
	}
	g.reg.Counter("gate/grids_served").Inc()
	return http.StatusOK, 0, buf.Bytes()
}

// cellBackend builds the per-request compute backend: each cache miss
// on the assembly Runner becomes a /v1/cell call to the cell's owning
// shard, with ring-successor failover on transport errors, lame-duck
// ejection on 503, and bounded Retry-After waits on 429. A cell's
// deterministic failure comes back as a RemoteError, which the drivers
// render as the same ERR cell a local run would produce. Gateway-level
// failures (no shards left, fleet saturated) are recorded in st — the
// grid handler turns them into 502/429 instead of a wrong table.
func (g *Gateway) cellBackend(ctx context.Context, scale workload.Scale, st *fanout) experiments.ComputeBackend {
	return func(_ context.Context, c sim.Cell, opts sim.Options) (sim.Outcome, error) {
		req := serve.NewCellRequest(c, scaleName(scale), opts)
		key := req.Key
		var maxBusy time.Duration
		sawBusy := false
		// Bounded outer loop: each round re-reads membership, and a round
		// that ejects shards shrinks the next one. len(targets)+1 rounds
		// guarantee termination even as probes re-admit flapping shards.
		for round := 0; round <= len(g.cfg.Targets); round++ {
			owners := g.fl.Owners(key, g.ringSize())
			if len(owners) == 0 {
				break
			}
			for _, target := range owners {
				for attempt := 0; ; attempt++ {
					release, err := g.fl.Acquire(ctx, target)
					if err != nil {
						st.fail(err)
						return sim.Outcome{}, err
					}
					resp, err := g.fl.Client(target).Cell(ctx, req)
					release()
					if err == nil {
						if resp.ErrClass != "" {
							return sim.Outcome{}, experiments.NewRemoteError(resp.ErrClass, resp.ErrMsg)
						}
						if resp.Cell == nil {
							err := fmt.Errorf("shard %s returned neither cell nor error", target)
							st.fail(err)
							return sim.Outcome{}, err
						}
						g.reg.Counter("gate/cells_remote").Inc()
						return sim.Outcome{CellStats: *resp.Cell}, nil
					}
					var busy *client.BusyError
					if errors.As(err, &busy) {
						g.reg.Counter("gate/retries_busy").Inc()
						sawBusy = true
						if busy.RetryAfter > maxBusy {
							maxBusy = busy.RetryAfter
						}
						if attempt+1 >= g.cfg.BusyAttempts {
							break // give this owner up; try a successor's spare capacity
						}
						if !sleepCtx(ctx, minDuration(busy.RetryAfter, g.cfg.BusyWait)) {
							st.fail(ctx.Err())
							return sim.Outcome{}, ctx.Err()
						}
						continue
					}
					if !g.shardUnavailable(target, err) {
						// The shard answered with a real HTTP error (bad
						// request, fingerprint mismatch): a gateway bug, not
						// a shard outage. Fail the grid loudly.
						st.fail(err)
						return sim.Outcome{}, err
					}
					break // ejected; next owner
				}
			}
		}
		if sawBusy {
			st.saturated(maxBusy)
			return sim.Outcome{}, fmt.Errorf("fleet saturated; retry after %v", maxBusy)
		}
		err := fmt.Errorf("no healthy shards for cell %v/%s", c.Shape(), c.Desc())
		st.fail(err)
		return sim.Outcome{}, err
	}
}

// shardUnavailable classifies an upstream error and ejects the shard
// when it means "unavailable": transport failures and drain refusals
// re-home the shard's keys; HTTP-level answers do not.
func (g *Gateway) shardUnavailable(target string, err error) bool {
	var se *client.StatusError
	if errors.As(err, &se) {
		if se.Code == http.StatusServiceUnavailable {
			if g.fl.Monitor().MarkDown(target, fleet.ErrDraining) {
				g.reg.Counter("gate/ejections").Inc()
				g.log.Warn("shard draining; ejected", "shard", target)
			}
			return true
		}
		return false
	}
	var busy *client.BusyError
	if errors.As(err, &busy) {
		return false
	}
	if g.fl.Monitor().MarkDown(target, err) {
		g.reg.Counter("gate/ejections").Inc()
		g.log.Warn("shard down; ejected", "shard", target, "err", err)
	}
	return true
}

// fanout accumulates gateway-level failures across a grid's cells.
// Saturation and hard failures must abort the request — the drivers
// would otherwise render them as ERR cells, which a single node would
// never show for a healthy simulation.
type fanout struct {
	mu      sync.Mutex
	busy    bool
	maxWait time.Duration
	err     error
}

func (f *fanout) saturated(wait time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.busy = true
	if wait > f.maxWait {
		f.maxWait = wait
	}
}

func (f *fanout) fail(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		f.err = err
	}
}

// takeFatal reports the accumulated verdict: hard failures beat
// saturation (a dead fleet is not "retry later"), saturation maps to
// 429 with the largest Retry-After any shard hinted.
func (f *fanout) takeFatal() (status int, retry time.Duration, msg []byte, fatal bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return http.StatusBadGateway, 0, []byte(f.err.Error()), true
	}
	if f.busy {
		return http.StatusTooManyRequests, f.maxWait,
			[]byte(fmt.Sprintf("fleet saturated; retry after %v", f.maxWait)), true
	}
	return 0, 0, nil, false
}

func (g *Gateway) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	g.mu.Lock()
	job := g.jobs[id]
	g.mu.Unlock()
	if job == nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown result id %q", id))
		return
	}
	select {
	case <-job.done:
	default:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"state": "running"})
		return
	}
	writeGridResult(w, job.status, job.retryAfter, job.body)
}

// handleHealthz reports the gateway's own state plus every shard's.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	shards := g.fl.Monitor().Snapshot()
	type shardView struct {
		Target    string `json:"target"`
		Up        bool   `json:"up"`
		Draining  bool   `json:"draining"`
		Ejections uint64 `json:"ejections"`
		LastErr   string `json:"last_err,omitempty"`
	}
	views := make([]shardView, 0, len(shards))
	up := 0
	for _, s := range shards {
		if s.Up {
			up++
		}
		views = append(views, shardView{
			Target: s.Target, Up: s.Up, Draining: s.Draining,
			Ejections: s.Ejections, LastErr: s.LastErr,
		})
	}
	body := map[string]any{
		"ok":        !g.draining.Load() && up > 0,
		"draining":  g.draining.Load(),
		"ring_size": g.ringSize(),
		"shards_up": up,
		"shards":    views,
	}
	w.Header().Set("Content-Type", "application/json")
	if g.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
	} else if up == 0 {
		w.WriteHeader(http.StatusBadGateway)
	}
	json.NewEncoder(w).Encode(body)
}

// handleMetrics serves the gateway's own counters plus the
// fleet-aggregated view: per-shard up/ejection gauges and the summed
// shard samples (cache traffic, pool reuse, cells served) under a
// fleet_ prefix, so one scrape shows the whole tier.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	g.reg.Gauge("gate/ring_size").Set(int64(g.ringSize()))
	for i, s := range g.fl.Monitor().Snapshot() {
		upVal := int64(0)
		if s.Up {
			upVal = 1
		}
		g.reg.Gauge(fmt.Sprintf("gate/shard%d/up", i)).Set(upVal)
		g.reg.Counter(fmt.Sprintf("gate/shard%d/ejections", i)).Set(s.Ejections)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := g.reg.WriteProm(w); err != nil {
		g.reg.Counter("gate/metrics_errors").Inc()
		return
	}
	agg := g.fl.MetricsAll()
	names := make([]string, 0, len(agg))
	for name := range agg {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# Fleet-aggregated samples (summed across reachable shards).\n")
	for _, name := range names {
		fmt.Fprintf(w, "fleet_%s %g\n", name, agg[name])
	}
}

func (g *Gateway) ringSize() int { return g.fl.Monitor().Ring().Size() }

func (g *Gateway) baseOptions() sim.Options {
	if g.cfg.BaseOptions != nil {
		return *g.cfg.BaseOptions
	}
	return sim.DefaultOptions()
}

// newJob and finishJob mirror the single daemon's bounded async-result
// retention.
func (g *Gateway) newJob() (*gridJob, string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.nextID++
	id := fmt.Sprintf("g%06d", g.nextID)
	job := &gridJob{done: make(chan struct{})}
	g.jobs[id] = job
	g.order = append(g.order, id)
	return job, id
}

func (g *Gateway) finishJob(id string, job *gridJob, status int, retry time.Duration, body []byte) {
	g.mu.Lock()
	job.status, job.retryAfter, job.body = status, retry, body
	finished := 0
	for _, jid := range g.order {
		if j := g.jobs[jid]; j != nil && (j == job || jobDone(j)) {
			finished++
		}
	}
	for i := 0; i < len(g.order) && finished > maxFinishedJobs; {
		jid := g.order[i]
		j := g.jobs[jid]
		if j != nil && j != job && jobDone(j) {
			delete(g.jobs, jid)
			g.order = append(g.order[:i], g.order[i+1:]...)
			finished--
			continue
		}
		i++
	}
	g.mu.Unlock()
	close(job.done)
}

func jobDone(j *gridJob) bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

func knownExperiment(id string) bool {
	for _, k := range experiments.All {
		if k == id {
			return true
		}
	}
	return false
}

func parseScale(s string) (workload.Scale, error) {
	switch s {
	case "", "full":
		return workload.ScaleFull, nil
	case "test":
		return workload.ScaleTest, nil
	}
	return 0, fmt.Errorf("bad scale %q (want test or full)", s)
}

func scaleName(s workload.Scale) string {
	if s == workload.ScaleTest {
		return "test"
	}
	return "full"
}

func retryAfterSecs(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 0 {
		secs = 0
	}
	return secs
}

func minDuration(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

// sleepCtx sleeps for d or until ctx ends; false means the context won.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %v", err)
	}
	return nil
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

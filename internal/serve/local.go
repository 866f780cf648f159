package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"rocksim/internal/cpu"
	"rocksim/internal/experiments"
	"rocksim/internal/faults"
	"rocksim/internal/obs"
	"rocksim/internal/sim"
	"rocksim/internal/workload"
)

// runner is the slice of *experiments.Runner the local backend
// consumes. It is an interface so the backpressure and drain tests can
// inject a blocking fake; production code always passes the real Runner.
type runner interface {
	RunCellReport(ctx context.Context, c sim.Cell, opts sim.Options) (sim.Outcome, func() ([]byte, error), error)
	Run(id string, scale workload.Scale) (*experiments.Result, error)
	BaseOptions() sim.Options
	CacheStats() (hits, misses uint64)
	CacheSize() (entries int, evictions uint64)
	PoolStats() (reused, built uint64)
}

// local is rocksimd's backend: every request computes on the shared
// Runner, and /v1/cell serves the fleet routers in front of it.
type local struct {
	s   *Server
	run runner
}

// New builds rocksimd's front end over the real experiments Runner.
func New(cfg Config, r *experiments.Runner) *Server {
	return newServer(cfg, r)
}

func newServer(cfg Config, r runner) *Server {
	l := &local{run: r}
	l.s = NewFront(cfg, l)
	l.s.mux.HandleFunc("POST /v1/cell", l.handleCell)
	return l.s
}

func (l *local) Names() (metrics, queue string) { return "serve", "queue" }

func (l *local) Grid(context.Context, workload.Scale) GridRunner { return l.run }

// resolve turns a /v1/run request into the cell and options to run,
// applying its overrides to the runner's base options exactly as sstsim
// maps its flags, and refusing sizes outside [0, MaxSize].
func (l *local) resolve(req RunRequest) (sim.Cell, sim.Options, error) {
	opts := l.run.BaseOptions()
	kind, err := sim.KindByName(req.Kind)
	if err != nil {
		return sim.Cell{}, opts, err
	}
	scale, err := workload.ParseScale(req.Scale)
	if err != nil {
		return sim.Cell{}, opts, err
	}
	spec, err := workload.Build(req.Workload, scale)
	if err != nil {
		return sim.Cell{}, opts, err
	}
	c := sim.CoreCell(kind, spec.Program)
	ro := req.Options
	if ro == nil {
		return c, opts, nil
	}
	for _, f := range []struct {
		name string
		v    *int
	}{{"dq", ro.DQ}, {"ckpt", ro.Ckpt}, {"ssb", ro.SSB}, {"memlat", ro.MemLat}} {
		if f.v != nil {
			if err := checkSize(f.name, *f.v, MaxSize); err != nil {
				return c, opts, err
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
			return c, opts, fmt.Errorf("bad timeout: %v", err)
		}
		opts.Timeout = d
	}
	if ro.Faults != "" {
		plan, err := faults.ParseSpec(ro.Faults)
		if err != nil {
			return c, opts, err
		}
		opts.Faults = plan
	}
	return c, opts, nil
}

// runCell computes one cell on the runner, counting it in flight and
// reporting the server-side cell time (queue wait + cache or compute)
// as X-Compute-Us, traced or not; rockgate forwards it on its /v1/run
// proxy. report returns the cell's rendered report (see
// Runner.RunCellReport).
func (l *local) runCell(ctx context.Context, w http.ResponseWriter, c sim.Cell, opts sim.Options) (out sim.Outcome, report func() ([]byte, error), err error) {
	l.s.inflight.Add(1)
	t0 := time.Now()
	out, report, err = l.run.RunCellReport(ctx, c, opts)
	w.Header().Set("X-Compute-Us", strconv.FormatInt(time.Since(t0).Microseconds(), 10))
	l.s.inflight.Add(-1)
	return out, report, err
}

func (l *local) Run(ctx context.Context, w http.ResponseWriter, req RunRequest) {
	c, opts, err := l.resolve(req)
	if err != nil {
		HTTPError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Fresh per-cell registry, exactly like sstsim -json: the report's
	// metrics block comes from the run itself. On a cache hit the cached
	// outcome carries the registry of the original compute, and the body
	// is the one its cache entry rendered for the first serve, so hit
	// and miss responses are identical.
	opts.Metrics = obs.NewRegistry()
	out, report, err := l.runCell(ctx, w, c, opts)
	if err != nil {
		l.s.count("run_errors").Inc()
		l.s.log.Error("run failed", "id", RequestID(ctx), "kind", req.Kind,
			"workload", req.Workload, "err", err)
		code := http.StatusInternalServerError
		if errors.Is(err, cpu.ErrDeadline) {
			code = http.StatusGatewayTimeout
		}
		HTTPError(w, code, err.Error())
		return
	}
	_, bs := obs.StartSpan(ctx, "assemble")
	body, err := report()
	bs.End()
	if err != nil {
		HTTPError(w, http.StatusInternalServerError, err.Error())
		return
	}
	l.foldRun(out)
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// foldRun merges a served cell's run registry into the service
// metrics, so /metrics exposes every counter a run publishes — where the
// daemon's simulated cycles went, the cache, predictor and leak counters
// — summed across all requests (cached cells count once per serve,
// matching cells_served). A cell computed without a registry publishes
// its snapshot into a fresh one first.
func (l *local) foldRun(out sim.Outcome) {
	reg := out.Obs
	if reg == nil {
		reg = obs.NewRegistry()
		out.PublishObs(reg)
	}
	l.s.reg.Merge(reg)
	l.s.count("cells_served").Inc()
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
func (l *local) handleCell(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	l.s.count("cell_requests").Inc()
	release, ok := l.s.admit(ctx, w)
	if !ok {
		return
	}
	defer release()

	var req CellRequest
	if err := decodeJSON(r, &req); err != nil {
		HTTPError(w, http.StatusBadRequest, err.Error())
		return
	}
	c, opts, err := req.Resolve()
	if err != nil {
		HTTPError(w, http.StatusBadRequest, err.Error())
		return
	}
	out, _, err := l.runCell(ctx, w, c, opts)
	w.Header().Set("Content-Type", "application/json")
	if err != nil {
		// Deliberately 200: the failure is a property of the cell, not of
		// this shard, and must not trigger router failover (which would
		// recompute the same failure elsewhere).
		l.s.count("cell_errors").Inc()
		l.s.log.Warn("cell failed", "id", RequestID(ctx), "kind", req.Kind,
			"programs", c.Desc(), "err", err)
		json.NewEncoder(w).Encode(CellResponse{
			ErrClass: experiments.ErrClass(err),
			ErrMsg:   err.Error(),
		})
		return
	}
	l.foldRun(out)
	json.NewEncoder(w).Encode(CellResponse{Cell: &out.CellStats})
}

// Health reports the daemon's queue and its cache and pool counters.
func (l *local) Health(body map[string]any) bool {
	hits, misses := l.run.CacheStats()
	entries, evictions := l.run.CacheSize()
	reused, built := l.run.PoolStats()
	body["shard_id"] = l.s.cfg.ShardID
	body["queue_depth"] = len(l.s.sem)
	body["queue_limit"] = l.s.cfg.QueueDepth
	body["inflight_runs"] = l.s.inflight.Load()
	body["cache_hits"] = hits
	body["cache_misses"] = misses
	body["cache_entries"] = entries
	body["cache_evictions"] = evictions
	body["pool_reused"] = reused
	body["pool_built"] = built
	return true
}

// WriteMetrics exposes the service counters, the folded run metrics
// and the daemon's queue, cache and pool samples.
func (l *local) WriteMetrics(w io.Writer) error {
	hits, misses := l.run.CacheStats()
	entries, evictions := l.run.CacheSize()
	reused, built := l.run.PoolStats()
	reg := l.s.reg
	reg.Counter("serve/cache_hits").Set(hits)
	reg.Counter("serve/cache_misses").Set(misses)
	reg.Counter("serve/cache_evictions").Set(evictions)
	reg.Gauge("serve/cache_entries").Set(int64(entries))
	reg.Counter("serve/pool_reused").Set(reused)
	reg.Counter("serve/pool_built").Set(built)
	reg.Gauge("serve/queue_depth").Set(int64(len(l.s.sem)))
	reg.Gauge("serve/inflight_runs").Set(l.s.inflight.Load())
	return reg.WriteProm(w)
}

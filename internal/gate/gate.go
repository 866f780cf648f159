// Package gate is the fleet backend of the simulation service: what
// cmd/rockgate serves in front of N rocksimd shards. The HTTP front end
// is internal/serve's, the same one a single daemon runs — request ids,
// tracing, admission, drain, the async job store and the /v1/grid and
// /v1/result handlers — so clients cannot tell a fleet from one node,
// and the response bytes are the same.
//
// What is the gateway's own is the routing. It is cache-affine: every
// request's cells hash onto the shard ring by the same
// content-addressed key the shards use for their run caches
// (experiments.CellKey), so a popular cell lands on one shard and is
// computed once per fleet. /v1/run proxies whole to the owner; /v1/grid
// decomposes every experiment into its cells — single cores, SMT pairs,
// chips and leak-oracle checks alike — fanned out cell by cell (bounded
// per-shard concurrency, reassembled here in presentation order), and
// the assembled body is byte-identical to a single node's.
//
// The gateway holds no durable state: membership is health-driven
// (startup check, background re-probe, request-path ejection), a dead or
// draining shard's keys re-home to ring successors mid-request, and
// saturation is surfaced honestly — when every shard answers 429, the
// gateway returns 429 with the largest Retry-After it saw rather than
// queueing or hanging.
package gate

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"rocksim/internal/experiments"
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

// Gateway is the fleet router: the serve front end over the fleet
// backend.
type Gateway struct {
	*serve.Server
	cfg Config
	fl  *client.Fleet
	reg *obs.Registry
	log *slog.Logger
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
	g := &Gateway{cfg: cfg, fl: fl}
	g.Server = serve.NewFront(serve.Config{
		QueueDepth: cfg.QueueDepth,
		RetryAfter: cfg.RetryAfter,
		Logger:     cfg.Logger,
	}, backend{g})
	g.reg, g.log = g.Registry(), g.Logger()
	fl.Monitor().Check()
	return g, nil
}

// Fleet exposes the underlying multi-target client (health snapshots,
// probe control).
func (g *Gateway) Fleet() *client.Fleet { return g.fl }

// Close stops probing and releases idle shard connections.
func (g *Gateway) Close() { g.fl.Close() }

// backend is the serve.Backend the gateway's front end calls.
type backend struct{ *Gateway }

func (backend) Names() (metrics, queue string) { return "gate", "gateway queue" }

// Run proxies one cell to its owning shard (ring successors when a
// shard is down or draining), passing back the shard's body and compute
// header so the response is byte-identical to asking that shard — or
// any single daemon — directly.
func (b backend) Run(ctx context.Context, w http.ResponseWriter, req serve.RunRequest) {
	res, target, err := b.fl.Run(ctx, req)
	if err != nil {
		b.upstreamRefusal(err).Write(w)
		return
	}
	w.Header().Set("X-Shard", target)
	w.Header().Set("X-Compute-Us", strconv.FormatInt(res.Compute.Microseconds(), 10))
	w.Header().Set("Content-Type", "application/json")
	w.Write(res.Body)
}

// upstreamRefusal maps a fleet request failure onto the gateway's
// answer: shard 429s propagate with their Retry-After, shard HTTP
// errors keep their status and message, transport-level exhaustion is
// a 502.
func (g *Gateway) upstreamRefusal(err error) *serve.Refusal {
	var busy *client.BusyError
	if errors.As(err, &busy) {
		g.reg.Counter("gate/upstream_busy").Inc()
		return &serve.Refusal{Code: http.StatusTooManyRequests, RetryAfter: busy.RetryAfter, Msg: err.Error()}
	}
	var se *client.StatusError
	if errors.As(err, &se) {
		return &serve.Refusal{Code: se.Code, Msg: se.Message}
	}
	g.reg.Counter("gate/upstream_down").Inc()
	return &serve.Refusal{Code: http.StatusBadGateway, Msg: err.Error()}
}

// Grid assembles experiments on a per-request experiments.Runner whose
// compute backend fans cells out to their owning shards — the Runner's
// cache and singleflight deduplicate repeated cells within the request,
// the worker pool bounds fleet-wide fan-out, and presentation-order
// assembly keeps the bytes identical to a single node. Every cell
// carries its complete options, so the shards' own base options never
// matter. The gateway holds no cross-request cache: the shards' caches
// are the fleet's state.
func (b backend) Grid(ctx context.Context, scale workload.Scale) serve.GridRunner {
	st := &fanout{}
	r := experiments.NewRunner()
	r.SetJobs(b.cfg.Jobs)
	r.SetBaseOptions(b.baseOptions())
	r.SetComputeBackend(b.cellBackend(ctx, scale, st))
	return fanoutRunner{r, st}
}

// fanoutRunner ends a grid with the fan-out's verdict once one is in.
type fanoutRunner struct {
	r  *experiments.Runner
	st *fanout
}

func (f fanoutRunner) Run(id string, scale workload.Scale) (*experiments.Result, error) {
	res, err := f.r.Run(id, scale)
	if rf := f.st.refusal(); rf != nil {
		return nil, rf
	}
	return res, err
}

// cellBackend builds the per-request compute backend: each cache miss
// on the assembly Runner becomes a /v1/cell call to the cell's owning
// shard, with ring-successor failover when the shard is down or
// draining, and bounded Retry-After waits on 429. A cell's
// deterministic failure comes back as a RemoteError, which the drivers
// render as the same ERR cell a local run would produce. Gateway-level
// failures (no shards left, fleet saturated) are recorded in st — the
// grid turns them into 502/429 instead of a wrong table.
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
						if !sleepCtx(ctx, min(busy.RetryAfter, g.cfg.BusyWait)) {
							st.fail(ctx.Err())
							return sim.Outcome{}, ctx.Err()
						}
						continue
					}
					unavailable, ejected := g.fl.Eject(ctx, target, err)
					if ejected {
						g.reg.Counter("gate/ejections").Inc()
						g.log.Warn("shard ejected", "shard", target, "err", err)
					}
					if !unavailable {
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

// refusal reports the accumulated verdict, nil while there is none:
// hard failures beat saturation (a dead fleet is not "retry later"),
// saturation maps to 429 with the largest Retry-After any shard hinted.
func (f *fanout) refusal() *serve.Refusal {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return &serve.Refusal{Code: http.StatusBadGateway, Msg: f.err.Error()}
	}
	if f.busy {
		return &serve.Refusal{Code: http.StatusTooManyRequests, RetryAfter: f.maxWait,
			Msg: fmt.Sprintf("fleet saturated; retry after %v", f.maxWait)}
	}
	return nil
}

// Health reports every shard's state; the gateway is up while any shard
// is.
func (b backend) Health(body map[string]any) bool {
	shards := b.fl.Monitor().Snapshot()
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
	body["ring_size"] = b.ringSize()
	body["shards_up"] = up
	body["shards"] = views
	return up > 0
}

// WriteMetrics serves the gateway's own counters plus the
// fleet-aggregated view: per-shard up/ejection gauges and the summed
// shard samples (cache traffic, pool reuse, cells served) under a
// fleet_ prefix, so one scrape shows the whole tier.
func (b backend) WriteMetrics(w io.Writer) error {
	b.reg.Gauge("gate/ring_size").Set(int64(b.ringSize()))
	for i, s := range b.fl.Monitor().Snapshot() {
		upVal := int64(0)
		if s.Up {
			upVal = 1
		}
		b.reg.Gauge(fmt.Sprintf("gate/shard%d/up", i)).Set(upVal)
		b.reg.Counter(fmt.Sprintf("gate/shard%d/ejections", i)).Set(s.Ejections)
	}
	if err := b.reg.WriteProm(w); err != nil {
		return err
	}
	agg := b.fl.MetricsAll()
	names := make([]string, 0, len(agg))
	for name := range agg {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# Fleet-aggregated samples (summed across reachable shards).\n")
	for _, name := range names {
		fmt.Fprintf(w, "fleet_%s %g\n", name, agg[name])
	}
	return nil
}

func (g *Gateway) ringSize() int { return g.fl.Monitor().Ring().Size() }

func (g *Gateway) baseOptions() sim.Options {
	if g.cfg.BaseOptions != nil {
		return *g.cfg.BaseOptions
	}
	return sim.DefaultOptions()
}

func scaleName(s workload.Scale) string {
	if s == workload.ScaleTest {
		return "test"
	}
	return "full"
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

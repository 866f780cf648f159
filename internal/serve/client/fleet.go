package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"

	"rocksim/internal/fleet"
	"rocksim/internal/serve"
)

// Fleet is the multi-target mode of the client: one consistent-hash
// ring over N rocksimd shards, one shared tuned http.Client (so every
// per-target connection pool is reused across the whole process), a
// per-shard concurrency bound, and health-driven membership. rockgate
// routes every request through a Fleet.
type Fleet struct {
	targets []string
	clients map[string]*Client
	sems    map[string]chan struct{}
	mon     *fleet.Monitor
	httpc   *http.Client
}

// FleetConfig parameterizes NewFleet. Zero values get defaults.
type FleetConfig struct {
	// PerShard bounds concurrent requests per shard (default
	// DefaultMaxPerHost). The transport's connection pool is sized to
	// match, so fan-out never opens more than PerShard conns per shard.
	PerShard int
	// VNodes is the ring's virtual-node count per shard (default
	// fleet.DefaultVNodes).
	VNodes int
	// HTTP overrides the shared client; nil builds a tuned one sized to
	// PerShard. Tests inject an httptest transport here.
	HTTP *http.Client
}

// NewFleet builds the multi-target client over targets (base URLs).
// All targets start as ring members; call Check or the monitor's Start
// to begin health-driven ejection.
func NewFleet(targets []string, cfg FleetConfig) (*Fleet, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("fleet needs at least one target")
	}
	if cfg.PerShard <= 0 {
		cfg.PerShard = DefaultMaxPerHost
	}
	httpc := cfg.HTTP
	if httpc == nil {
		httpc = NewHTTPClient(cfg.PerShard)
	}
	f := &Fleet{
		targets: append([]string(nil), targets...),
		clients: make(map[string]*Client, len(targets)),
		sems:    make(map[string]chan struct{}, len(targets)),
		httpc:   httpc,
	}
	for _, t := range targets {
		if f.clients[t] != nil {
			return nil, fmt.Errorf("duplicate fleet target %q", t)
		}
		f.clients[t] = &Client{Base: t, HTTP: httpc}
		f.sems[t] = make(chan struct{}, cfg.PerShard)
	}
	ring := fleet.NewRing(cfg.VNodes)
	f.mon = fleet.NewMonitor(ring, targets, f.probe)
	return f, nil
}

// probe is the monitor's health check: GET /healthz, distinguishing
// down (transport error, unexpected status) from lame-duck (draining).
func (f *Fleet) probe(target string) error {
	h, err := f.clients[target].Health()
	if err != nil {
		return err
	}
	if h.Draining {
		return fleet.ErrDraining
	}
	return nil
}

// Monitor exposes the fleet's health state and probe controls.
func (f *Fleet) Monitor() *fleet.Monitor { return f.mon }

// Client returns the per-target client (nil for an unknown target).
func (f *Fleet) Client(target string) *Client { return f.clients[target] }

// Owners returns up to n healthy shards for key in failover order.
func (f *Fleet) Owners(key string, n int) []string {
	return f.mon.Ring().Owners(key, n)
}

// Acquire takes a per-shard concurrency slot, waiting until one frees
// or ctx ends. The caller must call the release exactly once.
func (f *Fleet) Acquire(ctx context.Context, target string) (release func(), err error) {
	sem := f.sems[target]
	if sem == nil {
		return nil, fmt.Errorf("unknown fleet target %q", target)
	}
	select {
	case sem <- struct{}{}:
		return func() { <-sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Eject classifies err, from a request to target made under ctx, and
// takes the shard out of the ring when it could not take the request: a
// transport failure, or a 503 from a draining shard (recorded as
// fleet.ErrDraining). Its keys then re-home to ring successors at the
// very next routing decision rather than at the next probe tick. Every
// other answer reached a live shard and would be the same on any other:
// a 429 means wait for the owner, which holds the cache line; another
// HTTP status belongs to the request; and an ended ctx is the caller
// giving up. unavailable reports whether to fail over, ejected whether
// this call took target out of the ring.
func (f *Fleet) Eject(ctx context.Context, target string, err error) (unavailable, ejected bool) {
	if ctx.Err() != nil {
		return false, false
	}
	var busy *BusyError
	var se *StatusError
	switch {
	case errors.As(err, &busy):
		return false, false
	case errors.As(err, &se):
		if se.Code != http.StatusServiceUnavailable {
			return false, false
		}
		err = fleet.ErrDraining
	}
	return true, f.mon.MarkDown(target, err)
}

// RunKey is the deterministic routing key for a /v1/run request: any
// stable function of the request works (placement only has to be
// agreed upon, not equal to the shard's internal cache key), and JSON
// of the fixed-field-order struct is stable.
func RunKey(req serve.RunRequest) string {
	b, err := json.Marshal(req)
	if err != nil {
		// Unreachable for the plain wire struct; degrade to one bucket.
		return req.Kind + "|" + req.Workload + "|" + req.Scale
	}
	return string(b)
}

// Run routes one /v1/run to the cell's owning shard under ctx, failing
// over to ring successors when a shard is down or draining (ejecting it
// as it goes; see Eject). Admission 429s and other HTTP-level errors are
// returned, not failed over: the owner holds the cache line, and
// recomputing a busy shard's cell elsewhere would defeat fleet-wide
// deduplication.
func (f *Fleet) Run(ctx context.Context, req serve.RunRequest) (*RunResult, string, error) {
	key := RunKey(req)
	owners := f.Owners(key, f.mon.Ring().Size())
	if len(owners) == 0 {
		return nil, "", fmt.Errorf("no healthy shards")
	}
	var lastErr error
	for _, target := range owners {
		release, err := f.Acquire(ctx, target)
		if err != nil {
			return nil, target, err
		}
		res, err := f.clients[target].runDetail(ctx, req)
		release()
		if err == nil {
			return res, target, nil
		}
		if unavailable, _ := f.Eject(ctx, target, err); !unavailable {
			return nil, target, err
		}
		lastErr = err
	}
	return nil, "", fmt.Errorf("all shards failed for key: %w", lastErr)
}

// MetricsAll scrapes every reachable shard's /metrics and sums the
// samples fleet-wide (per-shard values are available via Client(t)).
func (f *Fleet) MetricsAll() map[string]float64 {
	sum := make(map[string]float64)
	for _, t := range f.targets {
		m, err := f.clients[t].Metrics()
		if err != nil {
			continue
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			sum[k] += m[k]
		}
	}
	return sum
}

// Close stops probing and releases idle connections.
func (f *Fleet) Close() {
	f.mon.Stop()
	if t, ok := f.httpc.Transport.(*http.Transport); ok && t != nil {
		t.CloseIdleConnections()
	}
}

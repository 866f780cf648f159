// Package client is the Go client for rocksimd (internal/serve): typed
// wrappers over the /v1 endpoints plus a Prometheus scrape helper.
// cmd/rockbench drives its load through this package, rockgate routes
// cells through its Fleet, and external tooling can use it to talk to a
// long-lived daemon instead of paying simulator start-up per query.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"rocksim/internal/serve"
)

// Client talks to one rocksimd instance.
type Client struct {
	// Base is the daemon's root URL, e.g. "http://127.0.0.1:8321".
	Base string
	// HTTP overrides the transport; nil uses http.DefaultClient.
	HTTP *http.Client
}

// BusyError is a 429 from the daemon's admission control: the queue is
// full and the caller should retry after the hinted delay.
type BusyError struct {
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("server busy; retry after %v", e.RetryAfter)
}

// StatusError is any other non-2xx response, with the server's decoded
// error message.
type StatusError struct {
	Code    int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Code, e.Message)
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// post sends req as JSON to path under ctx and returns the response
// with its body read. A status other than 200 maps to BusyError (429)
// or StatusError. When ctx ends the request is abandoned, and the
// daemon sees its own request context end.
func (c *Client) post(ctx context.Context, path string, req any) (*http.Response, []byte, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(payload))
	if err != nil {
		return nil, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(hreq)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, responseError(resp, body)
	}
	return resp, body, nil
}

func responseError(resp *http.Response, body []byte) error {
	if resp.StatusCode == http.StatusTooManyRequests {
		return &BusyError{RetryAfter: retryAfter(resp.Header.Get("Retry-After"), time.Now)}
	}
	var e struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(body))
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	return &StatusError{Code: resp.StatusCode, Message: msg}
}

// retryAfter parses a Retry-After header per RFC 9110 §10.2.3: either a
// non-negative decimal number of seconds or an HTTP-date. "0" is a
// valid, meaningful hint — retry immediately, the queue drained — and
// must not be rounded up to the default; a date in the past likewise
// means now. Only an absent or unparsable header falls back to
// serve.DefaultRetryAfter. now is injected for testing the date arm.
func retryAfter(h string, now func() time.Time) time.Duration {
	h = strings.TrimSpace(h)
	if h == "" {
		return serve.DefaultRetryAfter
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return serve.DefaultRetryAfter
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(h); err == nil {
		if d := at.Sub(now()); d > 0 {
			return d
		}
		return 0
	}
	return serve.DefaultRetryAfter
}

// Run executes one cell and returns the report JSON exactly as the
// daemon produced it (byte-identical to `sstsim -json`).
func (c *Client) Run(req serve.RunRequest) ([]byte, error) {
	res, err := c.RunDetail(req)
	if err != nil {
		return nil, err
	}
	return res.Body, nil
}

// RunResult is a /v1/run response plus the server-reported compute
// time.
type RunResult struct {
	// Body is the report JSON, byte-identical to Run's return.
	Body []byte
	// Compute is the server-reported X-Compute-Us: wall time the
	// daemon spent inside the runner (queue wait plus cache or compute).
	Compute time.Duration
}

// RunDetail executes one cell like Run but also surfaces the
// server-reported compute time.
func (c *Client) RunDetail(req serve.RunRequest) (*RunResult, error) {
	return c.runDetail(context.Background(), req)
}

// runDetail is RunDetail under ctx.
func (c *Client) runDetail(ctx context.Context, req serve.RunRequest) (*RunResult, error) {
	resp, body, err := c.post(ctx, "/v1/run", req)
	if err != nil {
		return nil, err
	}
	res := &RunResult{Body: body}
	if us, err := strconv.ParseInt(resp.Header.Get("X-Compute-Us"), 10, 64); err == nil {
		res.Compute = time.Duration(us) * time.Microsecond
	}
	return res, nil
}

// Cell computes one fleet-internal cell via POST /v1/cell: complete
// wire options in, a CellStats snapshot or classified cell error out.
// The context carries the caller's deadline and cancellation (a grid
// fan-out cancels its outstanding cells when one shard fails hard).
// A non-nil error here is a transport- or admission-level problem
// (connection refused, 429 BusyError, 503 draining); a deterministic
// simulation failure arrives as a nil error with resp.ErrClass set.
func (c *Client) Cell(ctx context.Context, req serve.CellRequest) (*serve.CellResponse, error) {
	_, body, err := c.post(ctx, "/v1/cell", req)
	if err != nil {
		return nil, err
	}
	var out serve.CellResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("bad /v1/cell body: %v", err)
	}
	return &out, nil
}

// Health is the decoded /healthz body — the shard-level state a fleet
// router reads on every probe.
type Health struct {
	OK             bool   `json:"ok"`
	Draining       bool   `json:"draining"`
	ShardID        string `json:"shard_id"`
	QueueDepth     int    `json:"queue_depth"`
	QueueLimit     int    `json:"queue_limit"`
	InflightRuns   int64  `json:"inflight_runs"`
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheEntries   int    `json:"cache_entries"`
	CacheEvictions uint64 `json:"cache_evictions"`
	PoolReused     uint64 `json:"pool_reused"`
	PoolBuilt      uint64 `json:"pool_built"`
}

// Health fetches and decodes /healthz. It succeeds on a 503 too — a
// draining shard still answers, and the body's Draining flag is exactly
// what a router's lame-duck handling needs.
func (c *Client) Health() (*Health, error) {
	resp, err := c.http().Get(c.Base + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return nil, responseError(resp, body)
	}
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		return nil, fmt.Errorf("bad /healthz body: %v", err)
	}
	return &h, nil
}

// Metrics scrapes /metrics and returns the plain (unlabelled) samples
// as a name→value map, e.g. m["rocksim_serve_cache_hits"].
func (c *Client) Metrics() (map[string]float64, error) {
	resp, err := c.http().Get(c.Base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, responseError(resp, body)
	}
	m := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		m[fields[0]] = v
	}
	return m, nil
}

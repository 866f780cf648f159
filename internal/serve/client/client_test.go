package client

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rocksim/internal/experiments"
	"rocksim/internal/serve"
)

func testServer(t *testing.T) (*Client, *experiments.Runner) {
	t.Helper()
	r := experiments.NewRunner()
	r.SetJobs(2)
	ts := httptest.NewServer(serve.New(serve.Config{}, r))
	t.Cleanup(ts.Close)
	return &Client{Base: ts.URL}, r
}

func TestClientEndToEnd(t *testing.T) {
	c, r := testServer(t)

	report, err := c.Run(serve.RunRequest{Kind: "inorder", Workload: "chase", Scale: "test"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !bytes.Contains(report, []byte(`"kind": "inorder"`)) {
		t.Errorf("run report missing kind: %.200s", report)
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	hits, misses := r.CacheStats()
	if got := m["rocksim_serve_cache_hits"]; got != float64(hits) {
		t.Errorf("scraped cache_hits %v, runner says %d", got, hits)
	}
	if got := m["rocksim_serve_cache_misses"]; got != float64(misses) {
		t.Errorf("scraped cache_misses %v, runner says %d", got, misses)
	}
	entries, evictions := r.CacheSize()
	if got := m["rocksim_serve_cache_entries"]; got != float64(entries) {
		t.Errorf("scraped cache_entries %v, runner says %d", got, entries)
	}
	if got := m["rocksim_serve_cache_evictions"]; got != float64(evictions) {
		t.Errorf("scraped cache_evictions %v, runner says %d", got, evictions)
	}
	h, err := c.Health()
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	if !h.OK || h.Draining {
		t.Errorf("healthz ok=%v draining=%v, want a serving daemon", h.OK, h.Draining)
	}
	if h.CacheEntries != entries || h.CacheEvictions != evictions {
		t.Errorf("healthz cache_entries/evictions %d/%d, runner says %d/%d", h.CacheEntries, h.CacheEvictions, entries, evictions)
	}
	if m["rocksim_serve_run_requests"] < 1 {
		t.Errorf("scraped run_requests %v, want >= 1", m["rocksim_serve_run_requests"])
	}
}

func TestClientErrors(t *testing.T) {
	c, _ := testServer(t)

	_, err := c.Run(serve.RunRequest{Kind: "vliw", Workload: "chase"})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("bad kind: error %v, want StatusError 400", err)
	}
	if !strings.Contains(se.Message, "vliw") {
		t.Errorf("error message %q does not name the bad kind", se.Message)
	}
}

// TestClientBusy decodes 429 + Retry-After into a typed BusyError.
func TestClientBusy(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"queue full"}`))
	}))
	defer ts.Close()
	c := &Client{Base: ts.URL}
	_, err := c.Run(serve.RunRequest{Kind: "sst", Workload: "chase"})
	var be *BusyError
	if !errors.As(err, &be) {
		t.Fatalf("error %v, want BusyError", err)
	}
	if be.RetryAfter != 7*time.Second {
		t.Errorf("RetryAfter %v, want 7s", be.RetryAfter)
	}
}

// TestRetryAfterParsing covers the RFC 9110 header forms the old parser
// dropped: "0" (retry immediately — previously rounded up to the
// default), HTTP-dates (previously unparsable, ditto), and past dates
// (mean now). Absent or garbage headers still fall back to the default.
func TestRetryAfterParsing(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	cases := []struct {
		header string
		want   time.Duration
	}{
		{"", serve.DefaultRetryAfter},
		{"0", 0},
		{"1", time.Second},
		{"30", 30 * time.Second},
		{"-5", serve.DefaultRetryAfter},
		{"soon", serve.DefaultRetryAfter},
		{now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{now.Format(http.TimeFormat), 0},
		{now.Add(-time.Hour).Format(http.TimeFormat), 0},
		{"  2  ", 2 * time.Second},
	}
	for _, c := range cases {
		if got := retryAfter(c.header, clock); got != c.want {
			t.Errorf("retryAfter(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}

// TestBusyErrorHonorsRetryAfterZero drives the header path end to end:
// a 429 carrying "Retry-After: 0" must surface as a zero backoff hint.
func TestBusyErrorHonorsRetryAfterZero(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	t.Cleanup(ts.Close)
	c := &Client{Base: ts.URL}
	_, err := c.Run(serve.RunRequest{Kind: "inorder", Workload: "chase", Scale: "test"})
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("want BusyError, got %v", err)
	}
	if busy.RetryAfter != 0 {
		t.Errorf("Retry-After: 0 surfaced as %v, want 0", busy.RetryAfter)
	}
}

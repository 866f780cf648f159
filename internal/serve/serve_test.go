package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rocksim/internal/bpred"
	"rocksim/internal/cpu"
	"rocksim/internal/experiments"
	"rocksim/internal/obs"
	"rocksim/internal/sim"
	"rocksim/internal/workload"
)

// postJSON sends body to path and returns the response.
func postJSON(t *testing.T, base, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read body: %v", path, err)
	}
	return resp, data
}

func get(t *testing.T, base, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp, data
}

// TestRunByteIdentity proves the core service contract: a /v1/run
// response is byte-for-byte what `sstsim -json` prints for the same
// cell, and a repeat request (a cache hit) returns the same bytes.
func TestRunByteIdentity(t *testing.T) {
	r := experiments.NewRunner()
	r.SetJobs(2)
	ts := httptest.NewServer(New(Config{}, r))
	defer ts.Close()

	req := `{"kind":"sst","workload":"chase","scale":"test"}`
	resp, got := postJSON(t, ts.URL, "/v1/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d: %s", resp.StatusCode, got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("run: Content-Type %q", ct)
	}

	// Reference: exactly what cmd/sstsim does under -json.
	spec, err := workload.Build("chase", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.DefaultOptions()
	opts.Metrics = obs.NewRegistry()
	out, err := sim.Run(sim.KindSST, spec.Program, opts)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := sim.NewReport(out).WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("run response differs from sstsim -json bytes:\ngot  %d bytes\nwant %d bytes\ngot:  %.200s\nwant: %.200s",
			len(got), want.Len(), got, want.Bytes())
	}

	_, again := postJSON(t, ts.URL, "/v1/run", req)
	if !bytes.Equal(again, got) {
		t.Fatal("second (cached) run response differs from the first")
	}
	hits, misses := r.CacheStats()
	if misses != 1 || hits != 1 {
		t.Errorf("cache stats hits=%d misses=%d, want 1/1", hits, misses)
	}

	// Every core kind: the body a cache miss renders and the body a
	// repeat hit serves are the same bytes.
	for _, k := range sim.Kinds {
		req := fmt.Sprintf(`{"kind":%q,"workload":"gcc","scale":"test"}`, k)
		resp, miss := postJSON(t, ts.URL, "/v1/run", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", k, resp.StatusCode, miss)
		}
		var rep sim.Report
		if err := json.Unmarshal(miss, &rep); err != nil || rep.Kind != k.String() {
			t.Errorf("%s: miss body is not this kind's report (kind %q, err %v)", k, rep.Kind, err)
		}
		if _, hit := postJSON(t, ts.URL, "/v1/run", req); !bytes.Equal(hit, miss) {
			t.Errorf("%s: cache-hit body differs from the miss body", k)
		}
	}
	hits, misses = r.CacheStats()
	if want := uint64(1 + len(sim.Kinds)); misses != want || hits != want {
		t.Errorf("cache stats hits=%d misses=%d, want %d/%d", hits, misses, want, want)
	}
}

// TestRunConcurrentColdCell: concurrent first requests for one cold cell
// (one computes, the rest join or hit) all return the same bytes. Under
// -race it also checks that the body is rendered and read safely.
func TestRunConcurrentColdCell(t *testing.T) {
	r := experiments.NewRunner()
	ts := httptest.NewServer(New(Config{}, r))
	defer ts.Close()

	const n = 6
	bodies := make([][]byte, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v1/run", "application/json",
				strings.NewReader(`{"kind":"sst","workload":"gcc","scale":"test"}`))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d, err %v: %s", i, resp.StatusCode, err, b)
			}
			bodies[i] = b
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d: body differs from request 0's", i)
		}
	}
	if hits, misses := r.CacheStats(); misses != 1 || hits != n-1 {
		t.Errorf("cache stats hits=%d misses=%d, want %d/1", hits, misses, n-1)
	}
}

// TestRunTimeoutPropagation: a request-level wall-clock timeout reaches
// the simulation watchdog and surfaces as 504.
func TestRunTimeoutPropagation(t *testing.T) {
	r := experiments.NewRunner()
	ts := httptest.NewServer(New(Config{}, r))
	defer ts.Close()

	req := `{"kind":"sst","workload":"chase","scale":"test","options":{"timeout":"1ns"}}`
	resp, body := postJSON(t, ts.URL, "/v1/run", req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body: %s", resp.StatusCode, body)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e["error"], "deadline") {
		t.Fatalf("error body %s does not name the deadline", body)
	}
}

// TestRunDeadlineNotCached: a /v1/run that fails on its wall-clock
// timeout leaves nothing in the run cache, so repeating it simulates
// again instead of replaying the 504.
func TestRunDeadlineNotCached(t *testing.T) {
	r := experiments.NewRunner()
	ts := httptest.NewServer(New(Config{}, r))
	defer ts.Close()

	req := `{"kind":"sst","workload":"chase","scale":"test","options":{"timeout":"1ns"}}`
	for i := range 2 {
		if resp, body := postJSON(t, ts.URL, "/v1/run", req); resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("request %d: status %d, want 504; body: %s", i, resp.StatusCode, body)
		}
	}
	if hits, misses := r.CacheStats(); hits != 0 || misses != 2 {
		t.Errorf("cache stats hits=%d misses=%d, want 0/2", hits, misses)
	}
	if entries, _ := r.CacheSize(); entries != 0 {
		t.Errorf("cache holds %d entries, want 0", entries)
	}
}

// TestRunValidation covers the 4xx surface.
func TestRunValidation(t *testing.T) {
	r := experiments.NewRunner()
	ts := httptest.NewServer(New(Config{}, r))
	defer ts.Close()

	for _, tc := range []struct {
		name, body string
	}{
		{"bad kind", `{"kind":"vliw","workload":"chase"}`},
		{"bad workload", `{"kind":"sst","workload":"nope"}`},
		{"bad scale", `{"kind":"sst","workload":"chase","scale":"huge"}`},
		{"unknown field", `{"kind":"sst","workload":"chase","slacle":"test"}`},
		{"bad faults", `{"kind":"sst","workload":"chase","options":{"faults":"wat@@"}}`},
		{"bad timeout", `{"kind":"sst","workload":"chase","options":{"timeout":"soon"}}`},
	} {
		resp, body := postJSON(t, ts.URL, "/v1/run", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, resp.StatusCode, body)
		}
	}

	resp, _ := get(t, ts.URL, "/v1/run")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run: status %d, want 405", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL, "/v1/grid", `{"exps":["F99"]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown experiment: status %d, want 400", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL, "/v1/result/g999999")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown result: status %d, want 404", resp.StatusCode)
	}
}

// gridRef regenerates ids on a fresh serial Runner, rendering exactly
// what `sstbench -j 1` prints minus its wall-clock lines.
func gridRef(t *testing.T, ids []string, scale workload.Scale) []byte {
	t.Helper()
	r := experiments.NewRunner()
	r.SetJobs(1)
	var want bytes.Buffer
	for _, id := range ids {
		res, err := r.Run(id, scale)
		if err != nil {
			t.Fatalf("reference %s: %v", id, err)
		}
		res.Fprint(&want)
		fmt.Fprintln(&want)
	}
	return want.Bytes()
}

// TestGridByteIdentity: a /v1/grid response matches the serial sstbench
// reference byte for byte, concurrency and caching notwithstanding.
func TestGridByteIdentity(t *testing.T) {
	ids := []string{"T1", "F3"}
	r := experiments.NewRunner()
	r.SetJobs(4)
	ts := httptest.NewServer(New(Config{}, r))
	defer ts.Close()

	resp, got := postJSON(t, ts.URL, "/v1/grid", `{"exps":["T1","F3"],"scale":"test"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grid: status %d: %s", resp.StatusCode, got)
	}
	want := gridRef(t, ids, workload.ScaleTest)
	if !bytes.Equal(got, want) {
		t.Fatalf("grid response differs from serial sstbench reference:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestGridAsync: the async path accepts immediately, reports running,
// and serves the same bytes as the sync path once done.
func TestGridAsync(t *testing.T) {
	r := experiments.NewRunner()
	ts := httptest.NewServer(New(Config{}, r))
	defer ts.Close()

	resp, body := postJSON(t, ts.URL, "/v1/grid", `{"exps":["T1"],"scale":"test","async":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async grid: status %d: %s", resp.StatusCode, body)
	}
	var acc AsyncAccepted
	if err := json.Unmarshal(body, &acc); err != nil || acc.ID == "" {
		t.Fatalf("async grid: bad 202 body %s", body)
	}

	deadline := time.Now().Add(30 * time.Second)
	var got []byte
	for {
		resp, b := get(t, ts.URL, acc.Result)
		if resp.StatusCode == http.StatusOK {
			got = b
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("poll: status %d: %s", resp.StatusCode, b)
		}
		if time.Now().After(deadline) {
			t.Fatal("async grid did not finish in 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	want := gridRef(t, []string{"T1"}, workload.ScaleTest)
	if !bytes.Equal(got, want) {
		t.Fatalf("async grid result differs from reference:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// fakeRunner blocks every computation until release is closed, so the
// backpressure and drain tests control exactly how many requests are in
// flight. started receives one signal per computation begun.
type fakeRunner struct {
	started chan struct{}
	release chan struct{}
	cellErr error
}

func (f *fakeRunner) RunCellReport(ctx context.Context, c sim.Cell, opts sim.Options) (sim.Outcome, func() ([]byte, error), error) {
	f.started <- struct{}{}
	<-f.release
	return sim.Outcome{}, nil, f.cellErr
}

func (f *fakeRunner) Run(id string, scale workload.Scale) (*experiments.Result, error) {
	f.started <- struct{}{}
	<-f.release
	return &experiments.Result{ID: id, Title: "fake"}, nil
}

func (f *fakeRunner) BaseOptions() sim.Options     { return sim.DefaultOptions() }
func (f *fakeRunner) CacheStats() (uint64, uint64) { return 0, 0 }
func (f *fakeRunner) CacheSize() (int, uint64)     { return 0, 0 }
func (f *fakeRunner) PoolStats() (uint64, uint64)  { return 0, 0 }

// TestBackpressure fills the admission queue and proves the next
// request is refused with 429 and a Retry-After hint rather than
// queueing without bound — and that the admitted requests complete.
func TestBackpressure(t *testing.T) {
	fake := &fakeRunner{started: make(chan struct{}, 8), release: make(chan struct{})}
	s := newServer(Config{QueueDepth: 2, RetryAfter: 3 * time.Second}, fake)
	ts := httptest.NewServer(s)
	defer ts.Close()

	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postJSON(t, ts.URL, "/v1/grid", `{"exps":["T1"]}`)
			codes[i] = resp.StatusCode
		}(i)
	}
	// Both admitted requests are inside the fake before we overflow.
	<-fake.started
	<-fake.started

	resp, body := postJSON(t, ts.URL, "/v1/grid", `{"exps":["T1"]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After %q, want \"3\"", ra)
	}

	close(fake.release)
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("admitted request %d: status %d, want 200", i, c)
		}
	}
}

// TestDrain: StartDrain refuses new work with 503 while the in-flight
// async grid runs to completion, Wait blocks until it has, and the
// result remains retrievable afterwards.
func TestDrain(t *testing.T) {
	fake := &fakeRunner{started: make(chan struct{}, 8), release: make(chan struct{})}
	s := newServer(Config{}, fake)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, body := postJSON(t, ts.URL, "/v1/grid", `{"exps":["T1"],"async":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async grid: status %d: %s", resp.StatusCode, body)
	}
	var acc AsyncAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	<-fake.started

	s.StartDrain()
	resp, _ = postJSON(t, ts.URL, "/v1/grid", `{"exps":["T1"]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("grid while draining: status %d, want 503", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL, "/v1/run", `{"kind":"sst","workload":"chase"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("run while draining: status %d, want 503", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL, "/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: status %d, want 503", resp.StatusCode)
	}
	// The queued job is still running, not dropped.
	resp, _ = get(t, ts.URL, acc.Result)
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("poll while draining: status %d, want 202", resp.StatusCode)
	}

	close(fake.release)
	done := make(chan struct{})
	go func() { s.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Wait did not return after the in-flight job finished")
	}
	resp, got := get(t, ts.URL, acc.Result)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result after drain: status %d", resp.StatusCode)
	}
	if !strings.Contains(string(got), "---- T1: fake ----") {
		t.Errorf("drained result body %q missing the fake grid", got)
	}
}

// TestRunDeadlineMapsTo504 uses the runner seam to pin the error
// mapping without a wall-clock dependency.
func TestRunDeadlineMapsTo504(t *testing.T) {
	fake := &fakeRunner{
		started: make(chan struct{}, 1),
		release: make(chan struct{}),
		cellErr: fmt.Errorf("cell: %w", cpu.ErrDeadline),
	}
	close(fake.release)
	ts := httptest.NewServer(newServer(Config{}, fake))
	defer ts.Close()
	resp, _ := postJSON(t, ts.URL, "/v1/run", `{"kind":"sst","workload":"chase"}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
}

// TestMetricsAndHealth: /metrics exposes service counters and cache
// stats in Prometheus text form; /healthz is green while serving.
func TestMetricsAndHealth(t *testing.T) {
	r := experiments.NewRunner()
	ts := httptest.NewServer(New(Config{}, r))
	defer ts.Close()

	resp, body := get(t, ts.URL, "/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok":true`) {
		t.Fatalf("healthz: status %d body %s", resp.StatusCode, body)
	}

	postJSON(t, ts.URL, "/v1/run", `{"kind":"inorder","workload":"chase","scale":"test"}`)
	_, body = get(t, ts.URL, "/healthz")
	for _, want := range []string{`"cache_entries":1`, `"cache_evictions":0`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("healthz missing %s: %s", want, body)
		}
	}
	resp, body = get(t, ts.URL, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	for _, want := range []string{
		"rocksim_serve_run_requests 1",
		"rocksim_serve_cells_served 1",
		"rocksim_serve_cache_misses 1",
		"rocksim_serve_cache_entries 1",
		"rocksim_serve_cache_evictions 0",
		// Transient-leakage counters fold in per served cell (zero for a
		// secret-free workload, but always present once a cell is served).
		"rocksim_leak_tainted_accesses ",
		"rocksim_leak_squashed_spec_fills ",
		"rocksim_leak_oracle_checks ",
		// Predictor counters fold in per served cell the same way; a
		// branchy workload always looks up directions.
		"rocksim_bpred_dir_lookups ",
		"rocksim_bpred_dir_mispredicts ",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestRunRejectsOutOfRangeSizes: a dq/ckpt/ssb/memlat outside
// [0, MaxSize] — on /v1/run or in /v1/cell wire options — is a 400, not
// an out-of-memory crash, and the daemon keeps serving afterwards.
func TestRunRejectsOutOfRangeSizes(t *testing.T) {
	r := experiments.NewRunner()
	ts := httptest.NewServer(New(Config{}, r))
	defer ts.Close()

	for _, tc := range []struct {
		field string
		set   func(o *sim.Options, v int)
	}{
		{"dq", func(o *sim.Options, v int) { o.SST.DQSize = v }},
		{"ckpt", func(o *sim.Options, v int) { o.SST.Checkpoints = v }},
		{"ssb", func(o *sim.Options, v int) { o.SST.SSBSize = v }},
		{"memlat", func(o *sim.Options, v int) { o.Hier.DRAM.Latency = v }},
	} {
		for _, v := range []int{1 << 40, MaxSize + 1, -5} {
			body := fmt.Sprintf(`{"kind":"sst","workload":"chase","scale":"test","options":{%q:%d}}`, tc.field, v)
			resp, got := postJSON(t, ts.URL, "/v1/run", body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("run %s=%d: status %d, want 400: %s", tc.field, v, resp.StatusCode, got)
			}

			opts := sim.DefaultOptions()
			tc.set(&opts, v)
			resp, got = postJSON(t, ts.URL, "/v1/cell", cellBody(t, opts))
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("cell %s=%d: status %d, want 400: %s", tc.field, v, resp.StatusCode, got)
			}
		}
	}
	resp, body := postJSON(t, ts.URL, "/v1/run", `{"kind":"sst","workload":"chase","scale":"test","options":{"dq":0}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon stopped serving after refusals: status %d: %s", resp.StatusCode, body)
	}
}

// TestMetricsCarryEveryPredictorCounter: /metrics folds in every counter
// bpred.Stats publishes — the expected names come from PublishObs
// itself, so a counter added there cannot silently miss the service.
func TestMetricsCarryEveryPredictorCounter(t *testing.T) {
	r := experiments.NewRunner()
	ts := httptest.NewServer(New(Config{}, r))
	defer ts.Close()
	if resp, body := postJSON(t, ts.URL, "/v1/run", `{"kind":"sst","workload":"gcc","scale":"test"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d: %s", resp.StatusCode, body)
	}
	_, metrics := get(t, ts.URL, "/metrics")

	scratch := obs.NewRegistry()
	bpred.Stats{}.PublishObs(scratch)
	names := scratch.Snapshot().Counters
	if len(names) == 0 {
		t.Fatal("bpred.Stats published no counters")
	}
	var buf bytes.Buffer
	if err := scratch.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := strings.Fields(line)[0]
		if !strings.Contains(string(metrics), "\n"+name+" ") {
			t.Errorf("/metrics lacks predictor counter %s", name)
		}
	}
}

// TestMetricsCarryEveryRunCounter: /metrics merges each served run's
// whole registry, so after one served cell every counter in that run's
// own metrics block appears on /metrics under the same name with the
// same value — no hand-picked subset can fall behind the models.
func TestMetricsCarryEveryRunCounter(t *testing.T) {
	r := experiments.NewRunner()
	ts := httptest.NewServer(New(Config{}, r))
	defer ts.Close()
	resp, body := postJSON(t, ts.URL, "/v1/run", `{"kind":"sst","workload":"chase","scale":"test"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d: %s", resp.StatusCode, body)
	}
	var rep sim.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Metrics == nil || len(rep.Metrics.Counters) == 0 {
		t.Fatal("report carries no run metrics")
	}
	_, metrics := get(t, ts.URL, "/metrics")

	scratch := obs.NewRegistry()
	for name, v := range rep.Metrics.Counters {
		scratch.Counter(name).Set(v)
	}
	var buf bytes.Buffer
	if err := scratch.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(string(metrics), "\n"+line+"\n") {
			t.Errorf("/metrics lacks run counter sample %q", line)
		}
	}
}

// TestMetricsFoldEveryServe: every serve of a cell folds its run
// registry into /metrics, cache hits included, so after n serves each
// run counter reads n times the report's value and cells_served reads n.
func TestMetricsFoldEveryServe(t *testing.T) {
	const n = 3
	r := experiments.NewRunner()
	ts := httptest.NewServer(New(Config{}, r))
	defer ts.Close()
	var body []byte
	for i := 0; i < n; i++ {
		var resp *http.Response
		resp, body = postJSON(t, ts.URL, "/v1/run", `{"kind":"sst","workload":"gcc","scale":"test"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("serve %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	var rep sim.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Metrics == nil || len(rep.Metrics.Counters) == 0 {
		t.Fatal("report carries no run metrics")
	}
	_, metrics := get(t, ts.URL, "/metrics")

	scratch := obs.NewRegistry()
	for name, v := range rep.Metrics.Counters {
		scratch.Counter(name).Set(n * v)
	}
	scratch.Counter("serve/cells_served").Set(n)
	var buf bytes.Buffer
	if err := scratch.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(string(metrics), "\n"+line+"\n") {
			t.Errorf("/metrics lacks %d-serve sample %q", n, line)
		}
	}
}

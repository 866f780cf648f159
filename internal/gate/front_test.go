package gate

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rocksim/internal/experiments"
	"rocksim/internal/serve"
	"rocksim/internal/serve/client"
	"rocksim/internal/sim"
)

// frontEnd is one binary's HTTP surface: rocksimd's or rockgate's.
type frontEnd interface {
	http.Handler
	StartDrain()
}

// served is a front end and the URL it is served at.
type served struct {
	fe  frontEnd
	url string
}

// frontEnds builds a rocksimd and a rockgate (over one real shard) with
// the same admission settings, each served over httptest.
func frontEnds(t *testing.T, queue int, retry time.Duration) map[string]served {
	t.Helper()
	r := experiments.NewRunner()
	r.SetJobs(2)
	daemon := serve.New(serve.Config{QueueDepth: queue, RetryAfter: retry}, r)
	shard := startShard(t, "s0", sim.DefaultOptions())
	gw := newGateway(t, Config{Targets: []string{shard.URL}, PerShard: 2, QueueDepth: queue, RetryAfter: retry})
	out := map[string]served{}
	for name, fe := range map[string]frontEnd{"rocksimd": daemon, "rockgate": gw} {
		ts := httptest.NewServer(fe)
		t.Cleanup(ts.Close)
		out[name] = served{fe, ts.URL}
	}
	return out
}

// do sends one request and returns the response with its body read.
func do(t *testing.T, method, url, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

const validRun = `{"kind":"inorder","workload":"chase","scale":"test"}`

// TestFrontEndContract runs the same cases against a rocksimd and a
// rockgate: one front end, two backends, one behavior.
func TestFrontEndContract(t *testing.T) {
	const retry = 3 * time.Second
	cases := []struct {
		name string
		run  func(t *testing.T, fe frontEnd, url string)
	}{
		{"draining refuses run, grid and healthz", func(t *testing.T, fe frontEnd, url string) {
			fe.StartDrain()
			for _, c := range []struct{ method, path, body string }{
				{"POST", "/v1/run", validRun},
				{"POST", "/v1/grid", `{"exps":["T2"],"scale":"test"}`},
				{"GET", "/healthz", ""},
			} {
				if resp, body := do(t, c.method, url+c.path, c.body, nil); resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("%s %s while draining: status %d, want 503: %s", c.method, c.path, resp.StatusCode, body)
				}
			}
		}},
		{"full queue answers 429 with Retry-After", func(t *testing.T, fe frontEnd, url string) {
			// Hold the only admission slot with a request whose body never
			// finishes: the handler admits it, then blocks decoding.
			entered := make(chan struct{}, 1)
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Header.Get("X-Hold") != "" {
					entered <- struct{}{}
				}
				fe.ServeHTTP(w, r)
			}))
			defer ts.Close()
			pr, pw := io.Pipe()
			req, err := http.NewRequest("POST", ts.URL+"/v1/run", pr)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("X-Hold", "1")
			held := make(chan int, 1)
			go func() {
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					held <- 0
					return
				}
				resp.Body.Close()
				held <- resp.StatusCode
			}()
			defer pw.Close()
			<-entered
			deadline := time.Now().Add(10 * time.Second)
			for {
				resp, body := do(t, "POST", ts.URL+"/v1/run", `{"kind":"nope","workload":"chase"}`, nil)
				if resp.StatusCode == http.StatusTooManyRequests {
					if ra := resp.Header.Get("Retry-After"); ra != "3" {
						t.Errorf("Retry-After %q, want \"3\"", ra)
					}
					return
				}
				select {
				case code := <-held:
					t.Fatalf("the holding request finished with status %d before it was admitted", code)
				default:
				}
				if resp.StatusCode != http.StatusBadRequest || time.Now().After(deadline) {
					t.Fatalf("overflow request: status %d, want 429 once the slot is held: %s", resp.StatusCode, body)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}},
		{"async grid then result", func(t *testing.T, fe frontEnd, url string) {
			resp, body := do(t, "POST", url+"/v1/grid", `{"exps":["T2"],"scale":"test","async":true}`, nil)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("async grid: status %d: %s", resp.StatusCode, body)
			}
			var acc serve.AsyncAccepted
			if err := json.Unmarshal(body, &acc); err != nil {
				t.Fatal(err)
			}
			want := gridRef(t, []string{"T2"}, sim.DefaultOptions())
			deadline := time.Now().Add(time.Minute)
			for {
				resp, got := do(t, "GET", url+acc.Result, "", nil)
				if resp.StatusCode == http.StatusOK {
					if !bytes.Equal(got, want) {
						t.Fatalf("async result differs from single-node bytes:\ngot:  %.300q\nwant: %.300q", got, want)
					}
					return
				}
				if resp.StatusCode != http.StatusAccepted || time.Now().After(deadline) {
					t.Fatalf("result poll: status %d: %s", resp.StatusCode, got)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}},
		{"unknown result id is 404", func(t *testing.T, fe frontEnd, url string) {
			if resp, body := do(t, "GET", url+"/v1/result/g999999", "", nil); resp.StatusCode != http.StatusNotFound {
				t.Errorf("status %d, want 404: %s", resp.StatusCode, body)
			}
		}},
		{"bad scale or experiment is 400", func(t *testing.T, fe frontEnd, url string) {
			for _, c := range []struct{ path, body, msg string }{
				{"/v1/grid", `{"exps":["T2"],"scale":"huge"}`, `{"error":"bad scale \"huge\" (want test or full)"}`},
				{"/v1/grid", `{"exps":["F99"]}`, `{"error":"unknown experiment \"F99\""}`},
				{"/v1/run", `{"kind":"sst","workload":"chase","scale":"huge"}`, `{"error":"bad scale \"huge\" (want test or full)"}`},
			} {
				resp, body := do(t, "POST", url+c.path, c.body, nil)
				if resp.StatusCode != http.StatusBadRequest || strings.TrimSpace(string(body)) != c.msg {
					t.Errorf("POST %s %s: status %d body %s, want 400 %s", c.path, c.body, resp.StatusCode, body, c.msg)
				}
			}
		}},
		{"X-Request-ID is echoed", func(t *testing.T, fe frontEnd, url string) {
			resp, _ := do(t, "GET", url+"/healthz", "", map[string]string{"X-Request-ID": "contract-7"})
			if got := resp.Header.Get("X-Request-ID"); got != "contract-7" {
				t.Errorf("X-Request-ID %q, want the client's contract-7", got)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for name, f := range frontEnds(t, 1, retry) {
				t.Run(name, func(t *testing.T) { c.run(t, f.fe, f.url) })
			}
		})
	}
}

// TestRunFailsOverFromDrainingShard: a shard that starts draining after
// the gateway's startup check answers /v1/run with 503; the gateway
// ejects it and serves every request from a ring successor.
func TestRunFailsOverFromDrainingShard(t *testing.T) {
	var shards []*serve.Server
	var targets []string
	for _, id := range []string{"s0", "s1"} {
		r := experiments.NewRunner()
		r.SetJobs(2)
		srv := serve.New(serve.Config{ShardID: id}, r)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		shards, targets = append(shards, srv), append(targets, ts.URL)
	}
	g := newGateway(t, Config{Targets: targets, PerShard: 2})
	gts := httptest.NewServer(g)
	defer gts.Close()
	shards[0].StartDrain()

	// Placement as the gateway saw it before the drain.
	ring, err := client.NewFleet(targets, client.FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ring.Close()
	owned := 0
	for _, kind := range []string{"inorder", "ooo-small", "sst"} {
		for _, wl := range []string{"chase", "oltp", "stream", "mcf"} {
			req := serve.RunRequest{Kind: kind, Workload: wl, Scale: "test"}
			if ring.Owners(client.RunKey(req), 1)[0] == targets[0] {
				owned++
			}
			body, _ := json.Marshal(req)
			resp, got := do(t, "POST", gts.URL+"/v1/run", string(body), nil)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s/%s: status %d, want 200 from a successor: %s", kind, wl, resp.StatusCode, got)
				continue
			}
			if shard := resp.Header.Get("X-Shard"); shard != targets[1] {
				t.Errorf("%s/%s served by %s, want the live shard %s", kind, wl, shard, targets[1])
			}
		}
	}
	if owned == 0 {
		t.Fatal("the draining shard owned none of the requests; the test exercised nothing")
	}
}

// TestRunProxyCancelsShardRequest: when the gateway's client gives up on
// a /v1/run, the proxied request to the shard is cancelled too, so the
// shard stops simulating for nobody.
func TestRunProxyCancelsShardRequest(t *testing.T) {
	entered := make(chan struct{}, 1)
	cancelled := make(chan struct{}, 1)
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"ok":true}`)
	})
	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		// Read the body as a real shard decodes it: only then does the
		// server watch the connection and end the request context.
		io.ReadAll(r.Body)
		entered <- struct{}{}
		select {
		case <-r.Context().Done():
			cancelled <- struct{}{}
		case <-release:
		}
	})
	shard := httptest.NewServer(mux)
	t.Cleanup(shard.Close)
	g := newGateway(t, Config{Targets: []string{shard.URL}, PerShard: 2})
	gts := httptest.NewServer(g)
	t.Cleanup(gts.Close)
	// Cleanups run last-in first-out: unblock a shard that never saw the
	// cancel before the servers wait for their handlers.
	t.Cleanup(func() { close(release) })

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", gts.URL+"/v1/run", strings.NewReader(validRun))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the shard never received the proxied /v1/run")
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("the cancelled client request succeeded")
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("the shard's request context was never cancelled after the client gave up")
	}
}

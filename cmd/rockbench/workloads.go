package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rocksim/internal/experiments"
	"rocksim/internal/gate"
	"rocksim/internal/obs"
	"rocksim/internal/serve"
	"rocksim/internal/serve/client"
	"rocksim/internal/sim"
	"rocksim/internal/workload"
)

// Load shape. One closed-loop client on one connection: it sends its
// next request only after the previous reply has been fully read, the
// way a CI shard or a developer calls the daemon. One request in flight
// keeps a second CPU free for the garbage collector and the host, so a
// request's latency is its own service time and does not depend on
// which other request the seeded order happens to run beside it. The
// admission queue is deeper than the client count, so the service never
// refuses a request and a 429 is a failure.
const (
	numClients = 1
	queueDepth = 8
	// daemonJobs is rocksimd's worker pool; each gateway shard gets
	// shardJobs workers and the gateway sends at most gatePerShard
	// requests to a shard at once.
	daemonJobs   = 1
	shardJobs    = 1
	gatePerShard = 1
	numShards    = 2
	// gridJobs is the worker pool of the grid workload (sstbench -j 1).
	gridJobs = 1
	// traceRing keeps every traced request of the longest traced pass
	// until the benchmark fetches it.
	traceRing = 1 << 15
	// uniqueBase is the max_cycles of the first distinct run-* request.
	// Far above any test-scale cell's cycle count, it changes the cache
	// key and nothing the simulation reports.
	uniqueBase = 1_000_000_000
	// seqStream is the second PCG word of the sequence shuffle.
	seqStream = 0x5eed_b0a7
	// requestTimeout bounds every request the benchmark makes, so a hung
	// daemon fails requests instead of stalling the run.
	requestTimeout = 60 * time.Second
)

// via says which layers a workload's requests cross.
type via int

const (
	viaDaemon via = iota // client → rocksimd
	viaGate              // client → rockgate → owning shard
	viaRunner            // in-process experiments.Runner (sstbench)
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	why  string
	via  via
	// cells are the built-in workloads a service workload crosses with
	// every core kind; each (kind, workload) cell appears reps times in
	// one pass.
	cells []string
	reps  int
	// unique makes every request of the run a distinct cache entry
	// (max_cycles = uniqueBase + i), so each one simulates.
	unique bool
	// passS fixes the number of timed passes (timedPasses); it is near a
	// pass's time on a 2-vCPU Xeon VM when its shared host is slow.
	passS float64
}

var workloads = []workloadDef{
	{
		name:  "run-stall",
		why:   "rocksimd /v1/run cache misses on memory-bound cells: fast-forward carries the stalls and scout sets the tail",
		via:   viaDaemon,
		cells: []string{"chase", "mcf", "jbb", "oltp"}, reps: 4, unique: true, passS: 5.5,
	},
	{
		name:  "run-compute",
		why:   "rocksimd /v1/run cache misses on compute-bound cells: the cost of each stepped cycle dominates",
		via:   viaDaemon,
		cells: []string{"dense", "gcc", "appsrv"}, reps: 10, unique: true, passS: 5.6,
	},
	{
		name:  "gate-hit",
		why:   "rockgate over 2 shards, every request a cache hit: only HTTP, decode, workload build, cache key and render remain",
		via:   viaGate,
		cells: []string{"oltp", "chase", "loopnest"}, reps: 80, passS: 4.9,
	},
	{
		name:  "grid",
		why:   "one test-scale regeneration of every experiment in-process (sstbench -j 1): cache, pool, SMT/CMP runs and the leak oracle",
		via:   viaRunner,
		passS: 15,
	},
}

// timedPasses is how many timed passes a run of about seconds does: the
// count is fixed by seconds, not by how fast the first pass ran, so a
// run on a slow minute of a shared host does the same work as any other.
func (w *workloadDef) timedPasses(seconds float64) int {
	return max(1, int(math.Round(seconds/w.passS)))
}

func workloadByName(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// cell is one (core kind, built-in workload) /v1/run point.
type cell struct{ Kind, Workload string }

func (c cell) key() string { return c.Kind + "/" + c.Workload }

// request builds the /v1/run body; maxCycles > 0 makes it a distinct
// cache entry without changing the report.
func (c cell) request(maxCycles uint64) serve.RunRequest {
	req := serve.RunRequest{Kind: c.Kind, Workload: c.Workload, Scale: "test"}
	if maxCycles > 0 {
		req.Options = &serve.RunOptions{MaxCycles: maxCycles}
	}
	return req
}

// distinctCells lists the workload's cells once each, in a fixed order.
func (w *workloadDef) distinctCells() []cell {
	var out []cell
	for _, name := range w.cells {
		for _, k := range sim.Kinds {
			out = append(out, cell{Kind: k.String(), Workload: name})
		}
	}
	return out
}

// sequence is one pass's request order: every cell reps times, shuffled
// by seed. The same seed gives the same order; another seed gives a
// permutation of the same multiset.
func (w *workloadDef) sequence(seed int64, reps int) []cell {
	base := w.distinctCells()
	seq := make([]cell, 0, reps*len(base))
	for r := 0; r < reps; r++ {
		seq = append(seq, base...)
	}
	rng := rand.New(rand.NewPCG(uint64(seed), seqStream))
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// sample is one op: a request on the service workloads, an experiment
// on grid.
type sample struct {
	client     int
	cell       cell
	exp        string
	maxCycles  uint64
	start, end time.Time
	err        error
}

func (s *sample) latency() time.Duration { return s.end.Sub(s.start) }

// pass is one run of a fixed op sequence.
type pass struct {
	wall    time.Duration
	samples []sample
}

// tally counts every op the benchmark sends and keeps the first few
// failures for the report.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) add(p *pass) {
	for i := range p.samples {
		t.attempted++
		if err := p.samples[i].err; err != nil {
			t.failed++
			if len(t.errs) < 5 {
				t.errs = append(t.errs, err.Error())
			}
		}
	}
}

// closedLoop runs op(client, i) for i in [0,n) on clients goroutines,
// each taking the next index only when its previous op has returned.
func closedLoop(clients, n int, op func(client, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				op(c, i)
			}
		}(c)
	}
	wg.Wait()
}

// tap wraps a daemon's handler. While on, it opts each /v1/run request
// into the daemon's own tracing (X-Trace: 1) under a request id of its
// choosing and logs which cell the request carried and when it entered
// and left the handler, so the benchmark can fetch the span tree and
// pair it with the client request that caused it. Off, it only forwards.
type tap struct {
	next http.Handler
	base string // the daemon's URL
	name string // request-id prefix
	on   atomic.Bool
	ids  atomic.Uint64

	mu  sync.Mutex
	log []tapEntry
}

// tapEntry is one traced daemon request.
type tapEntry struct {
	base, id   string
	cell       cell
	maxCycles  uint64
	start, end time.Time
}

func (t *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.on.Load() || r.Method != http.MethodPost || r.URL.Path != "/v1/run" {
		t.next.ServeHTTP(w, r)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	var req serve.RunRequest
	// An undecodable body leaves req empty; the daemon rejects it and the
	// client request fails on its own.
	_ = json.Unmarshal(body, &req)
	e := tapEntry{base: t.base, id: fmt.Sprintf("%s-%07d", t.name, t.ids.Add(1)), cell: cell{req.Kind, req.Workload}}
	if req.Options != nil {
		e.maxCycles = req.Options.MaxCycles
	}
	r.Header.Set("X-Trace", "1")
	r.Header.Set("X-Request-ID", e.id)
	e.start = time.Now()
	t.next.ServeHTTP(w, r)
	e.end = time.Now()
	t.mu.Lock()
	t.log = append(t.log, e)
	t.mu.Unlock()
}

// stop turns tracing off and returns the log.
func (t *tap) stop() []tapEntry {
	t.on.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.log
	t.log = nil
	return out
}

// env is a running service workload: its daemons, optional gateway and
// its clients.
type env struct {
	w       *workloadDef
	gold    *golden
	daemons []*tap // every rocksimd instance (the shards under gate-hit)
	clients []*client.Client
	closers []func()
	// used counts the distinct max_cycles values handed out so far.
	used uint64
}

// serveLoopback serves h on an ephemeral loopback port and returns its
// URL and a stop function that closes the listener and waits for the
// serving goroutine.
func serveLoopback(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), func() {
		hs.Close()
		<-done
	}, nil
}

// startDaemon runs a rocksimd (serve.New over a Runner with jobs
// workers) behind a tap.
func (e *env) startDaemon(name string, jobs int) error {
	r := experiments.NewRunner()
	r.SetJobs(jobs)
	srv := serve.New(serve.Config{ShardID: name, QueueDepth: queueDepth, TraceRing: traceRing}, r)
	t := &tap{next: srv, name: name}
	url, stop, err := serveLoopback(t)
	if err != nil {
		return err
	}
	t.base = url
	e.daemons = append(e.daemons, t)
	e.closers = append(e.closers, func() {
		srv.StartDrain()
		stop()
		srv.Wait()
	})
	return nil
}

// startEnv brings a service workload up: daemons, gateway, clients, and
// a warm-up that sends every distinct cell once. Under gate-hit the
// warm-up fills the shards' caches, so every timed request is a hit;
// under run-* it builds the pooled instances every pass reuses.
func startEnv(w *workloadDef, gold *golden, t *tally) (*env, error) {
	e := &env{w: w, gold: gold}
	if err := e.start(); err != nil {
		e.close()
		return nil, err
	}
	warm := e.run(w.distinctCells(), nil)
	t.add(warm)
	return e, nil
}

func (e *env) start() error {
	var url string
	switch e.w.via {
	case viaDaemon:
		if err := e.startDaemon("rocksimd", daemonJobs); err != nil {
			return err
		}
		url = e.daemons[0].base
	case viaGate:
		var shards []string
		for i := 0; i < numShards; i++ {
			if err := e.startDaemon(fmt.Sprintf("shard%d", i), shardJobs); err != nil {
				return err
			}
			shards = append(shards, e.daemons[i].base)
		}
		g, err := gate.New(gate.Config{Targets: shards, PerShard: gatePerShard, QueueDepth: queueDepth})
		if err != nil {
			return err
		}
		gurl, stop, err := serveLoopback(g)
		if err != nil {
			g.Close()
			return err
		}
		// Closers run in reverse: the gateway stops before its shards.
		e.closers = append(e.closers, func() {
			g.StartDrain()
			stop()
			g.Wait()
			g.Close()
		})
		url = gurl
	default:
		return fmt.Errorf("%s is not a service workload", e.w.name)
	}
	for i := 0; i < numClients; i++ {
		hc := client.NewHTTPClient(1)
		hc.Timeout = requestTimeout
		e.clients = append(e.clients, &client.Client{Base: url, HTTP: hc})
		e.closers = append(e.closers, hc.CloseIdleConnections)
	}
	return nil
}

// close stops everything start started, newest first.
func (e *env) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	e.closers = nil
}

// run sends seq through the closed loop and checks every reply against
// the golden digests. With parent set, each request gets a client-run
// span under it.
func (e *env) run(seq []cell, parent *obs.Span) *pass {
	mcs := e.nextMaxCycles(len(seq))
	p := &pass{samples: make([]sample, len(seq))}
	t0 := time.Now()
	closedLoop(len(e.clients), len(seq), func(ci, i int) {
		s := &p.samples[i]
		s.client, s.cell, s.maxCycles = ci, seq[i], mcs[i]
		var span *obs.Span
		if parent != nil {
			span = parent.StartChild("client-run")
			span.SetAttr("op", strconv.Itoa(i))
			span.SetAttr("cell", s.cell.key())
		}
		e.send(e.clients[ci], s, span)
	})
	p.wall = time.Since(t0)
	return p
}

// send makes s's request on cl, times it from send to the last byte of
// the reply, ends span (which may be nil) and checks the reply against
// the golden digest.
func (e *env) send(cl *client.Client, s *sample, span *obs.Span) {
	s.start = time.Now()
	res, err := cl.RunDetail(s.cell.request(s.maxCycles))
	s.end = time.Now()
	span.End()
	if err == nil {
		err = e.gold.checkRun(s.cell.key(), res.Body)
	}
	s.err = err
}

// nextMaxCycles returns the max_cycles of the next n requests: the next
// n unused values under a unique workload, so no request of the run
// repeats a cache key, and 0 (the default) otherwise.
func (e *env) nextMaxCycles(n int) []uint64 {
	mcs := make([]uint64, n)
	if e.w.unique {
		for i := range mcs {
			mcs[i] = uniqueBase + e.used
			e.used++
		}
	}
	return mcs
}

// cacheCounters sums the run-cache and instance-pool counters of every
// daemon, read from /metrics.
func (e *env) cacheCounters() (hits, misses, reused, built float64, err error) {
	for _, d := range e.daemons {
		m, err := (&client.Client{Base: d.base}).Metrics()
		if err != nil {
			return 0, 0, 0, 0, fmt.Errorf("scrape %s: %w", d.base, err)
		}
		hits += m["rocksim_serve_cache_hits"]
		misses += m["rocksim_serve_cache_misses"]
		reused += m["rocksim_serve_pool_reused"]
		built += m["rocksim_serve_pool_built"]
	}
	return hits, misses, reused, built, nil
}

// gateHop measures what the gateway adds to a request: for each cell,
// reps alternating pairs of the same hit sent through the gateway and
// straight to the shard that owns it, on one connection each. Returns
// the median difference in ms.
func (e *env) gateHop(t *tally, reps int) (float64, error) {
	var shards []string
	for _, d := range e.daemons {
		shards = append(shards, d.base)
	}
	fl, err := client.NewFleet(shards, client.FleetConfig{PerShard: 1})
	if err != nil {
		return 0, err
	}
	defer fl.Close()
	cells := e.w.distinctCells()
	p := &pass{}
	var diffs []float64
	for r := 0; r < reps; r++ {
		for _, c := range cells {
			owners := fl.Owners(client.RunKey(c.request(0)), 1)
			if len(owners) == 0 {
				return 0, fmt.Errorf("no shard owns %s", c.key())
			}
			pair := [2]sample{{cell: c}, {cell: c}}
			e.send(e.clients[0], &pair[0], nil)
			e.send(fl.Client(owners[0]), &pair[1], nil)
			p.samples = append(p.samples, pair[0], pair[1])
			diffs = append(diffs, ms(pair[0].latency()-pair[1].latency()))
		}
	}
	t.add(p)
	return median(diffs), nil
}

// buildMs times direct workload.Build calls: reps per named workload,
// median in ms.
func buildMs(names []string, reps int) (float64, error) {
	var d []float64
	for r := 0; r < reps; r++ {
		for _, n := range names {
			t0 := time.Now()
			if _, err := workload.Build(n, workload.ScaleTest); err != nil {
				return 0, err
			}
			d = append(d, ms(time.Since(t0)))
		}
	}
	return median(d), nil
}

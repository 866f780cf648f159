// Command rockload load-tests a rocksimd daemon or a rockgate gateway
// (see docs/SERVICE.md): it fires a deterministic mix of /v1/run cells
// from N concurrent clients, honours 429 backpressure by retrying after
// the server's hint, and prints request throughput, latency percentiles
// and the server's cache-hit rate. The smokes in the Makefile also use it
// as a readiness probe and to fetch a /v1/grid. The repository's
// benchmark is cmd/rockbench, not this tool.
//
// Usage:
//
//	rockload -addr http://127.0.0.1:8321 -n 500 -c 16
//	rockload -addr http://host:8321 -healthz          # readiness probe
//	rockload -addr http://host:8321 -scale test -grid-exps T1,F3 -grid-out grid.txt
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rocksim/internal/serve"
	"rocksim/internal/serve/client"
	"rocksim/internal/sim"
)

// report is one load run's measurement.
type report struct {
	N, Concurrency      int
	RPS                 float64
	P50MS, P95MS, P99MS float64
	// TTFB percentiles: client-side time to response headers, per
	// successful final attempt (excludes 429 retry sleeps).
	TTFBP50MS, TTFBP95MS float64
	// Compute percentiles: the server's X-Compute-Us per request — near
	// zero on cache hits, so the spread shows the hit/miss split.
	ComputeP50MS, ComputeP95MS float64
	// RetryWaitTotalMS sums every 429 Retry-After sleep across the run.
	RetryWaitTotalMS float64
	Rejected429      int64
	Errors           int64
	CacheHitPct      float64
}

// loadWorkloads is the fixed cell mix: every core kind crossed with
// these workloads, cycled deterministically by request index, so a run
// of n requests always asks for the same n cells in the same order.
var loadWorkloads = []string{"chase", "oltp"}

func main() {
	addr := flag.String("addr", "", "daemon or gateway base URL, e.g. http://127.0.0.1:8321")
	n := flag.Int("n", 200, "total requests")
	c := flag.Int("c", 8, "concurrent clients")
	scaleFlag := flag.String("scale", "test", "workload scale for the cell mix: test | full")
	healthz := flag.Bool("healthz", false, "probe /healthz and exit")
	gridExps := flag.String("grid-exps", "", "fetch /v1/grid for these comma-separated experiments instead of load-testing")
	gridOut := flag.String("grid-out", "-", "write the fetched grid to this file ('-' = stdout)")
	flag.Parse()
	if *addr == "" {
		fatal(errors.New("-addr is required"))
	}

	// SIGINT/SIGTERM cancel the run context: workers stop taking cells
	// and any in-progress 429 backoff sleep aborts immediately, so ^C
	// during a long Retry-After never hangs the process. A second signal
	// kills the process the default way (NotifyContext unregisters).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cl := &client.Client{Base: *addr}
	switch {
	case *healthz:
		if err := cl.Healthz(); err != nil {
			fatal(err)
		}
		fmt.Println("ok")
	case *gridExps != "":
		grid, err := cl.Grid(serve.GridRequest{Exps: strings.Split(*gridExps, ","), Scale: *scaleFlag})
		if err != nil {
			fatal(err)
		}
		writeOut(*gridOut, grid)
	default:
		rep, err := measure(ctx, cl, *n, *c, *scaleFlag)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("rockload: %d reqs x %d clients: %.1f req/s, p50 %.1fms p95 %.1fms p99 %.1fms, %d x 429, %d errors, cache hit %.1f%%\n",
			rep.N, rep.Concurrency, rep.RPS, rep.P50MS, rep.P95MS, rep.P99MS, rep.Rejected429, rep.Errors, rep.CacheHitPct)
		fmt.Printf("rockload: ttfb p50 %.1fms p95 %.1fms, server compute p50 %.1fms p95 %.1fms, 429 retry wait %.0fms total\n",
			rep.TTFBP50MS, rep.TTFBP95MS, rep.ComputeP50MS, rep.ComputeP95MS, rep.RetryWaitTotalMS)
		if rep.Errors > 0 {
			fatal(fmt.Errorf("%d requests failed", rep.Errors))
		}
	}
}

// cellFor returns request i's cell in the deterministic mix.
func cellFor(i int, scale string) serve.RunRequest {
	kind := sim.Kinds[i%len(sim.Kinds)]
	wl := loadWorkloads[(i/len(sim.Kinds))%len(loadWorkloads)]
	return serve.RunRequest{Kind: kind.String(), Workload: wl, Scale: scale}
}

// measure pushes the first n cells of the mix through c concurrent
// clients, honouring 429 backpressure, and folds in the server's
// cache-hit rate. Cancelling ctx (SIGINT) stops the feed and aborts any
// in-progress backoff sleep; measure then returns the context error
// instead of a half-measured report.
func measure(ctx context.Context, cl *client.Client, n, c int, scale string) (report, error) {
	var rejected, errCount atomic.Int64
	var retryWait atomic.Int64 // summed 429 Retry-After sleeps, in ns
	latencies := make([]time.Duration, n)
	ttfbs := make([]time.Duration, n)
	computes := make([]time.Duration, n)
	oks := make([]bool, n)
	work := make(chan int)
	var wg sync.WaitGroup

	start := time.Now()
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				req := cellFor(i, scale)
				t0 := time.Now()
				ok := false
				for attempt := 0; attempt < 50; attempt++ {
					res, err := cl.RunDetail(req)
					var busy *client.BusyError
					if errors.As(err, &busy) {
						rejected.Add(1)
						retryWait.Add(int64(busy.RetryAfter))
						if !sleepCtx(ctx, busy.RetryAfter) {
							break
						}
						continue
					}
					if err == nil && json.Valid(res.Body) {
						ok = true
						ttfbs[i] = res.TTFB
						computes[i] = res.Compute
					}
					break
				}
				latencies[i] = time.Since(t0)
				oks[i] = ok
				if !ok {
					errCount.Add(1)
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case work <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return report{}, fmt.Errorf("interrupted: %w", err)
	}
	wall := time.Since(start)

	var okLat, okTTFB, okCompute []float64
	for i, ok := range oks {
		if ok {
			okLat = append(okLat, float64(latencies[i])/float64(time.Millisecond))
			okTTFB = append(okTTFB, float64(ttfbs[i])/float64(time.Millisecond))
			okCompute = append(okCompute, float64(computes[i])/float64(time.Millisecond))
		}
	}
	sort.Float64s(okLat)
	sort.Float64s(okTTFB)
	sort.Float64s(okCompute)
	rep := report{
		N:                n,
		Concurrency:      c,
		RPS:              float64(n) / wall.Seconds(),
		P50MS:            quantile(okLat, 0.50),
		P95MS:            quantile(okLat, 0.95),
		P99MS:            quantile(okLat, 0.99),
		TTFBP50MS:        quantile(okTTFB, 0.50),
		TTFBP95MS:        quantile(okTTFB, 0.95),
		ComputeP50MS:     quantile(okCompute, 0.50),
		ComputeP95MS:     quantile(okCompute, 0.95),
		RetryWaitTotalMS: float64(retryWait.Load()) / float64(time.Millisecond),
		Rejected429:      rejected.Load(),
		Errors:           errCount.Load(),
	}
	m, err := cl.Metrics()
	if err != nil {
		return rep, fmt.Errorf("scrape metrics: %w", err)
	}
	hits, misses := m["rocksim_serve_cache_hits"], m["rocksim_serve_cache_misses"]
	if hits+misses > 0 {
		rep.CacheHitPct = 100 * hits / (hits + misses)
	}
	return rep, nil
}

// quantile reads q from an ascending sample (nearest-rank on the
// client-side latency list; the daemon's own histograms use stats.Hist).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)-1) + 0.5)
	return sorted[i]
}

// sleepCtx sleeps for d unless ctx is cancelled first, reporting
// whether the full sleep elapsed. The 429 retry path uses it so a
// signal interrupts a backoff immediately instead of after the server's
// full Retry-After hint.
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

func writeOut(path string, data []byte) {
	if path == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rockload:", err)
	os.Exit(1)
}

// Command rocksimd serves simulations over HTTP (see docs/SERVICE.md):
// one long-lived daemon hosts the experiments.Runner worker pool and
// content-addressed run cache, so clients share cached cells across
// requests instead of paying cold simulator runs.
//
// Usage:
//
//	rocksimd                          # listen on 127.0.0.1:8321
//	rocksimd -addr :9000 -j 8         # public port, 8 sim workers
//	rocksimd -queue 64 -timeout 60s   # deeper queue, per-cell watchdog
//	rocksimd -trace -debug-addr 127.0.0.1:8322   # trace every request,
//	                                  # pprof on the side port
//
// Logs are structured (log/slog text format on stderr): request start
// and end lines carry the X-Request-ID, so a slow or failed request in
// the log pairs with its span tree from GET /v1/trace/{id}.
//
// SIGTERM/SIGINT drain gracefully: the listener stops accepting, new
// work is refused with 503, and the process exits 0 once every admitted
// request (including async grids) has finished.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served on -debug-addr only
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"rocksim/internal/experiments"
	"rocksim/internal/serve"
	"rocksim/internal/sim"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8321", "listen address")
	shardID := flag.String("shard-id", "", "name of this daemon within a fleet, echoed by /healthz (empty outside a fleet)")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "max concurrent simulation runs (worker pool)")
	queue := flag.Int("queue", serve.DefaultQueueDepth, "admission bound: run/grid requests in flight before 429")
	retryAfter := flag.Duration("retry-after", serve.DefaultRetryAfter, "Retry-After hint on 429 responses")
	timeout := flag.Duration("timeout", 0, "wall-clock watchdog applied to every simulation cell (0 = none)")
	shutdownGrace := flag.Duration("shutdown-grace", 5*time.Minute, "drain deadline for open connections after SIGTERM")
	trace := flag.Bool("trace", false, "trace every request (clients can also opt in per request with X-Trace: 1); span trees at GET /v1/trace/{id}")
	traceRing := flag.Int("trace-ring", serve.DefaultTraceRing, "finished traces retained for /v1/trace")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug | info | warn | error")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "rocksimd: unexpected argument %q: rocksimd takes flags only\n", flag.Arg(0))
		os.Exit(2)
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintln(os.Stderr, "rocksimd: bad -log-level:", err)
		os.Exit(2)
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(log)

	r := experiments.NewRunner()
	r.SetJobs(*jobs)
	if *timeout > 0 {
		opts := sim.DefaultOptions()
		opts.Timeout = *timeout
		r.SetBaseOptions(opts)
	}
	srv := serve.New(serve.Config{
		ShardID:    *shardID,
		QueueDepth: *queue,
		RetryAfter: *retryAfter,
		Trace:      *trace,
		TraceRing:  *traceRing,
		Logger:     log,
	}, r)
	hs := &http.Server{Addr: *addr, Handler: srv}

	if *debugAddr != "" {
		// The pprof endpoints live on their own listener so profiling a
		// stuck daemon never competes with (or exposes itself to) API
		// traffic. net/http/pprof registered itself on DefaultServeMux.
		go func() {
			log.Info("debug listener", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Error("debug listener failed", "err", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Info("signal received; draining")
		srv.StartDrain()
		shctx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
		defer cancel()
		if err := hs.Shutdown(shctx); err != nil {
			log.Error("shutdown", "err", err)
		}
	}()

	log.Info("listening", "addr", *addr, "workers", *jobs, "queue", *queue, "trace", *trace)
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "rocksimd:", err)
		os.Exit(1)
	}
	// The HTTP listener is closed; wait for admitted work (async grids
	// included) so a drain never abandons a computation.
	srv.Wait()
	hits, misses := r.CacheStats()
	log.Info("drained cleanly", "cache_hits", hits, "cache_misses", misses)
}

package serve

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"rocksim/internal/obs"
)

// This file is the request-scoped observability of the service: the
// middleware that assigns (or echoes) X-Request-ID, opens the root span
// of a traced request, emits the structured request start/end log
// lines, and the bounded ring of finished traces behind GET
// /v1/trace/{id}.

// DefaultTraceRing bounds retained finished traces; the oldest are
// evicted first.
const DefaultTraceRing = 64

type requestIDCtxKey struct{}

// RequestID returns the id the middleware assigned to this request
// ("" outside a request).
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDCtxKey{}).(string)
	return id
}

// statusRecorder captures the handler's status code for the end-of-
// request log line and root span.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// traceEnabled reports whether this request should be traced: always
// when the server was configured with Trace, or per request via the
// X-Trace: 1 header.
func (s *Server) traceEnabled(r *http.Request) bool {
	return s.cfg.Trace || r.Header.Get("X-Trace") == "1"
}

// ServeHTTP implements http.Handler: every request gets an id (the
// client's X-Request-ID if it sent one, a generated one otherwise),
// echoed back in the response header and carried on the context for
// log attribution. Traced requests additionally get a per-request
// obs.Tracer with a root "request" span covering the handler; the
// finished tree lands in the trace ring under the request id.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get("X-Request-ID")
	if id == "" {
		id = fmt.Sprintf("r%08d", s.reqID.Add(1))
	}
	w.Header().Set("X-Request-ID", id)
	ctx := context.WithValue(r.Context(), requestIDCtxKey{}, id)
	var tr *obs.Tracer
	var root *obs.Span
	if s.traceEnabled(r) {
		tr = obs.NewTracerClock(s.clock)
		ctx = obs.WithTracer(ctx, tr)
		ctx, root = obs.StartSpan(ctx, "request")
		root.SetAttr("id", id)
		root.SetAttr("method", r.Method)
		root.SetAttr("path", r.URL.Path)
	}
	s.log.LogAttrs(ctx, slog.LevelInfo, "request start",
		slog.String("id", id), slog.String("method", r.Method), slog.String("path", r.URL.Path))
	start := time.Now()
	rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
	s.mux.ServeHTTP(rec, r.WithContext(ctx))
	if root != nil {
		root.SetAttr("status", strconv.Itoa(rec.code))
		root.End()
		s.storeTrace(id, tr)
	}
	s.log.LogAttrs(ctx, slog.LevelInfo, "request end",
		slog.String("id", id), slog.Int("status", rec.code),
		slog.Int64("dur_us", time.Since(start).Microseconds()))
}

// storeTrace retains a finished trace under the request id, evicting
// the oldest beyond the ring bound. A repeated id (a client reusing
// X-Request-ID) overwrites its previous trace without growing the ring.
func (s *Server) storeTrace(id string, tr *obs.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.traces[id]; !ok {
		s.traceOrder = append(s.traceOrder, id)
	}
	s.traces[id] = tr
	for len(s.traceOrder) > s.traceRing() {
		delete(s.traces, s.traceOrder[0])
		s.traceOrder = s.traceOrder[1:]
	}
}

func (s *Server) traceRing() int {
	if s.cfg.TraceRing > 0 {
		return s.cfg.TraceRing
	}
	return DefaultTraceRing
}

// handleTrace serves a finished request's span tree: Chrome trace_event
// JSON by default, the flat span list with ?format=spans.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	tr := s.traces[id]
	s.mu.Unlock()
	if tr == nil {
		HTTPError(w, http.StatusNotFound, fmt.Sprintf("no trace for request id %q (traced requests only; ring keeps the last %d)", id, s.traceRing()))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	var err error
	if r.URL.Query().Get("format") == "spans" {
		err = tr.WriteSpans(w)
	} else {
		err = tr.WriteChrome(w)
	}
	if err != nil {
		s.count("trace_errors").Inc()
	}
}

package obs

import (
	"context"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// This file is the request-scoped (wall-clock) half of tracing. Trace
// (trace.go) records microarchitectural events in the cycle domain; the
// Tracer below records what the *service stack* did with a request —
// admission, queue wait, cache lookup, singleflight join, compute — as a
// tree of timed spans threaded through context.Context. One Tracer holds
// one request's (or one CLI invocation's) tree and is exported either as
// a flat span list or as Chrome trace_event "X" complete events.
//
// Everything is nil-safe: StartSpan on a context with no tracer returns
// a nil *Span, and every Span method is a no-op on a nil receiver, so
// instrumented code pays one pointer check when tracing is off.
//
// The clock is injectable. The default is time.Now; tests install a fake
// incrementing clock so identical request sequences export byte-
// identical traces (the span-determinism contract mirrors the metrics
// layer's).

// Attr is one key/value annotation on a span. Attrs keep insertion
// order so exports are deterministic.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation in a request's tree.
type Span struct {
	tr       *Tracer
	id       uint64
	parent   uint64 // 0 for roots
	name     string
	start    time.Duration // since tracer epoch
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

// Tracer owns one request's span tree: it allocates ids, timestamps
// spans against a fixed epoch, and renders exports. Safe for concurrent
// use (singleflight sharers may annotate while the computing goroutine
// runs).
type Tracer struct {
	mu     sync.Mutex
	clock  func() time.Time
	epoch  time.Time
	nextID uint64
	roots  []*Span
}

// NewTracer returns a tracer on the real clock.
func NewTracer() *Tracer { return NewTracerClock(time.Now) }

// NewTracerClock returns a tracer reading time from clock — tests pass
// a fake incrementing clock to make exports byte-deterministic. The
// epoch (ts zero in exports) is the clock's value at construction.
func NewTracerClock(clock func() time.Time) *Tracer {
	return &Tracer{clock: clock, epoch: clock()}
}

// Start opens a root span.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.newSpanLocked(name, 0)
	t.roots = append(t.roots, s)
	return s
}

func (t *Tracer) newSpanLocked(name string, parent uint64) *Span {
	t.nextID++
	return &Span{tr: t, id: t.nextID, parent: parent, name: name, start: t.clock().Sub(t.epoch)}
}

// StartChild opens a child span under s. Nil-safe.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.newSpanLocked(name, s.id)
	s.children = append(s.children, c)
	return c
}

// SetAttr annotates the span. Nil-safe; insertion order is kept.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, Attr{key, value})
	s.tr.mu.Unlock()
}

// End closes the span at the tracer clock's current reading. A second
// End is ignored; nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = t.clock().Sub(t.epoch) - s.start
	}
	t.mu.Unlock()
}

// Duration returns the span's duration (zero until End). Nil-safe.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.dur
}

// Name returns the span's name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Context plumbing. Two keys: the tracer (installed once per request by
// the middleware or CLI), and the current span (rebound at every
// StartSpan so children nest under their caller).
type tracerCtxKey struct{}
type spanCtxKey struct{}

// WithTracer installs t on the context.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerCtxKey{}, t)
}

// TracerFrom returns the context's tracer, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerCtxKey{}).(*Tracer)
	return t
}

// SpanFrom returns the context's current span, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// StartSpan opens a span named name under the context's current span
// (or as a root if none) and returns a context carrying it. When the
// context has no tracer it returns (ctx, nil) without allocating —
// tracing off costs two context lookups.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	var s *Span
	if cur := SpanFrom(ctx); cur != nil {
		s = cur.StartChild(name)
	} else {
		s = t.Start(name)
	}
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// SpanSnap is the flat export form of one span. Times are integer
// microseconds since the tracer epoch.
type SpanSnap struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// Snapshot flattens the tree depth-first (parents before children,
// siblings in start order) — a deterministic order given a
// deterministic clock.
func (t *Tracer) Snapshot() []SpanSnap {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []SpanSnap
	var walk func(s *Span)
	walk = func(s *Span) {
		out = append(out, SpanSnap{
			ID:      s.id,
			Parent:  s.parent,
			Name:    s.name,
			StartUs: s.start.Microseconds(),
			DurUs:   s.dur.Microseconds(),
			Attrs:   s.attrs,
		})
		for _, c := range s.children {
			walk(c)
		}
	}
	for _, r := range t.roots {
		walk(r)
	}
	return out
}

// WriteSpans writes the flat span list as indented JSON.
func (t *Tracer) WriteSpans(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Spans []SpanSnap `json:"spans"`
	}{t.Snapshot()})
}

// xEvent is one Chrome trace_event "X" (complete) record. Unlike the
// cycle-domain exporter's B/E pairs, complete events carry an explicit
// duration, and every event carries ts/dur/pid/tid — the shape the
// trace-smoke linter checks.
type xEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome writes the span tree as Chrome trace_event JSON (one "X"
// complete event per span; pid 1, one trace thread per root so
// concurrent requests in a shared tracer get separate lanes). Times are
// wall-clock microseconds since the tracer epoch. Deterministic given a
// deterministic clock.
func (t *Tracer) WriteChrome(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var evs []xEvent
	var walk func(s *Span, tid int)
	walk = func(s *Span, tid int) {
		ev := xEvent{Name: s.name, Ph: "X", Ts: s.start.Microseconds(), Dur: s.dur.Microseconds(), Pid: 1, Tid: tid}
		if ev.Dur < 1 {
			ev.Dur = 1 // zero-width spans vanish in viewers
		}
		if len(s.attrs) > 0 {
			args := make(map[string]any, len(s.attrs))
			for _, a := range s.attrs {
				args[a.Key] = a.Value
			}
			ev.Args = args
		}
		evs = append(evs, ev)
		for _, c := range s.children {
			walk(c, tid)
		}
	}
	for i, r := range t.roots {
		walk(r, i+1)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"generator": "rocksim", "timeUnit": "1 ts = 1 microsecond"},
	})
}

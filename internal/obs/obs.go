// Package obs is the unified observability layer shared by every core
// model, the memory hierarchy and the simulation harness: a metrics
// registry (counters, gauges, fixed-bucket histograms and cycle-sampled
// timelines) plus exporters — a Chrome trace_event JSON writer whose
// output loads in chrome://tracing and Perfetto, a flat JSON dump, and a
// Prometheus-style text dump.
//
// The layer has two halves:
//
//   - a Registry of aggregate metrics, filled in by each model's
//     PublishObs at the end of a run (and, for live histograms and
//     timelines, during it);
//   - a Sink event stream (see sink.go) that observes the run cycle by
//     cycle: mode transitions, checkpoint lifetimes, memory-miss spans,
//     queue occupancies.
//
// Both halves cost nothing when disabled: models guard every emission
// with a nil check, and no registry is allocated unless a run asks for
// one. Everything is deterministic — identical runs produce byte-
// identical exports — so metrics files can be diffed across simulator
// versions.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"rocksim/internal/stats"
)

// DefaultSampleEvery is the default decimation for cycle-sampled
// timelines and Chrome counter tracks: one sample every N cycles.
const DefaultSampleEvery = 64

// Counter is a monotonically increasing count. All operations are
// atomic, so counters may be published from concurrent runs sharing a
// registry.
type Counter struct {
	name string
	v    uint64
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Value returns the current count.
func (c *Counter) Value() uint64 { return atomic.LoadUint64(&c.v) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { atomic.AddUint64(&c.v, n) }

// Inc increases the counter by one.
func (c *Counter) Inc() { atomic.AddUint64(&c.v, 1) }

// Set overwrites the counter (used when publishing an externally
// accumulated total).
func (c *Counter) Set(v uint64) { atomic.StoreUint64(&c.v, v) }

// Gauge is an instantaneous value with a high-water mark. All
// operations are atomic, so gauges may be published from concurrent
// runs sharing a registry.
type Gauge struct {
	name string
	v    int64
	hi   int64
}

// Name returns the gauge's registered name.
func (g *Gauge) Name() string { return g.name }

// Value returns the last set value.
func (g *Gauge) Value() int64 { return atomic.LoadInt64(&g.v) }

// High returns the high-water mark.
func (g *Gauge) High() int64 { return atomic.LoadInt64(&g.hi) }

// Set records a new value, tracking the high-water mark.
func (g *Gauge) Set(v int64) {
	atomic.StoreInt64(&g.v, v)
	for {
		hi := atomic.LoadInt64(&g.hi)
		if v <= hi || atomic.CompareAndSwapInt64(&g.hi, hi, v) {
			return
		}
	}
}

// Timeline is a cycle-sampled series: one (cycle, value) point every
// SampleEvery cycles. It is the machine-readable companion of the Chrome
// counter tracks.
type Timeline struct {
	name  string
	every uint64
	next  uint64
	cyc   []uint64
	val   []int64
}

// Name returns the timeline's registered name.
func (t *Timeline) Name() string { return t.name }

// Sample records v at cycle now if the decimation window has elapsed.
func (t *Timeline) Sample(now uint64, v int64) {
	if now < t.next {
		return
	}
	t.next = now + t.every
	t.cyc = append(t.cyc, now)
	t.val = append(t.val, v)
}

// Len returns the number of recorded points.
func (t *Timeline) Len() int { return len(t.cyc) }

// mergeFrom interleaves o's samples into t in cycle order (stable: at
// equal cycles t's existing points sort first). Used by Registry.Merge.
func (t *Timeline) mergeFrom(o *Timeline) {
	if o == nil || len(o.cyc) == 0 {
		return
	}
	cyc := make([]uint64, 0, len(t.cyc)+len(o.cyc))
	val := make([]int64, 0, len(t.val)+len(o.val))
	i, j := 0, 0
	for i < len(t.cyc) || j < len(o.cyc) {
		if j >= len(o.cyc) || (i < len(t.cyc) && t.cyc[i] <= o.cyc[j]) {
			cyc, val = append(cyc, t.cyc[i]), append(val, t.val[i])
			i++
		} else {
			cyc, val = append(cyc, o.cyc[j]), append(val, o.val[j])
			j++
		}
	}
	t.cyc, t.val = cyc, val
	if o.next > t.next {
		t.next = o.next
	}
}

// Registry holds one run's metrics. The registry itself — metric
// lookup/creation, end-of-run publishing (counters, gauges, PutHist)
// and the exporters — is safe for concurrent use, so parallel
// experiment harnesses may publish finished runs into a shared
// registry. Live histograms and timelines remain single-writer during
// a run: give each concurrent run its own registry and fold them
// together afterwards with Merge.
type Registry struct {
	mu          sync.Mutex
	sampleEvery uint64
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	hists       map[string]*stats.Hist
	timelines   map[string]*Timeline
}

// NewRegistry returns an empty registry with the default sample rate.
func NewRegistry() *Registry {
	return &Registry{
		sampleEvery: DefaultSampleEvery,
		counters:    make(map[string]*Counter),
		gauges:      make(map[string]*Gauge),
		hists:       make(map[string]*stats.Hist),
		timelines:   make(map[string]*Timeline),
	}
}

// SetSampleEvery sets the timeline decimation (cycles per sample).
// Values < 1 reset it to the default.
func (r *Registry) SetSampleEvery(n uint64) {
	if n < 1 {
		n = DefaultSampleEvery
	}
	r.mu.Lock()
	r.sampleEvery = n
	r.mu.Unlock()
}

// SampleEvery returns the timeline decimation.
func (r *Registry) SampleEvery() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sampleEvery
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counterLocked(name)
}

func (r *Registry) counterLocked(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gaugeLocked(name)
}

func (r *Registry) gaugeLocked(name string) *Gauge {
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// Hist returns (creating if needed) the named histogram tracking values
// 0..limit (larger observations clamp into the overflow bucket).
func (r *Registry) Hist(name string, limit int) *stats.Hist {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		h.Widen() // a snapshot published by PutHist
		return h
	}
	h := stats.NewHist(limit)
	r.hists[name] = h
	return h
}

// PutHist registers an externally owned histogram under name, merging
// into any histogram already registered there. Models use this to
// publish histograms they already maintain (queue occupancies) without
// double-counting. The merge runs under the registry lock, so
// concurrent finished runs may publish into one registry; the
// histogram passed in must itself be quiescent. A packed snapshot
// (stats.Hist.Clone) is registered packed; a later merge into it, or
// Hist, widens it.
func (r *Registry) PutHist(name string, h *stats.Hist) {
	if h == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if have, ok := r.hists[name]; ok {
		have.Merge(h)
		return
	}
	r.hists[name] = h
}

// Timeline returns (creating if needed) the named cycle-sampled series.
func (r *Registry) Timeline(name string) *Timeline {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.timelineLocked(name)
}

func (r *Registry) timelineLocked(name string) *Timeline {
	if t, ok := r.timelines[name]; ok {
		return t
	}
	t := &Timeline{name: name, every: r.sampleEvery}
	r.timelines[name] = t
	return t
}

// Merge folds other's metrics into r, deterministically: counters add,
// gauges adopt the later value and the larger high-water mark,
// histograms merge losslessly (clamping only tail resolution; the
// first histogram under a name is cloned, never aliased), and timelines
// interleave in cycle order. Every name merges independently of the
// others, so the export does not depend on iteration order. other must
// be quiescent — the run that filled it has finished. This is how
// per-run registries from a parallel sweep become one export, and how
// the daemon folds every served run into /metrics: identical merge
// inputs produce byte-identical exports regardless of worker
// scheduling.
func (r *Registry) Merge(other *Registry) {
	if other == nil || other == r {
		return
	}
	// Lock order: source, then destination. Two registries must never
	// be merged into each other concurrently.
	other.mu.Lock()
	defer other.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range other.counters {
		r.counterLocked(c.name).Add(c.Value())
	}
	for _, o := range other.gauges {
		g := r.gaugeLocked(o.name)
		// Raise the high-water mark first, then adopt the value (a
		// gauge's high is never below its value, so the second Set
		// cannot lower the mark).
		g.Set(o.High())
		g.Set(o.Value())
	}
	for name, h := range other.hists {
		if have, ok := r.hists[name]; ok {
			have.Merge(h)
		} else {
			// The accumulating copy is live (full width), like one
			// made by Hist.
			c := h.Clone()
			c.Widen()
			r.hists[name] = c
		}
	}
	for _, t := range other.timelines {
		r.timelineLocked(t.name).mergeFrom(t)
	}
}

// HistSnap is the exported summary of one histogram.
type HistSnap struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	Max   int     `json:"max"`
	P50   int     `json:"p50"`
	P95   int     `json:"p95"`
	P99   int     `json:"p99"`
}

// GaugeSnap is the exported form of one gauge.
type GaugeSnap struct {
	Value int64 `json:"value"`
	High  int64 `json:"high"`
}

// TimelineSnap is the exported form of one timeline.
type TimelineSnap struct {
	Every  uint64   `json:"every"`
	Cycles []uint64 `json:"cycles"`
	Values []int64  `json:"values"`
}

// Snapshot is the flat, deterministic export form of a Registry.
// encoding/json sorts map keys, so marshaling a Snapshot is
// byte-deterministic for identical runs.
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters"`
	Gauges     map[string]GaugeSnap    `json:"gauges,omitempty"`
	Histograms map[string]HistSnap     `json:"histograms,omitempty"`
	Timelines  map[string]TimelineSnap `json:"timelines,omitempty"`
}

// Snapshot flattens the registry.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{Counters: make(map[string]uint64, len(r.counters))}
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]GaugeSnap, len(r.gauges))
		for n, g := range r.gauges {
			s.Gauges[n] = GaugeSnap{Value: g.Value(), High: g.High()}
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistSnap, len(r.hists))
		for n, h := range r.hists {
			s.Histograms[n] = HistSnap{
				Count: h.Count(),
				Mean:  h.Mean(),
				Max:   h.Max(),
				P50:   h.Quantile(0.50),
				P95:   h.Quantile(0.95),
				P99:   h.Quantile(0.99),
			}
		}
	}
	if len(r.timelines) > 0 {
		s.Timelines = make(map[string]TimelineSnap, len(r.timelines))
		for n, t := range r.timelines {
			s.Timelines[n] = TimelineSnap{Every: t.every, Cycles: t.cyc, Values: t.val}
		}
	}
	return s
}

// WriteJSON writes the registry as indented, deterministic JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// promName converts a metric name into a Prometheus-safe identifier.
func promName(name string) string {
	s := strings.NewReplacer("/", "_", "-", "_", ".", "_", " ", "_").Replace(name)
	return "rocksim_" + s
}

// WriteProm writes the registry in Prometheus text exposition format.
// Histograms export count/mean/max and the p50/p95/p99 quantiles as
// separate gauges; timelines are omitted (they are series, not scrapes).
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, n := range sortedKeys(r.counters) {
		pn := promName(n)
		p("# TYPE %s counter\n%s %d\n", pn, pn, r.counters[n].Value())
	}
	for _, n := range sortedKeys(r.gauges) {
		g := r.gauges[n]
		pn := promName(n)
		p("# TYPE %s gauge\n%s %d\n%s_high %d\n", pn, pn, g.Value(), pn, g.High())
	}
	for _, n := range sortedKeys(r.hists) {
		h := r.hists[n]
		pn := promName(n)
		p("# TYPE %s summary\n", pn)
		p("%s_count %d\n", pn, h.Count())
		p("%s_mean %g\n", pn, h.Mean())
		p("%s_max %d\n", pn, h.Max())
		p("%s{quantile=\"0.5\"} %d\n", pn, h.Quantile(0.50))
		p("%s{quantile=\"0.95\"} %d\n", pn, h.Quantile(0.95))
		p("%s{quantile=\"0.99\"} %d\n", pn, h.Quantile(0.99))
	}
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Source is implemented by every model (cores, statistics blocks, cache
// levels, the hierarchy) that can publish its counters into a Registry.
type Source interface {
	PublishObs(r *Registry)
}

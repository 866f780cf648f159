package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rocksim/internal/experiments"
	"rocksim/internal/obs"
	"rocksim/internal/serve/client"
	"rocksim/internal/workload"
)

// runConfig says what one workload run measures.
type runConfig struct {
	seed int64
	// seconds is about the time the timed passes take: a run does
	// timedPasses(seconds) passes, so every run of the same -seconds
	// does the same work however fast the host happens to be.
	seconds float64
	// setups is how many times the workload is set up; setup_s is their
	// median and the last one is measured.
	setups int
	timed  bool // timed passes → end-to-end metrics
	traced bool // traced pass → per-layer metrics
	// reps overrides the workload's per-pass repetitions of each cell
	// and exps the grid's experiment list (miniature runs in tests).
	reps    int
	exps    []string
	hopReps int
	// traceOut, when set, receives the traced pass as a Chrome trace.
	traceOut string
}

func defaultConfig() runConfig {
	return runConfig{seed: 1, seconds: 25, setups: 3, timed: true, traced: true, hopReps: 5}
}

// result is one workload run.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Samples is the number of latencies pooled for the percentiles.
	Samples int `json:"samples,omitempty"`
	// HostFactor is the host's slowdown against the reference host; the
	// metrics below are rescaled by it (calibrate.go).
	HostFactor float64            `json:"host_factor,omitempty"`
	EndToEnd   map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
}

// errPct is failed ops over attempted ops, in percent.
func (r *result) errPct() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return 100 * float64(r.Failed) / float64(r.Attempted)
}

// bench is one workload, set up and ready to run passes.
type bench interface {
	// pass runs the workload's fixed op sequence once, untraced.
	pass() *pass
	// traced runs the sequence once more under tr and derives the
	// per-layer metrics.
	traced(tr *obs.Tracer, t *tally) (*tracedPass, error)
	close()
}

// tracedPass is the traced pass and what it measured.
type tracedPass struct {
	pass   *pass
	layers map[string]float64
	// daemon[i] is the span tree of the daemon request samples[i] caused
	// and entries[i] its tap record (service workloads only).
	daemon  [][]obs.SpanSnap
	entries []tapEntry
}

func newBench(w *workloadDef, gold *golden, cfg runConfig, t *tally) (bench, error) {
	if w.via == viaRunner {
		return newGridBench(gold, cfg, t)
	}
	reps := cfg.reps
	if reps == 0 {
		reps = w.reps
	}
	e, err := startEnv(w, gold, t)
	if err != nil {
		return nil, err
	}
	return &serviceBench{e: e, seq: w.sequence(cfg.seed, reps), hopReps: cfg.hopReps}, nil
}

// runWorkload sets the workload up cfg.setups times, runs its timed
// passes and its traced pass, and reports what cfg asks for.
func runWorkload(w *workloadDef, gold *golden, cfg runConfig) (*result, error) {
	var t tally
	var b bench
	var setups []float64
	// settle runs before every set-up and pass: it collects garbage and
	// times the calibration job.
	var calib []time.Duration
	settle := func() {
		runtime.GC()
		calib = append(calib, calibrate())
	}
	for i := 0; i < max(cfg.setups, 1); i++ {
		if b != nil {
			b.close()
		}
		settle()
		t0 := time.Now()
		nb, err := newBench(w, gold, cfg, &t)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		b = nb
		logf("%s: set-up %d took %.3fs", w.name, i+1, setups[i])
	}
	defer b.close()

	// Untraced passes: the timed ones, or one reference pass for the
	// tracing overhead when only the traced pass is reported.
	want := 1
	if cfg.timed {
		want = w.timedPasses(cfg.seconds)
	}
	var passes []*pass
	for len(passes) < want {
		settle()
		p := b.pass()
		t.add(p)
		passes = append(passes, p)
		logf("%s: pass %d: %d ops in %.3fs", w.name, len(passes), len(p.samples), p.wall.Seconds())
	}
	res := &result{Workload: w.name, Seed: cfg.seed}
	lats := latencies(passes...)
	if cfg.timed {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.EndToEnd = endToEndMetrics(passes, setups, rss)
		res.Samples = len(lats)
	}
	if cfg.traced {
		settle()
		tr := obs.NewTracer()
		t0 := time.Now()
		tp, err := b.traced(tr, &t)
		if err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", w.name, err)
		}
		logf("%s: traced pass: %d ops in %.3fs, analysed in %.3fs", w.name, len(tp.pass.samples), tp.pass.wall.Seconds(), time.Since(t0).Seconds())
		m := tp.layers
		if base := pct(lats, 0.5); base > 0 {
			m["obs.trace_overhead_pct"] = 100 * (pct(latencies(tp.pass), 0.5)/base - 1)
		}
		res.PerLayer = map[string]float64{}
		for _, s := range perLayer() {
			res.PerLayer[s.Name] = m[s.Name]
		}
		if cfg.traceOut != "" {
			if err := writeChrome(cfg.traceOut, w.name, tr, tp); err != nil {
				return nil, err
			}
		}
	}
	res.HostFactor = hostFactor(calib)
	logf("%s: host factor %.3f (calibration median over %v)", w.name, res.HostFactor, calibRef)
	toReference(endToEnd, res.EndToEnd, res.HostFactor)
	toReference(perLayer(), res.PerLayer, res.HostFactor)
	res.Attempted, res.Failed, res.Errors = t.attempted, t.failed, t.errs
	res.Correct = t.failed == 0
	return res, nil
}

// logw receives progress lines; tests silence it.
var logw io.Writer = os.Stderr

func logf(format string, args ...any) { fmt.Fprintf(logw, "rockbench: "+format+"\n", args...) }

// latencies pools the op latencies of the passes, in ms.
func latencies(passes ...*pass) []float64 {
	var out []float64
	for _, p := range passes {
		for i := range p.samples {
			out = append(out, ms(p.samples[i].latency()))
		}
	}
	return out
}

// endToEndMetrics: rates and pass times are medians over passes,
// percentiles are nearest-rank over every pass's latencies pooled, and
// setup_s is the median set-up.
func endToEndMetrics(passes []*pass, setups []float64, rssMB float64) map[string]float64 {
	var rates, walls []float64
	for _, p := range passes {
		ok := 0
		for i := range p.samples {
			if p.samples[i].err == nil {
				ok++
			}
		}
		rates = append(rates, float64(ok)/p.wall.Seconds())
		walls = append(walls, p.wall.Seconds())
	}
	lats := latencies(passes...)
	return map[string]float64{
		"req_per_s":   median(rates),
		"lat_p50_ms":  pct(lats, 0.5),
		"lat_p98_ms":  pct(lats, tailQ),
		"pass_s":      median(walls),
		"setup_s":     median(setups),
		"peak_rss_mb": rssMB,
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %v", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// serviceBench is a run-* or gate-hit workload.
type serviceBench struct {
	e       *env
	seq     []cell
	hopReps int
}

func (b *serviceBench) pass() *pass { return b.e.run(b.seq, nil) }

func (b *serviceBench) close() { b.e.close() }

func (b *serviceBench) traced(tr *obs.Tracer, t *tally) (*tracedPass, error) {
	e := b.e
	h0, m0, r0, n0, err := e.cacheCounters()
	if err != nil {
		return nil, err
	}
	for _, d := range e.daemons {
		d.on.Store(true)
	}
	root := tr.Start("traced-pass")
	root.SetAttr("workload", e.w.name)
	p := e.run(b.seq, root)
	root.End()
	var entries []tapEntry
	for _, d := range e.daemons {
		entries = append(entries, d.stop()...)
	}
	t.add(p)
	h1, m1, r1, n1, err := e.cacheCounters()
	if err != nil {
		return nil, err
	}

	paired, err := pairTraces(p.samples, entries)
	if err != nil {
		return nil, err
	}
	hc := &http.Client{Transport: client.NewTransport(1), Timeout: requestTimeout}
	defer hc.CloseIdleConnections()
	tp := &tracedPass{pass: p, daemon: make([][]obs.SpanSnap, len(p.samples)), entries: paired}
	var rtts []float64
	var trees []reqTree
	for i := range p.samples {
		if p.samples[i].err != nil {
			continue
		}
		spans, err := fetchSpans(hc, paired[i])
		if err != nil {
			return nil, err
		}
		tree, err := parseTree(spans)
		if err != nil {
			return nil, fmt.Errorf("trace %s: %w", paired[i].id, err)
		}
		tp.daemon[i] = spans
		rtts = append(rtts, ms(p.samples[i].latency()))
		trees = append(trees, tree)
	}
	m := serviceLayers(rtts, trees)
	m["experiments.cache_hit_ratio"] = ratio(h1-h0, m1-m0)
	m["experiments.pool_reuse_ratio"] = ratio(r1-r0, n1-n0)
	if m["workload.build_ms"], err = buildMs(e.w.cells, 20); err != nil {
		return nil, err
	}
	if e.w.via == viaGate {
		if m["gate.hop_ms"], err = e.gateHop(t, b.hopReps); err != nil {
			return nil, err
		}
	}
	tp.layers = m
	return tp, nil
}

// ratio is yes/(yes+no), 0 when both are 0.
func ratio(yes, no float64) float64 {
	if yes+no == 0 {
		return 0
	}
	return yes / (yes + no)
}

// gridBench is the grid workload: test-scale regenerations of the
// experiments in-process, each pass on a fresh Runner.
type gridBench struct {
	gold *golden
	ids  []string
}

func newGridBench(gold *golden, cfg runConfig, t *tally) (*gridBench, error) {
	b := &gridBench{gold: gold, ids: cfg.exps}
	if b.ids == nil {
		b.ids = experiments.All
	}
	if _, err := workload.BuildAll(workload.ScaleTest); err != nil {
		return nil, err
	}
	// Regenerate the workload table once on a throwaway Runner, so lazy
	// initialisation is paid before timing.
	warm, _ := gridPass([]string{"T2"}, gold, nil)
	t.add(warm)
	return b, nil
}

func (b *gridBench) pass() *pass {
	p, _ := gridPass(b.ids, b.gold, nil)
	return p
}

func (b *gridBench) close() {}

func (b *gridBench) traced(tr *obs.Tracer, t *tally) (*tracedPass, error) {
	root := tr.Start("grid-pass")
	p, r := gridPass(b.ids, b.gold, root)
	root.End()
	t.add(p)
	m := map[string]float64{}
	for i := range p.samples {
		if id := p.samples[i].exp; !trivialExps[id] {
			m["grid.exp_s."+id] = p.samples[i].latency().Seconds()
		}
	}
	hits, misses := r.CacheStats()
	reused, built := r.PoolStats()
	m["experiments.cache_hit_ratio"] = ratio(float64(hits), float64(misses))
	m["experiments.pool_reuse_ratio"] = ratio(float64(reused), float64(built))
	var err error
	if m["workload.build_ms"], err = buildMs(workload.Names, 5); err != nil {
		return nil, err
	}
	return &tracedPass{pass: p, layers: m}, nil
}

// gridPass regenerates ids in order on a fresh Runner with gridJobs
// workers (sstbench -scale test -j 1) and checks each rendered result
// against its golden digest. With parent set, each experiment gets a
// span under it.
func gridPass(ids []string, gold *golden, parent *obs.Span) (*pass, *experiments.Runner) {
	r := experiments.NewRunner()
	r.SetJobs(gridJobs)
	p := &pass{samples: make([]sample, len(ids))}
	t0 := time.Now()
	for i, id := range ids {
		s := &p.samples[i]
		s.exp = id
		var span *obs.Span
		if parent != nil {
			span = parent.StartChild("experiment")
			span.SetAttr("id", id)
		}
		s.start = time.Now()
		res, err := r.Run(id, workload.ScaleTest)
		s.end = time.Now()
		span.End()
		if err == nil {
			var buf bytes.Buffer
			res.Fprint(&buf)
			err = gold.checkGrid(id, buf.Bytes())
		}
		s.err = err
	}
	p.wall = time.Since(t0)
	return p, r
}

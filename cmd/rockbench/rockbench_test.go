package main

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"rocksim/internal/obs"
)

func TestMain(m *testing.M) {
	logw = io.Discard
	os.Exit(m.Run())
}

func TestNearestRank(t *testing.T) {
	var d []float64
	for i := 1; i <= 100; i++ {
		d = append(d, float64(i))
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := nearestRank(d, c.q); got != c.want {
			t.Errorf("nearestRank(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := nearestRank([]float64{7}, 0.99); got != 7 {
		t.Errorf("one sample: got %v", got)
	}
	if got := nearestRank(nil, 0.5); got != 0 {
		t.Errorf("empty: got %v", got)
	}
}

func TestBeyondRankRule(t *testing.T) {
	for _, c := range []struct{ n, want int }{{1260, 12}, {1000, 10}, {999, 9}, {100, 1}, {63, 0}} {
		if got := beyondRank(c.n, 0.99); got != c.want {
			t.Errorf("beyondRank(%d, 0.99) = %d, want %d", c.n, got, c.want)
		}
	}
	// A default-length run of every service workload pools enough
	// samples for its tail percentile to have ten samples beyond it.
	for _, w := range workloads {
		if w.via == viaRunner {
			continue
		}
		n := w.timedPasses(defaultConfig().seconds) * w.reps * len(w.distinctCells())
		if b := beyondRank(n, tailQ); b < minBeyond {
			t.Errorf("%s: %d samples leave %d beyond p98, want >= %d", w.name, n, b, minBeyond)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from statistics.quantiles(data, n=4).
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{10, 20, 30}, [3]float64{10, 20, 30}},
	} {
		q1, med, q3 := quartiles(c.data)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
		}
	}
}

func TestToReference(t *testing.T) {
	f := hostFactor([]time.Duration{2 * calibRef, 3 * calibRef, 2 * calibRef})
	if f != 2 {
		t.Fatalf("host factor %v, want 2 (median calibration over calibRef)", f)
	}
	vals := map[string]float64{
		"lat_p50_ms": 10, "setup_s": 4, "req_per_s": 50, "peak_rss_mb": 100,
		"sim.mcycles_per_s.sst": 30, "share.sim": 0.9, "obs.trace_overhead_pct": 3,
	}
	toReference(append(append([]metricSpec(nil), endToEnd...), perLayer()...), vals, f)
	want := map[string]float64{
		"lat_p50_ms": 5, "setup_s": 2, "req_per_s": 100, "peak_rss_mb": 100,
		"sim.mcycles_per_s.sst": 60, "share.sim": 0.9, "obs.trace_overhead_pct": 3,
	}
	if !reflect.DeepEqual(vals, want) {
		t.Errorf("rescaled %v, want %v", vals, want)
	}
}

func span(id, parent uint64, name string, start, dur int64, attrs ...string) obs.SpanSnap {
	s := obs.SpanSnap{ID: id, Parent: parent, Name: name, StartUs: start, DurUs: dur}
	for i := 0; i+1 < len(attrs); i += 2 {
		s.Attrs = append(s.Attrs, obs.Attr{Key: attrs[i], Value: attrs[i+1]})
	}
	return s
}

// missTree is a cache miss as the daemon records it, in µs.
var missTree = []obs.SpanSnap{
	span(1, 0, "request", 0, 1000),
	span(2, 1, "admission", 5, 10),
	span(3, 1, "queue-wait", 100, 20),
	span(4, 1, "cache-lookup", 200, 5, "hit", "false"),
	span(5, 1, "compute", 205, 700, "kind", "sst"),
	span(6, 5, "sim-run", 250, 600, "kind", "sst", "cycles", "1200000"),
	span(7, 1, "assemble", 910, 50),
}

// hitTree is a cache hit: no compute, no sim-run.
var hitTree = []obs.SpanSnap{
	span(1, 0, "request", 0, 500),
	span(2, 1, "admission", 2, 3),
	span(3, 1, "queue-wait", 50, 10),
	span(4, 1, "cache-lookup", 150, 4, "hit", "true"),
	span(5, 1, "assemble", 160, 40),
}

func near(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }

func TestParseTreeMiss(t *testing.T) {
	tr, err := parseTree(missTree)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"decodeBuild", tr.decodeBuild, 0.085}, // queue-wait 100 - admission end 15
		{"cacheKey", tr.cacheKey, 0.080},       // cache-lookup 200 - queue-wait end 120
		{"requestSelf", tr.requestSelf, 0.215}, // 1000 - (10+20+5+700+50)
		{"computeSelf", tr.computeSelf, 0.100}, // 700 - 600
		{"simRun", tr.simRun, 0.600},
		{"assemble", tr.assemble, 0.050},
	} {
		if !near(c.got, c.want) {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if !tr.computed || tr.simKind != "sst" || tr.cycles != 1200000 {
		t.Errorf("compute fields: %+v", tr)
	}
	h, s, e, m := tr.layerTimes(1.2)
	if !near(h, 0.2) || !near(s, 0.195) || !near(e, 0.205) || !near(m, 0.6) {
		t.Errorf("layerTimes(1.2) = %v %v %v %v", h, s, e, m)
	}
}

func TestParseTreeHit(t *testing.T) {
	tr, err := parseTree(hitTree)
	if err != nil {
		t.Fatal(err)
	}
	if tr.computed || tr.simRun != 0 || tr.simKind != "" {
		t.Errorf("hit tree has compute: %+v", tr)
	}
	if !near(tr.decodeBuild, 0.045) || !near(tr.cacheKey, 0.090) || !near(tr.requestSelf, 0.443) {
		t.Errorf("hit gaps: decodeBuild %v cacheKey %v requestSelf %v", tr.decodeBuild, tr.cacheKey, tr.requestSelf)
	}
	if _, err := parseTree(hitTree[:2]); err == nil {
		t.Error("tree without queue-wait parsed")
	}
	if _, err := parseTree(hitTree[1:]); err == nil {
		t.Error("tree without request parsed")
	}
}

func TestServiceLayers(t *testing.T) {
	miss, _ := parseTree(missTree)
	hit, _ := parseTree(hitTree)
	m := serviceLayers([]float64{1.2, 0.7}, []reqTree{miss, hit})
	sum := m["share.http"] + m["share.serve"] + m["share.experiments"] + m["share.sim"]
	if !near(sum, 1) {
		t.Errorf("shares sum to %v", sum)
	}
	if !near(m["share.sim"], 0.6/1.9) {
		t.Errorf("share.sim = %v", m["share.sim"])
	}
	// 1.2M cycles in 0.6 ms is 2000 Mcycle/s.
	if !near(m["sim.mcycles_per_s.sst"], 2000) {
		t.Errorf("sst Mcycle/s = %v", m["sim.mcycles_per_s.sst"])
	}
	if !near(m["experiments.compute_self_ms"], 0.1) || !near(m["sim.run_ms.p50"], 0.6) {
		t.Errorf("compute self %v, sim run %v: only the miss computes", m["experiments.compute_self_ms"], m["sim.run_ms.p50"])
	}
}

func TestCovered(t *testing.T) {
	got := covered([]obs.SpanSnap{span(1, 0, "a", 0, 10), span(2, 0, "b", 5, 10), span(3, 0, "c", 30, 5), span(4, 0, "d", 31, 1)})
	if got != 20 {
		t.Errorf("covered = %d, want 20", got)
	}
}

func TestSequenceSeeded(t *testing.T) {
	for _, w := range workloads {
		if w.via == viaRunner {
			continue
		}
		a, b := w.sequence(1, w.reps), w.sequence(1, w.reps)
		if !slices.Equal(a, b) {
			t.Errorf("%s: seed 1 gave two orders", w.name)
		}
		c := w.sequence(2, w.reps)
		if slices.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same order", w.name)
		}
		if len(a) != w.reps*len(w.distinctCells()) {
			t.Errorf("%s: %d requests", w.name, len(a))
		}
		byKey := func(s []cell) []string {
			var k []string
			for _, c := range s {
				k = append(k, c.key())
			}
			slices.Sort(k)
			return k
		}
		if !slices.Equal(byKey(a), byKey(c)) {
			t.Errorf("%s: seed 2 is not a permutation of seed 1", w.name)
		}
	}
}

// TestRunKeysDistinct: every request a run-* run sends — warm-up, timed
// passes, traced pass — carries its own max_cycles, so none is a cache
// hit; gate-hit requests all carry the default, so they hit.
func TestRunKeysDistinct(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if w.via == viaRunner {
			continue
		}
		e := &env{w: w}
		seen := map[string]bool{}
		seqs := [][]cell{w.distinctCells(), w.sequence(1, w.reps), w.sequence(1, w.reps), w.sequence(1, w.reps), w.sequence(1, w.reps)}
		for _, seq := range seqs {
			for j, mc := range e.nextMaxCycles(len(seq)) {
				if !w.unique {
					if mc != 0 {
						t.Fatalf("%s: request carries max_cycles %d", w.name, mc)
					}
					continue
				}
				k, _ := json.Marshal(seq[j].request(mc))
				if seen[string(k)] {
					t.Fatalf("%s: request %s sent twice", w.name, k)
				}
				seen[string(k)] = true
			}
		}
	}
}

func TestGoldenMismatch(t *testing.T) {
	body := []byte(`{"kind":"sst","cycles":12345}`)
	g := &golden{Run: map[string]string{"sst/chase": digest(body)}}
	if err := g.checkRun("sst/chase", body); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), body...)
	bad[len(bad)-3]++
	if err := g.checkRun("sst/chase", bad); err == nil {
		t.Error("one-byte change passed the golden check")
	}
	if err := g.checkRun("sst/oltp", body); err == nil {
		t.Error("cell without a golden digest passed")
	}
}

func TestGoldenCoversEveryOutput(t *testing.T) {
	g, err := loadGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range goldenCells() {
		if g.Run[c.key()] == "" {
			t.Errorf("no golden digest for %s", c.key())
		}
	}
	for _, id := range gridExps() {
		if g.Grid[id] == "" {
			t.Errorf("no golden digest for experiment %s", id)
		}
	}
}

// TestMiniatureWorkloads runs each workload through the real layers at
// one request per cell, checks zero failures and every metric, and
// lints the traced pass's Chrome trace with cmd/tracelint.
func TestMiniatureWorkloads(t *testing.T) {
	gold, err := loadGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{seed: 7, setups: 1, timed: true, traced: true,
				reps: 1, exps: []string{"T1", "F8", "F16"}, hopReps: 1,
				traceOut: filepath.Join(dir, w.name+".json")}
			res, err := runWorkload(w, gold, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%d of %d ops failed: %v", res.Failed, res.Attempted, res.Errors)
			}
			for _, s := range endToEnd {
				if v := res.EndToEnd[s.Name]; !(v > 0) {
					t.Errorf("%s = %v", s.Name, v)
				}
			}
			var got []string
			for name := range res.PerLayer {
				got = append(got, name)
			}
			var want []string
			for _, s := range perLayer() {
				want = append(want, s.Name)
			}
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Errorf("per-layer metrics %v, want %v", got, want)
			}
			l := res.PerLayer
			switch w.via {
			case viaGate:
				if l["sim.run_ms.p50"] != 0 || l["share.sim"] != 0 {
					t.Errorf("gate-hit simulated: sim.run_ms.p50 %v share.sim %v", l["sim.run_ms.p50"], l["share.sim"])
				}
				if l["experiments.cache_hit_ratio"] != 1 {
					t.Errorf("gate-hit cache hit ratio %v", l["experiments.cache_hit_ratio"])
				}
			case viaDaemon:
				if l["sim.run_ms.p50"] <= 0 || l["experiments.cache_hit_ratio"] != 0 {
					t.Errorf("%s: sim.run_ms.p50 %v, cache hit ratio %v", w.name, l["sim.run_ms.p50"], l["experiments.cache_hit_ratio"])
				}
			case viaRunner:
				if l["grid.exp_s.F8"] <= 0 || l["share.sim"] != 0 {
					t.Errorf("grid: F8 %vs, share.sim %v", l["grid.exp_s.F8"], l["share.sim"])
				}
			}
			if w.via != viaRunner {
				sum := l["share.http"] + l["share.serve"] + l["share.experiments"] + l["share.sim"]
				if sum < 0.999 || sum > 1.001 {
					t.Errorf("shares sum to %v", sum)
				}
			}
			checkNesting(t, cfg.traceOut, w.via != viaRunner)
			lint := exec.Command("go", "run", "rocksim/cmd/tracelint", "-trace", cfg.traceOut)
			if out, err := lint.CombinedOutput(); err != nil {
				t.Errorf("tracelint: %v\n%s", err, out)
			}
		})
	}
}

// checkNesting verifies that every daemon request span in the Chrome
// trace lies inside a client-run span on the same lane.
func checkNesting(t *testing.T, path string, wantDaemon bool) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var clients, requests []chromeEvent
	for _, ev := range doc.TraceEvents {
		switch ev.Name {
		case "client-run":
			clients = append(clients, ev)
		case "request":
			requests = append(requests, ev)
		}
	}
	if wantDaemon && (len(requests) == 0 || len(requests) != len(clients)) {
		t.Fatalf("%d daemon request spans for %d client spans", len(requests), len(clients))
	}
	for _, r := range requests {
		ok := false
		for _, c := range clients {
			if c.Tid == r.Tid && c.Ts <= r.Ts && r.Ts+r.Dur <= c.Ts+c.Dur {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("daemon request at %d+%d on lane %d is inside no client-run span", r.Ts, r.Dur, r.Tid)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lat := metricSpec{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.05}
	rate := metricSpec{Name: "req_per_s", Unit: "req/s", Better: "higher", Bound: 0.05}
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		m    metricSpec
		next []float64
		want string
	}{
		{lat, []float64{110, 111, 109, 110, 112}, verdictRegression},
		{lat, []float64{100, 100.5, 99.5, 101, 100}, verdictOK},
		{lat, []float64{80, 120, 100, 90, 110}, verdictUnresolved},
		{lat, []float64{90, 91, 89, 90, 92}, verdictBetter},
		{rate, []float64{90, 91, 89, 90, 92}, verdictRegression},
		{rate, []float64{110, 111, 109, 110, 112}, verdictBetter},
		// Wide spread, but every new run is worse than every base run.
		{lat, []float64{130, 150, 170, 140, 160}, verdictRegression},
	} {
		if got := compareMetric(c.m, base, c.next).verdict; got != c.want {
			t.Errorf("%s %v: verdict %s, want %s", c.m.Name, c.next, got, c.want)
		}
	}
}

func TestRunCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, lat ...float64) string {
		var b strings.Builder
		for _, v := range lat {
			r := report{Seed: 1, Results: []*result{{Workload: "gate-hit", EndToEnd: map[string]float64{"lat_p50_ms": v, "req_per_s": 1000 / v}}}}
			out, _ := json.Marshal(r)
			b.Write(out)
			b.WriteByte('\n')
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", 2, 2.01, 1.99)
	var out strings.Builder
	code, err := runCompare(base, write("same.json", 2.005, 1.995, 2), &out)
	if err != nil || code != 0 {
		t.Fatalf("same runs: code %d err %v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "lat_p50_ms") || !strings.Contains(out.String(), "req/s") {
		t.Errorf("output lacks a metric name or unit:\n%s", out.String())
	}
	out.Reset()
	code, err = runCompare(base, write("slow.json", 2.8, 2.81, 2.79), &out)
	if err != nil || code != 1 || !strings.Contains(out.String(), verdictRegression) {
		t.Errorf("slower runs: code %d err %v\n%s", code, err, out.String())
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the workloads and metrics defined here.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside this checkout: %v", err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(doc.Paths, []string{"cmd/rockbench"}) {
		t.Errorf("paths %v", doc.Paths)
	}
	if doc.RunSeconds != int(defaultConfig().seconds) {
		t.Errorf("run_seconds %d, default -seconds %v", doc.RunSeconds, defaultConfig().seconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %+v, want %s: %s", i, w, workloads[i].name, workloads[i].why)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %+v\nwant %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer()) {
		t.Errorf("per_layer %+v\nwant %+v", doc.PerLayer, perLayer())
	}
	seen := map[string]bool{}
	largest := 0.0
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer()...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("bad or repeated metric %+v", m)
		}
		seen[m.Name] = true
		largest = max(largest, m.Bound)
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	for _, m := range endToEnd {
		if m.Name == "setup_s" && m.Bound != largest {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, largest)
		}
	}
}

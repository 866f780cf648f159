package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"rocksim/internal/stats"
)

func TestObsRegistryBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a/b")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("a/b") != c {
		t.Error("Counter not idempotent")
	}
	c.Set(3)
	if c.Value() != 3 {
		t.Errorf("Set: counter = %d, want 3", c.Value())
	}

	g := r.Gauge("g")
	g.Set(7)
	g.Set(2)
	if g.Value() != 2 || g.High() != 7 {
		t.Errorf("gauge = %d high %d, want 2 high 7", g.Value(), g.High())
	}

	h := r.Hist("h", 16)
	h.Add(3)
	h.Add(100) // clamps
	if r.Hist("h", 999) != h {
		t.Error("Hist not idempotent")
	}
	if h.Count() != 2 || h.Max() != 100 {
		t.Errorf("hist count %d max %d", h.Count(), h.Max())
	}

	tl := r.Timeline("t")
	tl.Sample(0, 1)
	tl.Sample(1, 2) // decimated away (default every = 64)
	tl.Sample(64, 3)
	if tl.Len() != 2 {
		t.Errorf("timeline len = %d, want 2", tl.Len())
	}
	if ts := r.Snapshot().Timelines["t"]; len(ts.Cycles) != 2 || ts.Cycles[1] != 64 || ts.Values[1] != 3 {
		t.Errorf("timeline = %+v, want its second point at (64,3)", ts)
	}
}

func TestObsPutHistMerges(t *testing.T) {
	r := NewRegistry()
	a := stats.NewHist(8)
	a.Add(1)
	a.Add(2)
	r.PutHist("x", a)
	b := stats.NewHist(8)
	b.Add(3)
	r.PutHist("x", b)
	snap := r.Snapshot()
	hs, ok := snap.Histograms["x"]
	if !ok {
		t.Fatal("histogram x missing from snapshot")
	}
	if hs.Count != 3 || hs.Max != 3 {
		t.Errorf("merged hist count %d max %d, want 3 and 3", hs.Count, hs.Max)
	}
}

// TestObsMergeConcurrent: the daemon folds every served run's registry
// into one service registry from concurrent handlers, often the same
// cached run's registry many times at once. Merging from several
// goroutines must equal merging serially, and must neither alias nor
// modify the source.
func TestObsMergeConcurrent(t *testing.T) {
	src := NewRegistry()
	src.Counter("c").Add(3)
	src.Gauge("g").Set(9)
	src.Gauge("g").Set(4)
	src.Hist("h", 8).Add(5)
	src.Timeline("t").Sample(0, 7)

	const n = 16
	serial, shared := NewRegistry(), NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		serial.Merge(src)
		wg.Add(1)
		go func() {
			defer wg.Done()
			shared.Merge(src)
		}()
	}
	wg.Wait()

	var want, got bytes.Buffer
	if err := serial.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if err := shared.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("concurrent merge differs from serial:\n%s\nvs\n%s", got.Bytes(), want.Bytes())
	}
	snap := shared.Snapshot()
	if snap.Counters["c"] != 3*n || snap.Gauges["g"] != (GaugeSnap{Value: 4, High: 9}) || snap.Histograms["h"].Count != n {
		t.Errorf("merged snapshot %+v", snap)
	}
	if h := src.Hist("h", 8); h.Count() != 1 || shared.Hist("h", 8) == h {
		t.Errorf("merge modified or aliased the source histogram (count %d)", h.Count())
	}
}

func TestObsSnapshotJSONDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		// Insert in different orders to prove output ordering is by key.
		for _, n := range []string{"z", "a", "m"} {
			r.Counter(n).Add(uint64(len(n)))
		}
		r.Gauge("g").Set(1)
		r.Hist("h", 4).Add(2)
		r.Timeline("t").Sample(0, 9)
		return r
	}
	var b1, b2 bytes.Buffer
	if err := build().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("two identical registries marshal to different JSON")
	}
	if !strings.Contains(b1.String(), `"a": 1`) {
		t.Errorf("unexpected JSON:\n%s", b1.String())
	}
}

func TestObsWriteProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("core/cycles").Set(42)
	r.Gauge("core/dq_highwater").Set(7)
	r.Hist("mem/load_miss_latency", 64).Add(10)
	var b bytes.Buffer
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE rocksim_core_cycles counter",
		"rocksim_core_cycles 42",
		"rocksim_core_dq_highwater_high 7",
		`rocksim_mem_load_miss_latency{quantile="0.5"} 10`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
}

// stubSink records calls, for Tee tests.
type stubSink struct{ events int }

func (s *stubSink) Attach(string, []string)                    {}
func (s *stubSink) CycleState(uint64, string, int, int, []int) {}
func (s *stubSink) Event(uint64, string, string, string)       { s.events++ }
func (s *stubSink) SpanBegin(uint64, string, string, uint64)   {}
func (s *stubSink) SpanEnd(uint64, string, uint64)             {}
func (s *stubSink) Span(uint64, uint64, string, string)        {}

func TestObsTee(t *testing.T) {
	if Tee(nil, nil) != nil {
		t.Error("Tee of nils should be nil")
	}
	a := &stubSink{}
	if Tee(nil, a) != Sink(a) {
		t.Error("Tee of one sink should be that sink")
	}
	b := &stubSink{}
	tt := Tee(a, nil, b)
	tt.Event(0, "c", "n", "")
	if a.events != 1 || b.events != 1 {
		t.Errorf("tee fan-out: a=%d b=%d, want 1 and 1", a.events, b.events)
	}
}

func TestObsCollectorModeSpans(t *testing.T) {
	tr := NewTrace()
	r := NewRegistry()
	r.SetSampleEvery(1)
	col := NewCollector(tr, r)
	col.Attach("sst", []string{"dq"})
	occ := []int{3}
	col.CycleState(0, "normal", 1, 0, occ)
	col.CycleState(1, "normal", 1, 0, occ)
	col.CycleState(2, "spec", 0, 1, occ)
	col.CycleState(3, "normal", 1, 0, occ)
	col.Flush(4)

	var b bytes.Buffer
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Three mode spans: normal [0,2), spec [2,3), normal [3,4).
	if got := strings.Count(out, `"ph":"B"`); got != 3 {
		t.Errorf("span begins = %d, want 3:\n%s", got, out)
	}
	// Occupancy flows into both the registry timeline and counter tracks.
	if tl := r.Timeline("sst/occ/dq"); tl.Len() != 4 {
		t.Errorf("timeline samples = %d, want 4", tl.Len())
	}
	if got := strings.Count(out, `"ph":"C"`); got != 4 {
		t.Errorf("counter samples = %d, want 4", got)
	}
}

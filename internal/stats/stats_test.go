package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistBasics(t *testing.T) {
	h := NewHist(8)
	for _, v := range []int{0, 1, 1, 2, 3, 20, -5} {
		h.Add(v)
	}
	if h.Count() != 7 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Max() != 20 {
		t.Errorf("max = %d", h.Max())
	}
	want := float64(0+1+1+2+3+20+0) / 7
	if math.Abs(h.Mean()-want) > 1e-9 {
		t.Errorf("mean = %f, want %f", h.Mean(), want)
	}
}

func TestHistQuantile(t *testing.T) {
	h := NewHist(100)
	for v := 1; v <= 100; v++ {
		h.Add(v)
	}
	if q := h.Quantile(0.5); q < 49 || q > 52 {
		t.Errorf("p50 = %d", q)
	}
	if q := h.Quantile(0.99); q < 98 {
		t.Errorf("p99 = %d", q)
	}
	if q := h.Quantile(0); q != 1 {
		t.Errorf("p0 = %d", q)
	}
	empty := NewHist(4)
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty hist not zero")
	}
}

// TestHistQuantileBoundaries pins the nearest-rank definition at the
// small-n boundary cases that the original implementation got wrong:
// with two observations, the median is the FIRST (rank ceil(0.5*2)=1),
// not the second.
func TestHistQuantileBoundaries(t *testing.T) {
	one := NewHist(10)
	one.Add(7)
	for _, q := range []float64{0, 0.5, 1} {
		if got := one.Quantile(q); got != 7 {
			t.Errorf("n=1 Quantile(%g) = %d, want 7", q, got)
		}
	}

	two := NewHist(10)
	two.Add(3)
	two.Add(9)
	cases := []struct {
		q    float64
		want int
	}{
		{0, 3},   // rank clamps up to 1
		{0.5, 3}, // ceil(0.5*2) = 1 -> first observation
		{0.51, 9},
		{1, 9}, // rank n -> last observation
	}
	for _, c := range cases {
		if got := two.Quantile(c.q); got != c.want {
			t.Errorf("n=2 Quantile(%g) = %d, want %d", c.q, got, c.want)
		}
	}

	// Exact ranks must not be perturbed by binary-float error in q*n:
	// 0.95*20 = 19.000000000000004 in float64, rank must stay 19.
	twenty := NewHist(30)
	for v := 1; v <= 20; v++ {
		twenty.Add(v)
	}
	if got := twenty.Quantile(0.95); got != 19 {
		t.Errorf("n=20 Quantile(0.95) = %d, want 19", got)
	}
}

func TestHistClone(t *testing.T) {
	h := NewHist(8)
	h.Add(2)
	h.Add(5)
	c := h.Clone()
	h.Add(7)
	if c.Count() != 2 || c.Max() != 5 {
		t.Errorf("clone mutated: count=%d max=%d", c.Count(), c.Max())
	}
	if h.Count() != 3 {
		t.Errorf("original count = %d", h.Count())
	}
}

// TestHistMeanProperty: the histogram mean matches a direct average for
// any in-range sample set.
func TestHistMeanProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		h := NewHist(255)
		sum := 0
		for _, v := range vals {
			h.Add(int(v))
			sum += int(v)
		}
		if len(vals) == 0 {
			return h.Mean() == 0
		}
		return math.Abs(h.Mean()-float64(sum)/float64(len(vals))) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := NewTable("demo", "name", "value")
	tbl.AddRow("alpha", 1.5)
	tbl.AddRow("b", 123456)
	var sb strings.Builder
	tbl.Fprint(&sb)
	out := sb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "1.500") {
		t.Errorf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
	if tbl.NumRows() != 2 || len(tbl.Rows()) != 2 {
		t.Error("row accessors wrong")
	}
}

func TestRatioPct(t *testing.T) {
	if Ratio(1, 0) != 0 || Pct(1, 0) != 0 {
		t.Error("division by zero not guarded")
	}
	if Ratio(1, 4) != 0.25 || Pct(1, 4) != 25 {
		t.Error("ratio wrong")
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Errorf("geomean = %f", g)
	}
	if g := GeoMean([]float64{1, 1, 1}); math.Abs(g-1) > 1e-9 {
		t.Errorf("geomean = %f", g)
	}
	// Zeros and negatives are skipped.
	if g := GeoMean([]float64{0, -3, 9}); math.Abs(g-9) > 1e-9 {
		t.Errorf("geomean = %f", g)
	}
	if GeoMean(nil) != 0 {
		t.Error("empty geomean")
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	ks := SortedKeys(m)
	if len(ks) != 3 || ks[0] != "a" || ks[2] != "c" {
		t.Errorf("keys = %v", ks)
	}
}

func TestHistMerge(t *testing.T) {
	a := NewHist(10)
	for _, v := range []int{1, 2, 3} {
		a.Add(v)
	}
	b := NewHist(10)
	for _, v := range []int{4, 5} {
		b.Add(v)
	}
	a.Merge(b)
	if a.Count() != 5 {
		t.Errorf("count = %d, want 5", a.Count())
	}
	if got := a.Mean(); got != 3 {
		t.Errorf("mean = %g, want 3", got)
	}
	if a.Max() != 5 {
		t.Errorf("max = %d, want 5", a.Max())
	}
	if got := a.Quantile(0.5); got != 3 {
		t.Errorf("p50 = %d, want 3", got)
	}

	// Merging a wider histogram clamps its tail into the overflow bucket
	// but preserves counts, sum and max exactly.
	narrow := NewHist(4)
	narrow.Add(1)
	wide := NewHist(100)
	wide.Add(50)
	wide.Add(80)
	narrow.Merge(wide)
	if narrow.Count() != 3 {
		t.Errorf("clamped count = %d, want 3", narrow.Count())
	}
	if narrow.Max() != 80 {
		t.Errorf("clamped max = %d, want 80", narrow.Max())
	}
	if got := narrow.Mean(); got != (1+50+80)/3.0 {
		t.Errorf("clamped mean = %g, want %g", got, (1+50+80)/3.0)
	}
	if got := narrow.Quantile(0.99); got != 4 {
		t.Errorf("clamped p99 = %d, want overflow bucket 4", got)
	}

	// A source holding a value beyond its own limit keeps it in its
	// overflow bucket; merging into a wider histogram moves it there.
	clamped := NewHist(4)
	clamped.Add(2)
	clamped.Add(9)
	roomy := NewHist(16)
	roomy.Merge(clamped)
	if roomy.Count() != 2 || roomy.Max() != 9 || roomy.Mean() != 5.5 {
		t.Errorf("merged clamped hist: count %d max %d mean %g, want 2, 9, 5.5",
			roomy.Count(), roomy.Max(), roomy.Mean())
	}
	if lo, hi := roomy.Quantile(0.5), roomy.Quantile(1); lo != 2 || hi != 4 {
		t.Errorf("merged clamped hist: p50 %d p100 %d, want 2 and source overflow bucket 4", lo, hi)
	}

	// nil and empty merges are no-ops.
	before := narrow.Count()
	narrow.Merge(nil)
	narrow.Merge(NewHist(8))
	if narrow.Count() != before {
		t.Errorf("no-op merge changed count: %d -> %d", before, narrow.Count())
	}
}

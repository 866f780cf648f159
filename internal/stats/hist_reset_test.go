package stats

import (
	"reflect"
	"testing"
)

// fill loads a histogram with a fixed mix of in-range, boundary and
// overflowing observations.
func fill(h *Hist) {
	h.Add(0)
	h.Add(3)
	h.AddN(7, 4)
	h.Add(9999) // clamps into the overflow bucket, max stays exact
}

// histEqual compares every observable surface of two histograms.
func histEqual(t *testing.T, label string, got, want *Hist) {
	t.Helper()
	if got.Count() != want.Count() {
		t.Errorf("%s: Count = %d, want %d", label, got.Count(), want.Count())
	}
	if got.Mean() != want.Mean() {
		t.Errorf("%s: Mean = %v, want %v", label, got.Mean(), want.Mean())
	}
	if got.Max() != want.Max() {
		t.Errorf("%s: Max = %d, want %d", label, got.Max(), want.Max())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.95, 1} {
		if got.Quantile(q) != want.Quantile(q) {
			t.Errorf("%s: Quantile(%v) = %d, want %d", label, q, got.Quantile(q), want.Quantile(q))
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: internal state differs: got %+v, want %+v", label, got, want)
	}
}

// TestHistResetIndistinguishableFromFresh proves the pool-path contract:
// after Reset, a used histogram behaves exactly like a fresh one — empty
// reads, then identical behaviour when refilled, including Merge in both
// directions.
func TestHistResetIndistinguishableFromFresh(t *testing.T) {
	used := NewHist(16)
	fill(used)
	used.Reset()
	histEqual(t, "after reset", used, NewHist(16))

	if used.Count() != 0 || used.Mean() != 0 || used.Max() != 0 {
		t.Errorf("reset hist not empty: n=%d mean=%v max=%d", used.Count(), used.Mean(), used.Max())
	}
	if q := used.Quantile(0.5); q != 0 {
		t.Errorf("reset hist Quantile(0.5) = %d, want 0", q)
	}

	// Refill and compare against a genuinely fresh histogram.
	fresh := NewHist(16)
	fill(used)
	fill(fresh)
	histEqual(t, "refilled", used, fresh)

	// Merge into a reset histogram == merge into a fresh one.
	src := NewHist(16)
	src.AddN(5, 3)
	mergedReset := NewHist(16)
	fill(mergedReset)
	mergedReset.Reset()
	mergedReset.Merge(src)
	mergedFresh := NewHist(16)
	mergedFresh.Merge(src)
	histEqual(t, "merge after reset", mergedReset, mergedFresh)

	// Merging a reset histogram into another is a no-op.
	dst := NewHist(16)
	fill(dst)
	want := NewHist(16)
	fill(want)
	empty := NewHist(16)
	fill(empty)
	empty.Reset()
	dst.Merge(empty)
	histEqual(t, "merge of reset hist", dst, want)
}

// TestHistResetKeepsAllocation pins the reason Reset exists: the bucket
// slice must be cleared in place, never reallocated.
func TestHistResetKeepsAllocation(t *testing.T) {
	h := NewHist(64)
	fill(h)
	before := &h.buckets[0]
	h.Reset()
	if &h.buckets[0] != before {
		t.Fatalf("Reset reallocated the bucket slice")
	}
	if allocs := testing.AllocsPerRun(100, h.Reset); allocs != 0 {
		t.Fatalf("Reset allocates %v times per call, want 0", allocs)
	}
}

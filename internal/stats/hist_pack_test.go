package stats

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
)

// histSample is a histogram's construction limit and observations, so a
// test can rebuild the same live histogram as often as it needs.
type histSample struct {
	limit int
	vals  []int
}

func (s histSample) build() *Hist {
	h := NewHist(s.limit)
	for i, v := range s.vals {
		if i%5 == 4 {
			h.AddN(v, uint64(i%3))
		} else {
			h.Add(v)
		}
	}
	return h
}

// randSample draws a limit from 1 to a few thousand and observations
// clustered in a random window, which may start beyond the limit (only
// the overflow bucket fills, as checkpoint lifetimes do on a pointer
// chase), reach below zero or be empty.
func randSample(rng *rand.Rand) histSample {
	s := histSample{limit: 1 + rng.Intn(64)}
	if rng.Intn(3) == 0 {
		s.limit = 1 + rng.Intn(4096)
	}
	lo := rng.Intn(2*s.limit+2) - 2
	span := 1 + rng.Intn(s.limit+1)
	for n := rng.Intn(40); n > 0; n-- {
		s.vals = append(s.vals, lo+rng.Intn(span))
	}
	return s
}

// sameHist fails unless got answers every read exactly as want does:
// Count, Mean, Max, quantiles and the JSON bytes.
func sameHist(t *testing.T, label string, got, want *Hist) {
	t.Helper()
	if got.Count() != want.Count() || got.Mean() != want.Mean() || got.Max() != want.Max() {
		t.Fatalf("%s: (n=%d mean=%v max=%d), want (n=%d mean=%v max=%d)", label,
			got.Count(), got.Mean(), got.Max(), want.Count(), want.Mean(), want.Max())
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
		if g, w := got.Quantile(q), want.Quantile(q); g != w {
			t.Fatalf("%s: Quantile(%v) = %d, want %d", label, q, g, w)
		}
	}
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(gj) != string(wj) {
		t.Fatalf("%s: JSON\n%s\nwant\n%s", label, gj, wj)
	}
}

// TestHistPackedCloneProperty: a packed clone answers exactly as the
// full histogram it came from, over random limits and observations,
// and so does every merge involving one — a packed source into live
// receivers of other widths, live or packed sources into a packed
// receiver — and a packed histogram after Reset.
func TestHistPackedCloneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 500; trial++ {
		s, o := randSample(rng), randSample(rng)
		packed := s.build().Clone()
		sameHist(t, "clone", packed, s.build())
		if again := packed.Clone(); !reflect.DeepEqual(again, packed) {
			t.Fatalf("clone of a packed clone differs: %+v vs %+v", again, packed)
		}

		// Packed source into a live receiver of another width.
		got, want := o.build(), o.build()
		got.Merge(packed)
		want.Merge(s.build())
		sameHist(t, "packed into live", got, want)

		// Live and packed sources into a packed receiver, which then
		// takes Add like a live histogram.
		for _, src := range []*Hist{o.build(), o.build().Clone()} {
			got, want := s.build().Clone(), s.build()
			got.Merge(src)
			want.Merge(o.build())
			sameHist(t, "into packed", got, want)
			v := rng.Intn(2*s.limit + 1)
			got.Add(v)
			want.Add(v)
			sameHist(t, "add after merge", got, want)
		}

		// Reset makes a packed histogram a fresh live one.
		reset := s.build().Clone()
		reset.Reset()
		if fresh := NewHist(s.limit); !reflect.DeepEqual(reset, fresh) {
			t.Fatalf("reset packed hist %+v, want fresh %+v", reset, fresh)
		}
		for _, v := range o.vals {
			reset.Add(v)
		}
		want = NewHist(s.limit)
		for _, v := range o.vals {
			want.Add(v)
		}
		sameHist(t, "refilled after reset", reset, want)
	}
}

// TestHistCloneKeepsWindow pins what a snapshot costs: the buckets from
// the lowest to the highest non-zero one, so none for an empty
// histogram and one for a histogram that only overflowed.
func TestHistCloneKeepsWindow(t *testing.T) {
	for _, tc := range []struct {
		name string
		fill func(h *Hist)
		want int
	}{
		{"empty", func(*Hist) {}, 0},
		{"overflow only", func(h *Hist) { h.AddN(9000, 3) }, 1},
		{"window", func(h *Hist) { h.Add(40); h.Add(300); h.Add(41) }, 261},
	} {
		h := NewHist(4096)
		tc.fill(h)
		c := h.Clone()
		if len(c.buckets) != tc.want {
			t.Errorf("%s: clone keeps %d buckets, want %d", tc.name, len(c.buckets), tc.want)
		}
		sameHist(t, tc.name, c, h)
	}
}

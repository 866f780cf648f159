// Package stats provides the counters, histograms and table formatting
// used by the core models and the experiment harness.
package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Hist is a histogram over small non-negative integer values (queue
// occupancies, burst lengths). Values beyond the configured maximum are
// clamped into the overflow bucket.
//
// A live histogram (NewHist) holds every bucket 0..limit. A snapshot
// (Clone) is packed: it keeps only the window of buckets from the lowest
// to the highest non-zero one, starting at bucket off, plus the
// construction limit, and answers every read, Merge and MarshalJSON
// exactly as the full copy would. Add and AddN are for live histograms
// only; Merge, Reset and Widen make a packed receiver live first.
type Hist struct {
	buckets []uint64
	n       uint64
	sum     uint64
	max     int // largest observed value (pre-clamp)
	// off and limit are set on a packed snapshot only: buckets holds
	// bucket off onwards of a histogram built with limit (>= 1). A live
	// histogram has limit 0 and buckets 0..len(buckets)-1.
	off, limit int
}

// NewHist returns a histogram tracking values 0..limit (limit clamps).
func NewHist(limit int) *Hist {
	if limit < 1 {
		limit = 1
	}
	return &Hist{buckets: make([]uint64, limit+1)}
}

// Add records one observation.
func (h *Hist) Add(v int) {
	if v < 0 {
		v = 0
	}
	if v > h.max {
		h.max = v
	}
	h.sum += uint64(v)
	h.n++
	if v >= len(h.buckets) {
		v = len(h.buckets) - 1
	}
	h.buckets[v]++
}

// AddN records n identical observations of v, exactly as n Add(v) calls
// would. Used by the fast-forward path to bulk-credit a run of stalled
// cycles whose occupancies are constant.
func (h *Hist) AddN(v int, n uint64) {
	if n == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	if v > h.max {
		h.max = v
	}
	h.sum += uint64(v) * n
	h.n += n
	if v >= len(h.buckets) {
		v = len(h.buckets) - 1
	}
	h.buckets[v] += n
}

// Count returns the number of observations.
func (h *Hist) Count() uint64 { return h.n }

// Mean returns the average observation (0 with no samples).
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Max returns the largest observed value.
func (h *Hist) Max() int { return h.max }

// top returns the overflow bucket: the construction limit.
func (h *Hist) top() int {
	if h.limit != 0 {
		return h.limit
	}
	return len(h.buckets) - 1
}

// window returns the first bucket that can hold a count and the
// buckets from there up to the last that can: the observed max (or the
// overflow bucket) bounds a live histogram, and a snapshot holds
// exactly its non-zero window.
func (h *Hist) window() (off int, buckets []uint64) {
	if h.limit != 0 {
		return h.off, h.buckets
	}
	return 0, h.buckets[:min(h.max, len(h.buckets)-1)+1]
}

// Widen makes a packed snapshot live again, at its full construction
// width, so that Add may be called on it. A live histogram is left as
// it is.
func (h *Hist) Widen() {
	if h.limit == 0 {
		return
	}
	b := make([]uint64, h.limit+1)
	copy(b[h.off:], h.buckets)
	h.buckets, h.off, h.limit = b, 0, 0
}

// Merge folds other's observations into h. Buckets beyond h's limit
// clamp into h's overflow bucket (consistent with Add), so merging a
// wider histogram into a narrower one loses only tail resolution, never
// counts. The observed max and the exact sum are preserved. Only
// other's window of buckets can hold counts, so the walk covers just
// that. A packed receiver is widened first.
func (h *Hist) Merge(other *Hist) {
	h.Widen()
	if other == nil || other.n == 0 {
		return
	}
	off, buckets := other.window()
	for i, cnt := range buckets {
		if cnt == 0 {
			continue
		}
		b := off + i
		if b >= len(h.buckets) {
			b = len(h.buckets) - 1
		}
		h.buckets[b] += cnt
	}
	h.n += other.n
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Reset clears every observation in place — bucket counts, sample
// count, sum and observed max — without reallocating the bucket slice,
// so a pooled simulator can reuse its histograms across runs with zero
// construction cost. A reset histogram is indistinguishable from a
// freshly constructed one with the same limit; a packed snapshot is
// widened first.
func (h *Hist) Reset() {
	h.Widen()
	clear(h.buckets)
	*h = Hist{buckets: h.buckets}
}

// Clone returns an independent, packed copy of the histogram (see
// Hist): only the window of non-zero buckets is copied, so a snapshot
// of a sparsely filled histogram costs a few buckets, not its limit.
func (h *Hist) Clone() *Hist {
	if h.top() < 1 {
		// Not a NewHist shape (an odd decoded vector): copy it whole.
		return &Hist{buckets: append([]uint64(nil), h.buckets...), n: h.n, sum: h.sum, max: h.max}
	}
	off, buckets := h.window()
	lo, hi := 0, len(buckets)
	for lo < hi && buckets[lo] == 0 {
		lo++
	}
	for hi > lo && buckets[hi-1] == 0 {
		hi--
	}
	c := &Hist{n: h.n, sum: h.sum, max: h.max, limit: h.top()}
	if lo < hi {
		c.buckets, c.off = append([]uint64(nil), buckets[lo:hi]...), off+lo
	}
	return c
}

// histJSON is the wire shape of a histogram: the full bucket vector
// plus the derived aggregates, so an unmarshalled histogram answers
// Mean/Max/Quantile/Count exactly like the original. The fleet tier
// ships per-cell statistics (which embed histograms) between shards and
// the rockgate router through this encoding.
type histJSON struct {
	Buckets []uint64 `json:"buckets"`
	N       uint64   `json:"n"`
	Sum     uint64   `json:"sum"`
	Max     int      `json:"max"`
}

// MarshalJSON encodes the histogram losslessly. A packed snapshot
// writes the full bucket vector, exactly as its live source would.
func (h *Hist) MarshalJSON() ([]byte, error) {
	buckets := h.buckets
	if h.limit != 0 {
		buckets = make([]uint64, h.limit+1)
		copy(buckets[h.off:], h.buckets)
	}
	return json.Marshal(histJSON{Buckets: buckets, N: h.n, Sum: h.sum, Max: h.max})
}

// UnmarshalJSON restores a histogram written by MarshalJSON. The result
// is a live histogram, observation-identical to the source: same bucket
// counts, sample count, sum and observed max.
func (h *Hist) UnmarshalJSON(data []byte) error {
	var w histJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if len(w.Buckets) == 0 {
		w.Buckets = make([]uint64, 2)
	}
	*h = Hist{buckets: w.Buckets, n: w.N, sum: w.Sum, max: w.Max}
	return nil
}

// Quantile returns the smallest bucket value v such that at least
// q (0..1) of observations are <= v — the nearest-rank quantile: the
// observation of rank ceil(q*n), clamped to [1, n]. The epsilon
// absorbs binary-float error in q*n (e.g. 0.95*20) so exact ranks stay
// exact.
func (h *Hist) Quantile(q float64) int {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q*float64(h.n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	off, buckets := h.window()
	for i, c := range buckets {
		cum += c
		if cum >= rank {
			return off + i
		}
	}
	return h.top()
}

// Table accumulates rows for aligned text output: the shape in which the
// experiment harness prints each reproduced paper table/figure.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case float32:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows added.
func (t *Table) NumRows() int { return len(t.rows) }

// Rows returns the formatted cells (for tests).
func (t *Table) Rows() [][]string { return t.rows }

// Fprint writes the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		fmt.Fprintln(w, b.String())
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// Ratio returns a/b, or 0 when b is zero.
func Ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Pct returns 100*a/b, or 0 when b is zero.
func Pct(a, b uint64) float64 { return 100 * Ratio(a, b) }

// GeoMean returns the geometric mean of positive values; zero or
// negative entries are skipped.
func GeoMean(vs []float64) float64 {
	sum := 0.0
	n := 0
	for _, v := range vs {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// SortedKeys returns the map's keys in sorted order (for deterministic
// iteration when printing).
func SortedKeys[M ~map[string]V, V any](m M) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

package stats

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// BarChart renders labeled horizontal bars, scaled to the largest value.
// It is how the benchmark harness draws figure-shaped output in a
// terminal.
type BarChart struct {
	Title string
	rows  []barRow
	max   float64
}

type barRow struct {
	label string
	value float64
}

// NewBarChart creates an empty chart.
func NewBarChart(title string) *BarChart {
	return &BarChart{Title: title}
}

// Add appends one bar.
func (c *BarChart) Add(label string, v float64) {
	c.rows = append(c.rows, barRow{label: label, value: v})
	if v > c.max {
		c.max = v
	}
}

// Len returns the number of bars.
func (c *BarChart) Len() int { return len(c.rows) }

// Fprint renders the chart with bars up to width characters.
func (c *BarChart) Fprint(w io.Writer, width int) {
	if width < 8 {
		width = 8
	}
	labelW := 0
	for _, r := range c.rows {
		if len(r.label) > labelW {
			labelW = len(r.label)
		}
	}
	if c.Title != "" {
		fmt.Fprintf(w, "%s\n", c.Title)
	}
	for _, r := range c.rows {
		n := 0
		if c.max > 0 {
			n = int(r.value / c.max * float64(width))
		}
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(w, "%-*s %8.3f %s\n", labelW, r.label, r.value, strings.Repeat("█", n))
	}
}

// ChartsFromTable converts a table into one chart per data row: the
// first column is the group label and every numeric column becomes a
// bar labeled with its header. Non-numeric cells are skipped. Returns
// nil when the table has no numeric columns.
func ChartsFromTable(t *Table) []*BarChart {
	var charts []*BarChart
	for _, row := range t.Rows() {
		if len(row) == 0 {
			continue
		}
		ch := NewBarChart(fmt.Sprintf("%s — %s", t.Title, row[0]))
		for i := 1; i < len(row) && i < len(t.Headers); i++ {
			v, err := strconv.ParseFloat(row[i], 64)
			if err != nil {
				continue
			}
			ch.Add(t.Headers[i], v)
		}
		if ch.Len() > 0 {
			charts = append(charts, ch)
		}
	}
	return charts
}

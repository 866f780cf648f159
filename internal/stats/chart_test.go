package stats

import (
	"strings"
	"testing"
)

func TestBarChartRendering(t *testing.T) {
	c := NewBarChart("speedup")
	c.Add("inorder", 1.0)
	c.Add("sst", 4.0)
	var sb strings.Builder
	c.Fprint(&sb, 40)
	out := sb.String()
	if !strings.Contains(out, "speedup") {
		t.Error("missing title")
	}
	// sst's bar must be 4x the inorder bar.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	inBar := strings.Count(lines[1], "█")
	sstBar := strings.Count(lines[2], "█")
	if sstBar != 40 || inBar != 10 {
		t.Errorf("bars = %d/%d, want 10/40", inBar, sstBar)
	}
}

func TestBarChartZeroAndTinyWidth(t *testing.T) {
	c := NewBarChart("z")
	c.Add("a", 0)
	var sb strings.Builder
	c.Fprint(&sb, 1) // clamped to minimum
	if !strings.Contains(sb.String(), "a") {
		t.Error("zero-value bar missing label")
	}
}

func TestChartsFromTable(t *testing.T) {
	tbl := NewTable("fig", "workload", "inorder", "sst", "notes")
	tbl.AddRow("oltp", 1.0, 4.5, "text")
	tbl.AddRow("jbb", 1.0, 5.2, "text")
	charts := ChartsFromTable(tbl)
	if len(charts) != 2 {
		t.Fatalf("charts = %d", len(charts))
	}
	if charts[0].Len() != 2 { // two numeric columns; "notes" skipped
		t.Errorf("bars = %d, want 2", charts[0].Len())
	}
	var sb strings.Builder
	charts[1].Fprint(&sb, 20)
	if !strings.Contains(sb.String(), "jbb") || !strings.Contains(sb.String(), "sst") {
		t.Errorf("chart output wrong:\n%s", sb.String())
	}
}

func TestChartsFromTableNoNumeric(t *testing.T) {
	tbl := NewTable("t", "a", "b")
	tbl.AddRow("x", "y")
	if charts := ChartsFromTable(tbl); charts != nil {
		t.Errorf("expected nil, got %d charts", len(charts))
	}
}

package rocksim_test

import (
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// quotedExperiments are the EXPERIMENTS.md sections whose figures are
// quoted from results_full.txt and checked here.
var quotedExperiments = []string{"F1", "S1", "B1"}

// TestExperimentsQuoteResults keeps EXPERIMENTS.md's quotes of
// results_full.txt current: every output line quoted under F1, S1 and
// B1 (`note:` lines included) must appear in that experiment's output,
// and every row of the F1 headline table must give the geomean speedup
// of the output's F1 table and, for sst and sst-big, the gain over
// ooo-large that its notes state.
func TestExperimentsQuoteResults(t *testing.T) {
	doc, res := readFile(t, "EXPERIMENTS.md"), readFile(t, "results_full.txt")
	for _, id := range quotedExperiments {
		output := section(res, regexp.MustCompile(`^---- `+id+`:`), "---- ")
		quoted := section(doc, regexp.MustCompile(`^## .*\b`+id+`\b`), "## ")
		if output == "" || quoted == "" {
			t.Fatalf("%s: no output in results_full.txt or no section in EXPERIMENTS.md", id)
		}
		out := lines(output)
		blocks := regexp.MustCompile("(?s)```\n(.*?)```").FindAllStringSubmatch(quoted, -1)
		if len(blocks) == 0 {
			t.Errorf("%s: EXPERIMENTS.md quotes no output block", id)
		}
		for _, b := range blocks {
			for _, l := range strings.Split(b[1], "\n") {
				if l != "" && !out[l] {
					t.Errorf("%s: EXPERIMENTS.md quotes a line results_full.txt lacks:\n%s", id, l)
				}
			}
		}
	}

	f1 := section(res, regexp.MustCompile(`^---- F1:`), "---- ")
	cols := strings.Fields(match(t, f1, `(?m)^workload .*$`))
	geo := strings.Fields(match(t, f1, `(?m)^geomean .*$`))
	gain := map[string]string{
		"sst":     match(t, f1, `note: SST vs larger OOO[^:]*: (\S+%)`),
		"sst-big": match(t, f1, `note: SST-big vs larger OOO: (\S+%)`),
	}
	rows := regexp.MustCompile(`(?m)^\| \**([a-z-]+)\** \| \**([0-9.]+)x(?: \((\S+%) vs ooo-large\))?\**`).
		FindAllStringSubmatch(section(doc, regexp.MustCompile(`^## .*\bF1\b`), "## "), -1)
	if len(rows) != len(cols)-2 || len(cols) != len(geo) {
		t.Fatalf("F1: EXPERIMENTS.md has %d table rows for the %d machines of results_full.txt", len(rows), len(cols)-2)
	}
	for _, r := range rows {
		for i, c := range cols {
			if v, err := strconv.ParseFloat(geo[i], 64); c == r[1] && (err != nil || fmt.Sprintf("%.2f", v) != r[2]) {
				t.Errorf("F1: EXPERIMENTS.md gives %s %sx, results_full.txt %s", c, r[2], geo[i])
			}
		}
		if r[3] != gain[r[1]] {
			t.Errorf("F1: EXPERIMENTS.md gives %s %q over ooo-large, results_full.txt %q", r[1], r[3], gain[r[1]])
		}
	}
}

// match returns the first submatch of re in text, or the whole match
// when re has no group.
func match(t *testing.T, text, re string) string {
	t.Helper()
	m := regexp.MustCompile(re).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("results_full.txt has no line matching %s", re)
	}
	return m[len(m)-1]
}

func readFile(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// section returns the lines from the first line matching start up to
// the next line beginning with next.
func section(text string, start *regexp.Regexp, next string) string {
	var b strings.Builder
	in := false
	for _, l := range strings.Split(text, "\n") {
		switch {
		case start.MatchString(l):
			in = true
		case in && strings.HasPrefix(l, next):
			return b.String()
		}
		if in {
			b.WriteString(l + "\n")
		}
	}
	return b.String()
}

func lines(text string) map[string]bool {
	set := map[string]bool{}
	for _, l := range strings.Split(text, "\n") {
		set[l] = true
	}
	return set
}

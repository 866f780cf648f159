package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// report is what -o writes: one benchmark run of one or more workloads.
type report struct {
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Results []*result `json:"results"`
}

// readReports reads every report in a file. A file may hold several
// reports one after another (cat r1.json r2.json r3.json > base.json).
// It returns the end-to-end values by workload and metric.
func readReports(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	dec := json.NewDecoder(f)
	for {
		var r report
		err := dec.Decode(&r)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		for _, res := range r.Results {
			if out[res.Workload] == nil {
				out[res.Workload] = map[string][]float64{}
			}
			for name, v := range res.EndToEnd {
				out[res.Workload][name] = append(out[res.Workload][name], v)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return out, nil
}

// comparison is one metric on one workload across two sets of runs.
type comparison struct {
	baseQ1, baseMed, baseQ3 float64
	newQ1, newMed, newQ3    float64
	// worse is the change of the median as a share of the base median,
	// positive when the new side is worse.
	worse float64
	// spread is the wider of the two sides' interquartile ranges as a
	// share of their medians.
	spread  float64
	verdict string
}

// Verdicts.
const (
	verdictOK         = "ok"
	verdictBetter     = "better"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// compareMetric applies the bound: a median worse by more than the bound
// is a regression; a spread wider than the bound is unresolved unless
// every new run is better (or worse) than every base run.
func compareMetric(m metricSpec, base, next []float64) comparison {
	var c comparison
	c.baseQ1, c.baseMed, c.baseQ3 = quartiles(base)
	c.newQ1, c.newMed, c.newQ3 = quartiles(next)
	if c.baseMed == 0 || c.newMed == 0 {
		c.verdict = verdictUnresolved
		return c
	}
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	c.worse = sign * (c.newMed - c.baseMed) / c.baseMed
	c.spread = max((c.baseQ3-c.baseQ1)/c.baseMed, (c.newQ3-c.newQ1)/c.newMed)
	allWorse, allBetter := separated(base, next, sign)
	switch {
	case c.worse > m.Bound && (allWorse || c.spread <= m.Bound):
		c.verdict = verdictRegression
	case c.worse < -m.Bound && (allBetter || c.spread <= m.Bound):
		c.verdict = verdictBetter
	case c.spread > m.Bound:
		c.verdict = verdictUnresolved
	default:
		c.verdict = verdictOK
	}
	return c
}

// separated reports whether every new value is worse than every base
// value, or every one better; sign is +1 when lower is better.
func separated(base, next []float64, sign float64) (allWorse, allBetter bool) {
	allWorse, allBetter = true, true
	for _, b := range base {
		for _, n := range next {
			d := sign * (n - b)
			allWorse = allWorse && d > 0
			allBetter = allBetter && d < 0
		}
	}
	return allWorse, allBetter
}

// runCompare prints every end-to-end metric of every workload both
// files hold and returns the exit code: 1 on any regression.
func runCompare(basePath, newPath string, w io.Writer) (int, error) {
	base, err := readReports(basePath)
	if err != nil {
		return 2, err
	}
	next, err := readReports(newPath)
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(w, "%-12s %-12s %-6s %4s %-30s %4s %-30s %8s %6s %7s  %s\n",
		"workload", "metric", "unit", "n", "base median [q1, q3]", "n", "new median [q1, q3]", "worse", "bound", "spread", "verdict")
	code := 0
	for _, wd := range workloads {
		b, n := base[wd.name], next[wd.name]
		if b == nil || n == nil {
			continue
		}
		for _, m := range endToEnd {
			bv, nv := b[m.Name], n[m.Name]
			if len(bv) == 0 || len(nv) == 0 {
				continue
			}
			c := compareMetric(m, bv, nv)
			if c.verdict == verdictRegression {
				code = 1
			}
			fmt.Fprintf(w, "%-12s %-12s %-6s %4d %-30s %4d %-30s %+7.2f%% %5.1f%% %6.2f%%  %s\n",
				wd.name, m.Name, m.Unit,
				len(bv), fmt.Sprintf("%.4g [%.4g, %.4g]", c.baseMed, c.baseQ1, c.baseQ3),
				len(nv), fmt.Sprintf("%.4g [%.4g, %.4g]", c.newMed, c.newQ1, c.newQ3),
				100*c.worse, 100*m.Bound, 100*c.spread, c.verdict)
		}
	}
	return code, nil
}

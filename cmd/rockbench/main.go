// Command rockbench is the repository's benchmark: the end-to-end time
// of what users of rocksim do — a /v1/run request through rocksimd, the
// same request through rockgate, a full test-scale regeneration of the
// experiment grid — and that time split across the layers it crosses.
// See README.md for the metrics, workloads and how to compare runs.
//
//	rockbench -seed 1 -o r.json                 # every workload, each in a child process
//	rockbench -workload gate-hit -trace 0       # one workload; last line: end-to-end metrics
//	rockbench -workload gate-hit -trace 1       # one workload; last line: per-layer metrics
//	rockbench -seed 1 -trace-out t.json         # also write the traced passes as a Chrome trace
//	rockbench -compare base.json new.json       # medians, quartiles and verdicts per bound
//	rockbench -update-golden                    # re-pin the simulated output digests (from cmd/rockbench)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

func main() {
	wl := flag.String("workload", "", "run one workload in this process (run-stall, run-compute, gate-hit, grid); empty runs all, each in a child process")
	seed := flag.Int64("seed", 1, "seed of the request order")
	seconds := flag.Float64("seconds", defaultConfig().seconds, "about the time spent in timed passes per workload; fixes their number")
	trace := flag.Int("trace", 0, "with -workload, what the last output line reports: 0 end-to-end metrics, 1 per-layer metrics")
	full := flag.Bool("full", false, "with -workload, measure and report both metric sets")
	out := flag.String("o", "", "write the report as JSON to this file")
	traceOut := flag.String("trace-out", "", "write the traced pass as a Chrome trace to this file")
	compare := flag.Bool("compare", false, "compare two report files: rockbench -compare base.json new.json")
	update := flag.Bool("update-golden", false, "recompute the golden digests into testdata/golden.json (run from cmd/rockbench)")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two report files"))
		}
		code, err := runCompare(flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		os.Exit(code)
	case *update:
		if err := updateGolden(goldenFile); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "rockbench: wrote %s\n", goldenFile)
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	gold, err := loadGolden(goldenJSON)
	if err != nil {
		fatal(err)
	}
	cfg := defaultConfig()
	cfg.seed, cfg.seconds, cfg.traceOut = *seed, *seconds, *traceOut

	if *wl == "" {
		rep, err := runAll(cfg)
		if err != nil {
			fatal(err)
		}
		printReport(os.Stdout, rep)
		if *out != "" {
			if err := writeJSON(*out, rep); err != nil {
				fatal(err)
			}
		}
		return
	}

	w, err := workloadByName(*wl)
	if err != nil {
		fatal(err)
	}
	cfg.timed = *full || *trace == 0
	cfg.traced = *full || *trace == 1
	if !cfg.timed {
		cfg.setups = 1 // setup_s is not reported
	}
	res, err := runWorkload(w, gold, cfg)
	if err != nil {
		fatal(err)
	}
	rep := &report{Seed: cfg.seed, Seconds: cfg.seconds, Results: []*result{res}}
	printReport(os.Stderr, rep)
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fatal(err)
		}
	}
	var line []byte
	if *full {
		line, err = json.Marshal(res)
	} else {
		line, err = json.Marshal(summaryLine(res, *trace))
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
}

// metricValue is one metric of the summary line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryLine is the one-object last line of a single-workload run:
// the end-to-end metrics with -trace 0, the per-layer ones with -trace 1.
func summaryLine(res *result, trace int) map[string]any {
	specs, vals := endToEnd, res.EndToEnd
	if trace == 1 {
		specs, vals = perLayer(), res.PerLayer
	}
	metrics := map[string]metricValue{}
	for _, s := range specs {
		metrics[s.Name] = metricValue{Value: vals[s.Name], Unit: s.Unit}
	}
	return map[string]any{
		"correct":   res.Correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	}
}

// runAll runs every workload in a child process of its own, so each
// one's peak RSS and heap are its own, and collects their results.
func runAll(cfg runConfig) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	rep := &report{Seed: cfg.seed, Seconds: cfg.seconds}
	var parts []string
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-full",
			"-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64)}
		if cfg.traceOut != "" {
			part := cfg.traceOut + "." + w.name
			parts = append(parts, part)
			args = append(args, "-trace-out", part)
		}
		fmt.Fprintf(os.Stderr, "rockbench: %s ...\n", w.name)
		cmd := exec.Command(self, args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s: %v\n%s", w.name, err, stderr.Bytes())
		}
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return nil, fmt.Errorf("%s: bad result line: %v", w.name, err)
		}
		rep.Results = append(rep.Results, &res)
	}
	if len(parts) > 0 {
		if err := mergeChrome(cfg.traceOut, parts); err != nil {
			return nil, err
		}
		for _, p := range parts {
			os.Remove(p)
		}
	}
	return rep, nil
}

// printReport prints every metric of every result by name with its
// unit, one column per workload.
func printReport(w io.Writer, rep *report) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "rockbench seed %d\n%-36s %-9s", rep.Seed, "metric", "unit")
	for _, r := range rep.Results {
		fmt.Fprintf(&b, " %12s", r.Workload)
	}
	fmt.Fprintln(&b)
	row := func(name, unit string, val func(r *result) (float64, bool)) {
		fmt.Fprintf(&b, "%-36s %-9s", name, unit)
		for _, r := range rep.Results {
			if v, ok := val(r); ok {
				fmt.Fprintf(&b, " %12.5g", v)
			} else {
				fmt.Fprintf(&b, " %12s", "-")
			}
		}
		fmt.Fprintln(&b)
	}
	timed, traced := false, false
	for _, r := range rep.Results {
		timed = timed || r.EndToEnd != nil
		traced = traced || r.PerLayer != nil
	}
	if timed {
		fmt.Fprintf(&b, "end-to-end\n")
		for _, s := range endToEnd {
			row(s.Name, s.Unit, func(r *result) (float64, bool) { v, ok := r.EndToEnd[s.Name]; return v, ok })
		}
		row("samples", "count", func(r *result) (float64, bool) { return float64(r.Samples), r.Samples > 0 })
	}
	row("err_pct", "%", func(r *result) (float64, bool) { return r.errPct(), true })
	row("host_factor", "ratio", func(r *result) (float64, bool) { return r.HostFactor, r.HostFactor > 0 })
	if traced {
		fmt.Fprintf(&b, "per-layer\n")
		for _, s := range perLayer() {
			row(s.Name, s.Unit, func(r *result) (float64, bool) { v, ok := r.PerLayer[s.Name]; return v, ok })
		}
	}
	for _, r := range rep.Results {
		if !r.Correct {
			fmt.Fprintf(&b, "%s: %d of %d ops failed: %s\n", r.Workload, r.Failed, r.Attempted, strings.Join(r.Errors, "; "))
		}
		if n := r.Samples; n > 0 && beyondRank(n, tailQ) < minBeyond {
			fmt.Fprintf(&b, "%s: only %d of %d samples lie beyond p98\n", r.Workload, beyondRank(n, tailQ), n)
		}
	}
	w.Write(b.Bytes())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rockbench:", err)
	os.Exit(1)
}

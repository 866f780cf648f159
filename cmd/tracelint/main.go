// Command tracelint validates observability artifacts on real tool
// output, closing the loop the unit tests cannot: that what sstsim,
// sstbench, or a traced daemon actually wrote to disk honours the
// documented contracts.
//
//	tracelint -trace trace.json        # Chrome trace_event JSON
//	tracelint -report report.json      # sstsim -json cycle accounting
//	tracelint -trace t.json -report r.json
//
// A trace file must parse as Chrome trace JSON and every complete
// ("X") event must carry numeric ts, dur, pid, and tid — the fields
// chrome://tracing and Perfetto require to render a span at all.
//
// A report file must satisfy the cycle-accounting invariant: the
// cpi_stack buckets sum exactly to cycles (see docs/OBSERVABILITY.md).
// Exit status is non-zero on any violation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	traceFile := flag.String("trace", "", "Chrome trace_event JSON file to validate")
	reportFile := flag.String("report", "", "sstsim -json report whose cpi_stack must sum to cycles")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "tracelint: unexpected argument %q: tracelint takes flags only\n", flag.Arg(0))
		os.Exit(2)
	}
	if *traceFile == "" && *reportFile == "" {
		fmt.Fprintln(os.Stderr, "tracelint: nothing to do; pass -trace and/or -report")
		os.Exit(2)
	}
	if *traceFile != "" {
		if err := lintTrace(*traceFile); err != nil {
			fatal(err)
		}
		fmt.Printf("tracelint: %s ok\n", *traceFile)
	}
	if *reportFile != "" {
		if err := lintReport(*reportFile); err != nil {
			fatal(err)
		}
		fmt.Printf("tracelint: %s ok\n", *reportFile)
	}
}

// event models the fields every renderable trace event must carry.
// Pointers distinguish "absent" from a legitimate zero.
type event struct {
	Name string   `json:"name"`
	Ph   string   `json:"ph"`
	Ts   *float64 `json:"ts"`
	Dur  *float64 `json:"dur"`
	Pid  *int     `json:"pid"`
	Tid  *int     `json:"tid"`
}

func lintTrace(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []event `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: not Chrome trace JSON: %v", path, err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("%s: no traceEvents", path)
	}
	for i, e := range doc.TraceEvents {
		if e.Name == "" || e.Ph == "" {
			return fmt.Errorf("%s: event %d: missing name or ph", path, i)
		}
		if e.Ts == nil || e.Pid == nil || e.Tid == nil {
			return fmt.Errorf("%s: event %d (%s): missing ts, pid, or tid", path, i, e.Name)
		}
		if e.Ph == "X" {
			if e.Dur == nil {
				return fmt.Errorf("%s: event %d (%s): complete event without dur", path, i, e.Name)
			}
			if *e.Dur < 1 {
				return fmt.Errorf("%s: event %d (%s): dur %v < 1µs renders as invisible", path, i, e.Name, *e.Dur)
			}
		}
	}
	return nil
}

func lintReport(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep struct {
		Kind     string            `json:"kind"`
		Cycles   uint64            `json:"cycles"`
		CPIStack map[string]uint64 `json:"cpi_stack"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("%s: not a report JSON: %v", path, err)
	}
	if len(rep.CPIStack) == 0 {
		return fmt.Errorf("%s: report has no cpi_stack", path)
	}
	var sum uint64
	for k, v := range rep.CPIStack {
		// smt_idle is a sibling view of cycles another hardware thread
		// retired in; it is excluded from the sum invariant (see
		// internal/cpu/cpi.go CPISum).
		if k == "smt_idle" {
			continue
		}
		sum += v
	}
	if sum != rep.Cycles {
		return fmt.Errorf("%s: cpi_stack sums to %d but cycles is %d (kind %s)",
			path, sum, rep.Cycles, rep.Kind)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracelint:", err)
	os.Exit(1)
}

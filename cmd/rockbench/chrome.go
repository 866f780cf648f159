package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"rocksim/internal/obs"
)

// chromeEvent is one Chrome trace_event record: "X" complete events for
// spans, "M" metadata naming a process lane.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeDoc struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

func xEvent(s obs.SpanSnap, ts int64, tid int) chromeEvent {
	ev := chromeEvent{Name: s.Name, Ph: "X", Ts: ts, Dur: max(s.DurUs, 1), Pid: 1, Tid: tid}
	if len(s.Attrs) > 0 {
		ev.Args = map[string]any{}
		for _, a := range s.Attrs {
			ev.Args[a.Key] = a.Value
		}
	}
	return ev
}

// chromeEvents lays out a traced pass: the benchmark's own spans (the
// pass on lane 1, each client's requests on lane 2+client), and under
// each client-run span the span tree of the daemon request it caused,
// shifted onto the benchmark's clock by when the daemon's handler
// entered relative to the client's send.
func chromeEvents(tr *obs.Tracer, tp *tracedPass) []chromeEvent {
	var evs []chromeEvent
	for _, s := range tr.Snapshot() {
		if s.Parent == 0 {
			evs = append(evs, xEvent(s, s.StartUs, 1))
			continue
		}
		op := -1
		for _, a := range s.Attrs {
			if a.Key == "op" {
				op, _ = strconv.Atoi(a.Value)
			}
		}
		if op < 0 || op >= len(tp.pass.samples) {
			evs = append(evs, xEvent(s, s.StartUs, 2))
			continue
		}
		smp := &tp.pass.samples[op]
		tid := 2 + smp.client
		evs = append(evs, xEvent(s, s.StartUs, tid))
		if op >= len(tp.daemon) || len(tp.daemon[op]) == 0 {
			continue
		}
		tree := tp.daemon[op]
		var rootDur int64
		for _, d := range tree {
			if d.Parent == 0 {
				rootDur = max(rootDur, d.StartUs+d.DurUs)
			}
		}
		off := s.StartUs + tp.entries[op].start.Sub(smp.start).Microseconds()
		// Keep the daemon tree inside the client span it belongs to.
		off = max(min(off, s.StartUs+s.DurUs-rootDur), s.StartUs)
		for _, d := range tree {
			evs = append(evs, xEvent(d, off+d.StartUs, tid))
		}
	}
	return evs
}

// writeChrome writes one workload's traced pass as Chrome trace JSON.
func writeChrome(path, workload string, tr *obs.Tracer, tp *tracedPass) error {
	doc := chromeDoc{
		TraceEvents: append([]chromeEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": workload}}},
			chromeEvents(tr, tp)...),
		DisplayTimeUnit: "ms",
		OtherData:       map[string]any{"generator": "rockbench", "workload": workload},
	}
	return writeJSON(path, doc)
}

// mergeChrome concatenates per-workload traces into one file, giving
// each workload its own process lane.
func mergeChrome(path string, parts []string) error {
	doc := chromeDoc{DisplayTimeUnit: "ms", OtherData: map[string]any{"generator": "rockbench"}}
	for i, part := range parts {
		data, err := os.ReadFile(part)
		if err != nil {
			return err
		}
		var d chromeDoc
		if err := json.Unmarshal(data, &d); err != nil {
			return fmt.Errorf("%s: %v", part, err)
		}
		for _, ev := range d.TraceEvents {
			ev.Pid = i + 1
			doc.TraceEvents = append(doc.TraceEvents, ev)
		}
	}
	return writeJSON(path, doc)
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

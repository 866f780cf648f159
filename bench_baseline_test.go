package rocksim_test

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"testing"
)

// TestBenchBaselineCoversBenchmark checks that the committed benchmark
// baseline (BENCH_rockbench.json, written by `make bench`) holds every
// workload and every end-to-end metric BENCHMARK.json declares, from
// enough correct runs of equal length. rockbench -compare skips any
// workload or metric missing on either side, so a partial baseline
// would let `make bench-guard` pass without comparing anything.
func TestBenchBaselineCoversBenchmark(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(spec.Workloads) == 0 || len(spec.EndToEnd) == 0 {
		t.Fatal("BENCHMARK.json declares no workloads or no end-to-end metrics")
	}

	type result struct {
		Workload string             `json:"workload"`
		Correct  bool               `json:"correct"`
		Failed   int                `json:"failed"`
		EndToEnd map[string]float64 `json:"end_to_end"`
	}
	type report struct {
		Seed    int64     `json:"seed"`
		Seconds float64   `json:"seconds"`
		Results []*result `json:"results"`
	}
	f, err := os.Open("BENCH_rockbench.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var reps []report
	dec := json.NewDecoder(f)
	for {
		var r report
		err := dec.Decode(&r)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("BENCH_rockbench.json report %d: %v", len(reps)+1, err)
		}
		reps = append(reps, r)
	}
	const minReports = 10
	if len(reps) < minReports {
		t.Fatalf("BENCH_rockbench.json holds %d reports, want at least %d", len(reps), minReports)
	}

	for i, r := range reps {
		if r.Seconds != reps[0].Seconds {
			t.Errorf("report %d (seed %d): seconds %g, report 1 has %g", i+1, r.Seed, r.Seconds, reps[0].Seconds)
		}
		byName := map[string]*result{}
		for _, res := range r.Results {
			byName[res.Workload] = res
		}
		for _, w := range spec.Workloads {
			res := byName[w.Name]
			if res == nil {
				t.Errorf("report %d (seed %d): no %s result", i+1, r.Seed, w.Name)
				continue
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("report %d (seed %d) %s: correct %v, failed %d", i+1, r.Seed, w.Name, res.Correct, res.Failed)
			}
			for _, m := range spec.EndToEnd {
				v, ok := res.EndToEnd[m.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Errorf("report %d (seed %d) %s: %s = %v (present %v), want finite and > 0", i+1, r.Seed, w.Name, m.Name, v, ok)
				}
			}
		}
	}
}

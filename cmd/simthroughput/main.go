// Command simthroughput measures the simulator's own speed — simulated
// cycles per wall-clock second and heap allocations per simulated run —
// for every core model, on the OLTP workload at test scale (the same
// configuration as the BenchmarkSim* benchmarks).
//
// Usage:
//
//	simthroughput -o BENCH_simthroughput.json   # write a fresh baseline
//	simthroughput -check BENCH_simthroughput.json
//
// In -check mode the current machine is re-measured and compared against
// the recorded baseline: a kind that runs at less than 80% of its
// recorded simcycles/s, or allocates more than 120% of its recorded
// allocs/op, fails the guard. A missing baseline file is a skip, not a
// failure, because the numbers are machine-specific — regenerate with
// `make bench` on the machine that runs the guard.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"rocksim/internal/asm"
	"rocksim/internal/sim"
	"rocksim/internal/workload"
)

// kindMetrics is one core model's measurement.
type kindMetrics struct {
	SimCyclesPerSec float64 `json:"simcycles_per_sec"`
	SimInstsPerSec  float64 `json:"siminsts_per_sec"`
	AllocsPerOp     float64 `json:"allocs_per_op"`
	BytesPerOp      float64 `json:"bytes_per_op"`
	// The pooled short-program mode measures service-shaped traffic:
	// back-to-back runs on ONE reused sim.Instance, driven directly
	// (bypassing the experiments run cache, which would trivially answer
	// repeats from memory). This is where per-run construction cost
	// shows up as allocations, so the guard holds PooledAllocsPerOp to
	// an absolute ceiling (maxPooledAllocs), not just a relative one.
	// Old baselines without these keys read as 0 and skip the relative
	// runs/s comparison.
	PooledRunsPerSec  float64 `json:"pooled_runs_per_sec"`
	PooledAllocsPerOp float64 `json:"pooled_allocs_per_op"`
}

// maxPooledAllocs is the absolute allocs-per-run ceiling for a pooled
// instance: a reset-and-rerun costs a detached stats snapshot and some
// bookkeeping, tens of allocations — not the ~8-9k of a full machine
// construction. Exceeding this means someone re-grew a per-run
// allocation, independent of what the recorded baseline says.
const maxPooledAllocs = 100

type report struct {
	Workload string `json:"workload"`
	Scale    string `json:"scale"`
	// PooledWorkload names the program the pooled short-program mode
	// runs (shortProgram below), distinct from the main workload: short
	// runs are where per-run setup cost dominates, so that is where
	// runs/s measures the pool rather than the simulator core loop.
	PooledWorkload string                 `json:"pooled_workload"`
	Kinds          map[string]kindMetrics `json:"kinds"`
}

// shortProgram is the service-shaped cell for the pooled mode: a few
// hundred instructions touching a small table, finishing in a couple of
// thousand simulated cycles. On a program this size a fresh ~8.6k-
// allocation machine construction costs more than the simulation
// itself; the pooled runs/s number exists to keep that overhead dead.
const shortProgram = `
	li   r5, 0
	li   r6, 0
	li   r7, 64
	li   r8, 0x200000
loop:	ld64 r9, (r8)
	add  r5, r5, r9
	addi r8, r8, 8
	addi r6, r6, 1
	bne  r6, r7, loop
	halt
	.data 0x200000
tbl:	.quad 3, 1, 4, 1, 5, 9, 2, 6
	.zero 448
`

func measureAll() (report, error) {
	w, err := workload.Build("oltp", workload.ScaleTest)
	if err != nil {
		return report{}, err
	}
	short, err := asm.Assemble(shortProgram)
	if err != nil {
		return report{}, fmt.Errorf("short program: %w", err)
	}
	rep := report{Workload: "oltp", Scale: "test", PooledWorkload: "short-sum", Kinds: map[string]kindMetrics{}}
	opts := sim.DefaultOptions()
	for _, k := range sim.Kinds {
		k := k
		var cycles, insts uint64
		var benchErr error
		r := testing.Benchmark(func(b *testing.B) {
			cycles, insts = 0, 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := sim.Run(k, w.Program, opts)
				if err != nil {
					benchErr = err
					b.FailNow()
				}
				cycles += out.Cycles
				insts += out.Retired
			}
		})
		if benchErr != nil {
			return report{}, fmt.Errorf("%v: %w", k, benchErr)
		}
		secs := r.T.Seconds()
		if secs <= 0 || r.N == 0 {
			return report{}, fmt.Errorf("%v: empty benchmark result", k)
		}
		m := kindMetrics{
			SimCyclesPerSec: float64(cycles) / secs,
			SimInstsPerSec:  float64(insts) / secs,
			AllocsPerOp:     float64(r.MemAllocs) / float64(r.N),
			BytesPerOp:      float64(r.MemBytes) / float64(r.N),
		}
		m.PooledRunsPerSec, m.PooledAllocsPerOp, err = measurePooled(k, short, opts)
		if err != nil {
			return report{}, fmt.Errorf("%v pooled: %w", k, err)
		}
		rep.Kinds[k.String()] = m
	}
	return rep, nil
}

// measurePooled is the short-program runs/s mode: one sim.Instance,
// reset and rerun back to back. The first run (the construction plus a
// cold warm-up) happens before the benchmark loop so the steady-state
// reuse cost is what gets measured.
func measurePooled(k sim.Kind, prog *asm.Program, opts sim.Options) (runsPerSec, allocsPerOp float64, err error) {
	in, err := sim.NewInstance(sim.Shape{Kind: k}, opts)
	if err != nil {
		return 0, 0, err
	}
	cell := sim.CoreCell(k, prog)
	if _, err := in.Run(context.Background(), cell, opts); err != nil {
		return 0, 0, err
	}
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := in.Run(context.Background(), cell, opts); err != nil {
				benchErr = err
				b.FailNow()
			}
		}
	})
	if benchErr != nil {
		return 0, 0, benchErr
	}
	secs := r.T.Seconds()
	if secs <= 0 || r.N == 0 {
		return 0, 0, fmt.Errorf("empty benchmark result")
	}
	return float64(r.N) / secs, float64(r.MemAllocs) / float64(r.N), nil
}

func main() {
	out := flag.String("o", "", "write measurements as JSON to this file ('-' = stdout)")
	check := flag.String("check", "", "compare a fresh measurement against this baseline JSON (±20%); missing file = skip")
	flag.Parse()
	if (*out == "") == (*check == "") {
		fmt.Fprintln(os.Stderr, "simthroughput: exactly one of -o or -check is required")
		os.Exit(2)
	}

	if *check != "" {
		base, err := os.ReadFile(*check)
		if os.IsNotExist(err) {
			fmt.Printf("simthroughput: no baseline at %s; skipping guard (run `make bench` to record one)\n", *check)
			return
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "simthroughput:", err)
			os.Exit(1)
		}
		var want report
		if err := json.Unmarshal(base, &want); err != nil {
			fmt.Fprintf(os.Stderr, "simthroughput: bad baseline %s: %v\n", *check, err)
			os.Exit(1)
		}
		got, err := measureAll()
		if err != nil {
			fmt.Fprintln(os.Stderr, "simthroughput:", err)
			os.Exit(1)
		}
		failed := false
		for kind, w := range want.Kinds {
			g, ok := got.Kinds[kind]
			if !ok {
				fmt.Printf("FAIL %-10s missing from current measurement\n", kind)
				failed = true
				continue
			}
			switch {
			case g.SimCyclesPerSec < 0.8*w.SimCyclesPerSec:
				fmt.Printf("FAIL %-10s simcycles/s %.0f < 80%% of baseline %.0f\n", kind, g.SimCyclesPerSec, w.SimCyclesPerSec)
				failed = true
			case g.AllocsPerOp > 1.2*w.AllocsPerOp+1:
				fmt.Printf("FAIL %-10s allocs/op %.0f > 120%% of baseline %.0f\n", kind, g.AllocsPerOp, w.AllocsPerOp)
				failed = true
			case g.PooledAllocsPerOp > maxPooledAllocs:
				fmt.Printf("FAIL %-10s pooled allocs/op %.0f > absolute ceiling %d\n", kind, g.PooledAllocsPerOp, maxPooledAllocs)
				failed = true
			case w.PooledRunsPerSec > 0 && g.PooledRunsPerSec < 0.8*w.PooledRunsPerSec:
				fmt.Printf("FAIL %-10s pooled runs/s %.0f < 80%% of baseline %.0f\n", kind, g.PooledRunsPerSec, w.PooledRunsPerSec)
				failed = true
			default:
				fmt.Printf("ok   %-10s %.2fM simcycles/s (baseline %.2fM), %.0f allocs/op, pooled %.0f runs/s at %.0f allocs/op\n",
					kind, g.SimCyclesPerSec/1e6, w.SimCyclesPerSec/1e6, g.AllocsPerOp, g.PooledRunsPerSec, g.PooledAllocsPerOp)
			}
		}
		if failed {
			os.Exit(1)
		}
		return
	}

	rep, err := measureAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simthroughput:", err)
		os.Exit(1)
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "simthroughput:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "simthroughput:", err)
		os.Exit(1)
	}
	for kind, m := range rep.Kinds {
		fmt.Printf("%-10s %.2fM simcycles/s, %.0f allocs/op, pooled %.0f runs/s at %.0f allocs/op\n",
			kind, m.SimCyclesPerSec/1e6, m.AllocsPerOp, m.PooledRunsPerSec, m.PooledAllocsPerOp)
	}
}

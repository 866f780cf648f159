// Command sstsim runs one workload (built-in or assembled from a .s
// file) on one core model and prints detailed statistics.
//
// Usage:
//
//	sstsim -workload oltp -core sst
//	sstsim -workload all -core sst -scale test
//	sstsim -asm prog.s -core ooo-large
//	sstsim -workload mcf -core sst -dq 32 -ckpt 2 -memlat 500
//	sstsim -workload dense -core ooo-large -scale test -cpuprofile cpu.prof
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"

	"rocksim/internal/asm"
	"rocksim/internal/core"
	"rocksim/internal/cpu"
	"rocksim/internal/faults"
	"rocksim/internal/inorder"
	"rocksim/internal/obs"
	"rocksim/internal/sim"
	"rocksim/internal/stats"
	"rocksim/internal/workload"
)

func main() {
	wl := flag.String("workload", "oltp", "built-in workload name, or 'all'")
	asmFile := flag.String("asm", "", "assemble and run this RK64 source file instead of a built-in workload")
	kindNames := make([]string, len(sim.Kinds))
	for i, k := range sim.Kinds {
		kindNames[i] = k.String()
	}
	coreKind := flag.String("core", "sst", "core model: "+strings.Join(append(kindNames, "all"), " | "))
	scaleFlag := flag.String("scale", "full", "workload scale: test | full")
	dq := flag.Int("dq", -1, "override SST deferred-queue size")
	ckpt := flag.Int("ckpt", -1, "override SST checkpoint count")
	ssb := flag.Int("ssb", -1, "override SST store-buffer size")
	memlat := flag.Int("memlat", -1, "override DRAM latency (cycles)")
	faultsFlag := flag.String("faults", "", "deterministic fault plan, e.g. 'seed=7;ckpt-deny@100-200;mem-jitter@0-:16' or 'random:SEED' (see docs/ROBUSTNESS.md)")
	timeout := flag.Duration("timeout", 0, "wall-clock watchdog per run (e.g. 30s; 0 = none)")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report instead of text")
	pipeview := flag.Uint64("pipeview", 0, "print a per-cycle pipeline trace for the first N cycles (SST-family cores only)")
	metricsOut := flag.String("metrics", "", "write run metrics as flat JSON to this file ('-' = stdout)")
	promOut := flag.String("prom", "", "write run metrics in Prometheus text format to this file")
	chromeOut := flag.String("chrome-trace", "", "write a Chrome trace_event JSON file (chrome://tracing, Perfetto)")
	traceOut := flag.String("trace", "", "write request-scoped wall-clock spans (one sim-run span per run, Chrome JSON) to this file")
	sampleEvery := flag.Uint64("sample-every", obs.DefaultSampleEvery, "cycles between occupancy samples in timelines and trace counter tracks")
	list := flag.Bool("list", false, "list workloads and core kinds, then exit")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "sstsim: unexpected argument %q: sstsim takes flags only\n", flag.Arg(0))
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	if *list {
		fmt.Println("core kinds:")
		for _, k := range sim.Kinds {
			fmt.Printf("  %v\n", k)
		}
		fmt.Println("workloads:")
		for _, n := range workload.Names {
			w, err := workload.Build(n, workload.ScaleTest)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("  %-9s %s\n", n, w.Description)
		}
		return
	}

	var kinds []sim.Kind
	if *coreKind == "all" {
		kinds = sim.Kinds
	} else {
		kind, err := sim.KindByName(*coreKind)
		if err != nil {
			fatal(err)
		}
		kinds = []sim.Kind{kind}
	}
	scale, err := workload.ParseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}

	opts := sim.DefaultOptions()
	if *dq >= 0 {
		opts.SST.DQSize = *dq
	}
	if *ckpt >= 0 {
		opts.SST.Checkpoints = *ckpt
	}
	if *ssb >= 0 {
		opts.SST.SSBSize = *ssb
	}
	if *memlat > 0 {
		opts.Hier.DRAM.Latency = *memlat
	}
	// -pipeview tees onto every run's sink; PipeView renders only the
	// SST-family cores, so other kinds print no pipeline lines.
	var pv obs.Sink
	if *pipeview > 0 {
		pv = &core.PipeView{W: os.Stdout, MaxCycles: *pipeview}
	}
	opts.Timeout = *timeout
	if *faultsFlag != "" {
		plan, err := faults.ParseSpec(*faultsFlag)
		if err != nil {
			fatal(err)
		}
		opts.Faults = plan
	}

	var specs []*workload.Spec
	switch {
	case *asmFile != "":
		src, err := os.ReadFile(*asmFile)
		if err != nil {
			fatal(err)
		}
		prog, err := asm.Assemble(string(src))
		if err != nil {
			fatal(err)
		}
		specs = []*workload.Spec{{Name: *asmFile, Program: prog, Description: "user program"}}
	case *wl == "all":
		specs, err = workload.BuildAll(scale)
		if err != nil {
			fatal(err)
		}
	default:
		w, err := workload.Build(*wl, scale)
		if err != nil {
			fatal(err)
		}
		specs = []*workload.Spec{w}
	}

	multi := len(specs)*len(kinds) > 1
	wantMetrics := *metricsOut != "" || *promOut != "" || *jsonOut
	allMetrics := make(map[string]*obs.Registry)
	// -trace observes the runs in the wall-clock domain: every run
	// becomes a root sim-run span (kind/program/cycles attrs) in one
	// Chrome trace. It rides the same context plumbing as the service's
	// request tracing and never affects the simulated outcome.
	runCtx := context.Background()
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
		runCtx = obs.WithTracer(runCtx, tracer)
	}
	for _, w := range specs {
		for _, kind := range kinds {
			ropts := opts
			if wantMetrics {
				reg := obs.NewRegistry()
				reg.SetSampleEvery(*sampleEvery)
				ropts.Metrics = reg
			}
			var trace *obs.Trace
			var col *obs.Collector
			if *chromeOut != "" {
				trace = obs.NewTrace()
				col = obs.NewCollector(trace, ropts.Metrics)
				col.SampleEvery = *sampleEvery
				ropts.Sink = col
			}
			ropts.Sink = obs.Tee(pv, ropts.Sink)
			out, err := sim.RunContext(runCtx, kind, w.Program, ropts)
			if err != nil {
				fatal(err)
			}
			if col != nil {
				col.Flush(out.Cycles)
			}
			runName := w.Name + "/" + kind.String()
			if ropts.Metrics != nil {
				allMetrics[runName] = ropts.Metrics
			}
			if trace != nil {
				writeChromeTrace(suffixPath(*chromeOut, runName, multi), trace)
			}
			if *jsonOut {
				if err := sim.NewReport(out).WriteJSON(os.Stdout); err != nil {
					fatal(err)
				}
				continue
			}
			report(w, out)
		}
	}
	if *metricsOut != "" {
		writeMetricsJSON(*metricsOut, allMetrics, multi)
	}
	if *promOut != "" {
		writeMetricsProm(*promOut, allMetrics)
	}
	if tracer != nil {
		f := create(*traceOut)
		if err := tracer.WriteChrome(f); err != nil {
			fatal(err)
		}
		closeOut(f)
	}
}

// suffixPath inserts "-<run>" before path's extension when a run is one
// of several, so each run gets its own trace file.
func suffixPath(path, run string, multi bool) string {
	if !multi {
		return path
	}
	run = strings.NewReplacer("/", "-", " ", "_", ".", "_").Replace(run)
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "-" + run + ext
}

func create(path string) *os.File {
	if path == "-" {
		return os.Stdout
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	return f
}

func closeOut(f *os.File) {
	if f != os.Stdout {
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

func writeChromeTrace(path string, tr *obs.Trace) {
	f := create(path)
	if err := tr.WriteChrome(f); err != nil {
		fatal(err)
	}
	closeOut(f)
}

// writeMetricsJSON writes a single run's snapshot as a flat object, or
// several runs as a "workload/kind"-keyed map.
func writeMetricsJSON(path string, m map[string]*obs.Registry, multi bool) {
	f := create(path)
	var err error
	if multi {
		snaps := make(map[string]obs.Snapshot, len(m))
		for name, reg := range m {
			snaps[name] = reg.Snapshot()
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		err = enc.Encode(snaps)
	} else {
		for _, reg := range m {
			err = reg.WriteJSON(f)
		}
	}
	if err != nil {
		fatal(err)
	}
	closeOut(f)
}

func writeMetricsProm(path string, m map[string]*obs.Registry) {
	f := create(path)
	for _, name := range stats.SortedKeys(m) {
		if len(m) > 1 {
			fmt.Fprintf(f, "# run: %s\n", name)
		}
		if err := m[name].WriteProm(f); err != nil {
			fatal(err)
		}
	}
	closeOut(f)
}

func report(w *workload.Spec, out sim.Outcome) {
	b := &out.Base
	fmt.Printf("== %s on %v ==\n", w.Name, out.Kind)
	if w.Description != "" {
		fmt.Printf("   %s\n", w.Description)
	}
	fmt.Printf("cycles        %d\n", out.Cycles)
	fmt.Printf("retired       %d\n", out.Retired)
	fmt.Printf("IPC           %.3f\n", out.IPC())
	fmt.Printf("loads         %d (L1 %.1f%% / L2 %.1f%% / mem %.1f%%)\n",
		b.Loads, stats.Pct(b.LoadL1Hits, b.Loads), stats.Pct(b.LoadL2Hits, b.Loads), stats.Pct(b.LoadMemHits, b.Loads))
	fmt.Printf("stores        %d\n", b.Stores)
	fmt.Printf("branches      %d (mispred %.2f%%)\n", b.Branches, stats.Pct(b.BranchMispred, b.Branches))
	fmt.Printf("MLP           %.2f\n", b.MLP())
	l1, l2 := out.Hier.L1D[0], out.Hier.L2
	fmt.Printf("L1D miss%%     %.2f   L2 miss%% %.2f\n", 100*l1.MissRate(), 100*l2.MissRate())
	fmt.Printf("cpi stack     ")
	for bk := cpu.Bucket(0); bk < cpu.NumBuckets; bk++ {
		if b.CPI[bk] > 0 {
			fmt.Printf("%s %.1f%%  ", bk, stats.Pct(b.CPI[bk], b.Cycles))
		}
	}
	fmt.Printf("(top loss %s)\n", sim.TopLoss(b))

	switch {
	case out.SST != nil:
		s := out.SST
		fmt.Printf("checkpoints   %d taken, %d commits, %d rollbacks (branch %d, jalr %d, ssb %d, scout %d)\n",
			s.CheckpointsTaken, s.EpochCommits, s.Rollbacks,
			s.RollbacksBy[core.RbBranch], s.RollbacksBy[core.RbJalr],
			s.RollbacksBy[core.RbSSB], s.RollbacksBy[core.RbScout])
		fmt.Printf("deferred      %d insts (%d branches, %.2f%% mispred), %d replays\n",
			s.Deferrals, s.DeferredBranches,
			stats.Pct(s.DeferredBranchMispred, s.DeferredBranches), s.Replays)
		fmt.Printf("discarded     %d insts (%.2f%% of work)\n",
			s.DiscardedInsts, stats.Pct(s.DiscardedInsts, s.DiscardedInsts+s.Retired))
		fmt.Printf("occupancy     DQ mean %.1f max %d | SSB mean %.1f | ckpts mean %.1f\n",
			s.DQOcc.Mean(), s.DQOcc.Max(), s.SSBOcc.Mean(), s.CkptOcc.Mean())
		fmt.Printf("cycle modes   ")
		for k := core.CycleKind(0); k < core.NumCycleKinds; k++ {
			fmt.Printf("%s %.1f%%  ", k, stats.Pct(s.ModeCycles[k], s.Cycles))
		}
		fmt.Println()
		fmt.Printf("stall cycles  dq-full %d, ssb-full %d, atomic %d\n",
			s.DQFullStallCycles, s.SSBFullStallCycles, s.AtomicStallCycles)
	case out.OOO != nil:
		s := out.OOO
		fmt.Printf("squashes      %d (memorder %d), wrong-path insts %d\n",
			s.Squashes, s.MemOrderViolations, s.WrongPathInsts)
		fmt.Printf("rob-full      %d cycles, fetch-stall %d cycles\n", s.ROBFullCycles, s.FetchStallCycles)
	case out.InOrder != nil:
		s := out.InOrder
		fmt.Printf("stall cycles  fetch %d, redirect %d, data %d, load-limit %d, store-buffer %d\n",
			s.StallCycles[inorder.StallFetch], s.StallCycles[inorder.StallRedirect],
			s.StallCycles[inorder.StallData], s.StallCycles[inorder.StallLoadLimit],
			s.StallCycles[inorder.StallStoreBuffer])
	}
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sstsim:", err)
	os.Exit(1)
}

package experiments

import (
	"fmt"

	"rocksim/internal/core"
	"rocksim/internal/mem"
	"rocksim/internal/sim"
	"rocksim/internal/stats"
	"rocksim/internal/workload"
)

// PolicyAblation regenerates Figure 13 (extension): the SST design
// choices this reproduction had to make, each toggled independently
// against the default configuration — the "ablation benches for design
// choices" DESIGN.md calls out:
//
//   - CheckpointPerMiss: a fresh checkpoint per deferring miss vs a
//     single epoch per speculation region;
//   - CheckpointOnDeferredBranch: bounding deferred-branch rollbacks;
//   - ScoutOnDQFull: discard-and-prefetch vs stall when the DQ fills;
//   - DeferLongOps: treating divides as checkpointable events.
func (r *Runner) PolicyAblation(scale workload.Scale) (*Result, error) {
	names := append(append([]string{}, workload.CommercialNames...), "mcf", "gcc")
	specs, err := workload.BuildSuite(names, scale)
	if err != nil {
		return nil, err
	}
	type variant struct {
		name   string
		mutate func(*core.Config)
	}
	variants := []variant{
		{"default", func(c *core.Config) {}},
		{"-ckpt/miss", func(c *core.Config) { c.CheckpointPerMiss = false }},
		{"-ckpt/branch", func(c *core.Config) { c.CheckpointOnDeferredBranch = false }},
		{"+scout-on-full", func(c *core.Config) { c.ScoutOnDQFull = true }},
		{"-defer-longops", func(c *core.Config) { c.DeferLongOps = false }},
	}
	g := r.runGrid(len(specs), len(variants), func(row, col int) cell {
		opts := r.BaseOptions()
		variants[col].mutate(&opts.SST)
		return coreCell(sim.KindSST, specs[row], opts)
	})
	headers := []string{"workload"}
	for _, v := range variants {
		headers = append(headers, v.name)
	}
	t := stats.NewTable("Figure 13 (extension): SST policy ablation (IPC)", headers...)
	g.table(t, func(row int) any { return specs[row].Name }, (*sim.Outcome).IPC)
	return &Result{
		ID: "F13", Title: "SST policy ablation", Tables: []*stats.Table{t},
		Notes: []string{"each column toggles one design choice against the default configuration"},
		Errs:  errLines(g),
	}, nil
}

// PrefetchInterplay regenerates Figure 14 (extension): hardware
// prefetching vs execution-driven prefetching. A stride prefetcher
// captures regular streams cheaply, shrinking SST's advantage there; it
// cannot follow data-dependent access patterns, where SST keeps its
// edge. This interplay was a central contemporary debate around
// runahead/scout/SST designs.
func (r *Runner) PrefetchInterplay(scale workload.Scale) (*Result, error) {
	names := []string{"stream", "quantum", "oltp", "jbb"}
	specs, err := workload.BuildSuite(names, scale)
	if err != nil {
		return nil, err
	}
	// Columns: in-order without and with the prefetcher, then SST.
	type column struct {
		k  sim.Kind
		pf mem.PrefetchKind
	}
	cols := []column{
		{sim.KindInOrder, mem.PrefetchNone}, {sim.KindInOrder, mem.PrefetchStride},
		{sim.KindSST, mem.PrefetchNone}, {sim.KindSST, mem.PrefetchStride},
	}
	g := r.runGrid(len(specs), len(cols), func(row, col int) cell {
		opts := r.BaseOptions()
		opts.Hier.Prefetch = cols[col].pf
		opts.Hier.Stride = mem.DefaultStrideConfig()
		return coreCell(cols[col].k, specs[row], opts)
	})
	headers := []string{"workload"}
	for _, c := range cols {
		headers = append(headers, fmt.Sprintf("%v/%v", c.k, c.pf))
	}
	headers = append(headers, "sst-gain no-pf", "sst-gain stride-pf")
	t := stats.NewTable("Figure 14 (extension): SST vs hardware stride prefetching (IPC)", headers...)
	for row, w := range specs {
		vals := g.row([]any{w.Name}, row, 1, func(_ int, out *sim.Outcome) []any { return []any{out.IPC()} })
		if err := g.rowErr(row); err != nil {
			t.AddRow(fillErr(vals, 2, err)...) // the gain ratios need every cell
			continue
		}
		ipc := func(col int) float64 { out, _ := g.at(row, col); return out.IPC() }
		t.AddRow(append(vals, ipc(2)/ipc(0), ipc(3)/ipc(1))...)
	}
	return &Result{
		ID: "F14", Title: "prefetcher interplay", Tables: []*stats.Table{t},
		Notes: []string{
			"stride prefetching narrows SST's edge on regular streams (stream/quantum) but not on data-dependent commercial patterns (oltp/jbb)",
		},
		Errs: errLines(g),
	}, nil
}

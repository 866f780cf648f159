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
	cells := make([]cell, 0, len(specs)*len(variants))
	for _, w := range specs {
		for _, v := range variants {
			opts := r.BaseOptions()
			v.mutate(&opts.SST)
			cells = append(cells, coreCell(sim.KindSST, w, opts))
		}
	}
	outs, errs := r.runCells(cells)
	headers := []string{"workload"}
	for _, v := range variants {
		headers = append(headers, v.name)
	}
	t := stats.NewTable("Figure 13 (extension): SST policy ablation (IPC)", headers...)
	i := 0
	for _, w := range specs {
		row := []any{w.Name}
		for range variants {
			if errs[i] != nil {
				row = append(row, errCell(errs[i]))
			} else {
				row = append(row, outs[i].IPC())
			}
			i++
		}
		t.AddRow(row...)
	}
	return &Result{
		ID: "F13", Title: "SST policy ablation", Tables: []*stats.Table{t},
		Notes: []string{"each column toggles one design choice against the default configuration"},
		Errs:  collectErrs(errs),
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
	kinds := []sim.Kind{sim.KindInOrder, sim.KindSST}
	pfs := []mem.PrefetchKind{mem.PrefetchNone, mem.PrefetchStride}
	cells := make([]cell, 0, len(specs)*len(kinds)*len(pfs))
	for _, w := range specs {
		for _, k := range kinds {
			for _, pf := range pfs {
				opts := r.BaseOptions()
				opts.Hier.Prefetch = pf
				opts.Hier.Stride = mem.DefaultStrideConfig()
				cells = append(cells, coreCell(k, w, opts))
			}
		}
	}
	outs, errs := r.runCells(cells)
	headers := []string{"workload"}
	for _, k := range kinds {
		for _, pf := range pfs {
			headers = append(headers, fmt.Sprintf("%v/%v", k, pf))
		}
	}
	headers = append(headers, "sst-gain no-pf", "sst-gain stride-pf")
	t := stats.NewTable("Figure 14 (extension): SST vs hardware stride prefetching (IPC)", headers...)
	i := 0
	for _, w := range specs {
		row := []any{w.Name}
		ipc := map[string]float64{}
		var rowErr error
		for _, k := range kinds {
			for _, pf := range pfs {
				if cerr := errs[i]; cerr != nil {
					if rowErr == nil {
						rowErr = cerr
					}
					row = append(row, errCell(cerr))
				} else {
					key := fmt.Sprintf("%v/%v", k, pf)
					ipc[key] = outs[i].IPC()
					row = append(row, outs[i].IPC())
				}
				i++
			}
		}
		if rowErr != nil {
			row = fillErr(row, 2, rowErr) // the gain ratios need every cell
		} else {
			row = append(row,
				ipc["sst/none"]/ipc["inorder/none"],
				ipc["sst/stride"]/ipc["inorder/stride"])
		}
		t.AddRow(row...)
	}
	return &Result{
		ID: "F14", Title: "prefetcher interplay", Tables: []*stats.Table{t},
		Notes: []string{
			"stride prefetching narrows SST's edge on regular streams (stream/quantum) but not on data-dependent commercial patterns (oltp/jbb)",
		},
		Errs: collectErrs(errs),
	}, nil
}

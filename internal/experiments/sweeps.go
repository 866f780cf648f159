package experiments

import (
	"fmt"

	"rocksim/internal/sim"
	"rocksim/internal/stats"
	"rocksim/internal/workload"
)

// DQSweep regenerates Figure 3: sensitivity of SST performance to the
// Deferred Queue size. DQ=0 degenerates to hardware scout.
func (r *Runner) DQSweep(scale workload.Scale) (*Result, error) {
	specs, err := workload.BuildSuite([]string{"oltp", "mcf", "jbb"}, scale)
	if err != nil {
		return nil, err
	}
	sizes := []int{0, 8, 16, 32, 64, 128}
	cells := make([]cell, 0, len(specs)*len(sizes))
	for _, w := range specs {
		for _, n := range sizes {
			opts := r.BaseOptions()
			opts.SST.DQSize = n
			cells = append(cells, coreCell(sim.KindSST, w, opts))
		}
	}
	outs, errs := r.runCells(cells)
	t := stats.NewTable("Figure 3: IPC vs Deferred Queue size",
		headerize("workload", sizes, "DQ=%d")...)
	i := 0
	for _, w := range specs {
		row := []any{w.Name}
		for range sizes {
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
		ID: "F3", Title: "Deferred Queue sizing", Tables: []*stats.Table{t},
		Notes: []string{"DQ=0 is hardware scout; returns should flatten near the default (64)"},
		Errs:  collectErrs(errs),
	}, nil
}

// CheckpointSweep regenerates Figure 4: sensitivity to the number of
// checkpoints (concurrent speculation epochs).
func (r *Runner) CheckpointSweep(scale workload.Scale) (*Result, error) {
	specs, err := workload.BuildSuite(workload.CommercialNames, scale)
	if err != nil {
		return nil, err
	}
	counts := []int{1, 2, 4, 8}
	cells := make([]cell, 0, len(specs)*len(counts))
	for _, w := range specs {
		for _, n := range counts {
			opts := r.BaseOptions()
			opts.SST.Checkpoints = n
			cells = append(cells, coreCell(sim.KindSST, w, opts))
		}
	}
	outs, errs := r.runCells(cells)
	t := stats.NewTable("Figure 4: IPC vs number of checkpoints",
		headerize("workload", counts, "ckpt=%d")...)
	i := 0
	for _, w := range specs {
		row := []any{w.Name}
		for range counts {
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
		ID: "F4", Title: "checkpoint count", Tables: []*stats.Table{t},
		Notes: []string{"more checkpoints -> finer rollback granularity and deeper miss overlap"},
		Errs:  collectErrs(errs),
	}, nil
}

// SSBSweep regenerates Figure 5: sensitivity to speculative store buffer
// size, on the store-heavy ERP workload.
func (r *Runner) SSBSweep(scale workload.Scale) (*Result, error) {
	specs, err := workload.BuildSuite([]string{"erp", "oltp", "quantum"}, scale)
	if err != nil {
		return nil, err
	}
	sizes := []int{4, 8, 16, 32, 64}
	cells := make([]cell, 0, len(specs)*len(sizes))
	for _, w := range specs {
		for _, n := range sizes {
			opts := r.BaseOptions()
			opts.SST.SSBSize = n
			cells = append(cells, coreCell(sim.KindSST, w, opts))
		}
	}
	outs, errs := r.runCells(cells)
	t := stats.NewTable("Figure 5: IPC vs speculative store buffer size",
		headerize("workload", sizes, "SSB=%d")...)
	i := 0
	for _, w := range specs {
		row := []any{w.Name}
		for range sizes {
			if errs[i] != nil {
				row = append(row, errCell(errs[i]))
			} else {
				row = append(row, outs[i].IPC())
			}
			i++
		}
		t.AddRow(row...)
	}
	return &Result{ID: "F5", Title: "store buffer sizing", Tables: []*stats.Table{t}, Errs: collectErrs(errs)}, nil
}

// MemLatencySweep regenerates Figure 6: SST's advantage as memory
// latency grows. Checkpoint architectures are motivated precisely by the
// widening memory wall.
func (r *Runner) MemLatencySweep(scale workload.Scale) (*Result, error) {
	specs, err := workload.BuildSuite([]string{"oltp"}, scale)
	if err != nil {
		return nil, err
	}
	w := specs[0]
	lats := []int{100, 200, 300, 500, 800}
	kinds := []sim.Kind{sim.KindInOrder, sim.KindOOOLarge, sim.KindSST}
	cells := make([]cell, 0, len(lats)*len(kinds))
	for _, lat := range lats {
		opts := r.BaseOptions()
		opts.Hier.DRAM.Latency = lat
		for _, k := range kinds {
			cells = append(cells, coreCell(k, w, opts))
		}
	}
	outs, errs := r.runCells(cells)
	headers := []string{"DRAM latency"}
	for _, k := range kinds {
		headers = append(headers, "IPC "+k.String())
	}
	headers = append(headers, "SST/inorder", "SST/ooo-large")
	t := stats.NewTable("Figure 6: performance vs memory latency (oltp)", headers...)
	i := 0
	for _, lat := range lats {
		row := []any{lat}
		ipcs := map[sim.Kind]float64{}
		var rowErr error
		for _, k := range kinds {
			if cerr := errs[i]; cerr != nil {
				if rowErr == nil {
					rowErr = cerr
				}
				row = append(row, errCell(cerr))
			} else {
				ipcs[k] = outs[i].IPC()
				row = append(row, ipcs[k])
			}
			i++
		}
		if rowErr != nil {
			row = fillErr(row, 2, rowErr) // ratios need every cell
		} else {
			row = append(row, ipcs[sim.KindSST]/ipcs[sim.KindInOrder], ipcs[sim.KindSST]/ipcs[sim.KindOOOLarge])
		}
		t.AddRow(row...)
	}
	return &Result{
		ID: "F6", Title: "memory latency scaling", Tables: []*stats.Table{t},
		Notes: []string{"SST's speedup over in-order should grow with latency"},
		Errs:  collectErrs(errs),
	}, nil
}

// BranchSweep regenerates Figure 11: deferred-branch prediction quality
// vs speculation success, by shrinking the direction predictor.
func (r *Runner) BranchSweep(scale workload.Scale) (*Result, error) {
	specs, err := workload.BuildSuite([]string{"gcc", "oltp", "web"}, scale)
	if err != nil {
		return nil, err
	}
	bits := []int{6, 10, 14}
	cells := make([]cell, 0, len(specs)*len(bits))
	for _, w := range specs {
		for _, b := range bits {
			opts := r.BaseOptions()
			opts.Pred.GshareBits = b
			cells = append(cells, coreCell(sim.KindSST, w, opts))
		}
	}
	outs, errs := r.runCells(cells)
	headers := []string{"workload"}
	for _, b := range bits {
		headers = append(headers, fmt.Sprintf("IPC pht=%d", 1<<b), fmt.Sprintf("rollbacks pht=%d", 1<<b))
	}
	t := stats.NewTable("Figure 11: SST vs branch predictor size", headers...)
	i := 0
	for _, w := range specs {
		row := []any{w.Name}
		for range bits {
			if errs[i] != nil {
				row = fillErr(row, 2, errs[i])
			} else {
				st := outs[i].SST
				row = append(row, outs[i].IPC(), st.Rollbacks)
			}
			i++
		}
		t.AddRow(row...)
	}
	return &Result{ID: "F11", Title: "branch predictor sensitivity", Tables: []*stats.Table{t}, Errs: collectErrs(errs)}, nil
}

func headerize(first string, vals []int, format string) []string {
	out := []string{first}
	for _, v := range vals {
		out = append(out, fmt.Sprintf(format, v))
	}
	return out
}

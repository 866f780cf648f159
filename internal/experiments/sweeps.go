package experiments

import (
	"fmt"

	"rocksim/internal/core"
	"rocksim/internal/sim"
	"rocksim/internal/stats"
	"rocksim/internal/workload"
)

// DQSweep regenerates Figure 3: sensitivity of SST performance to the
// Deferred Queue size. DQ=0 degenerates to hardware scout.
func (r *Runner) DQSweep(scale workload.Scale) (*Result, error) {
	return r.sstSweep(scale, Result{
		ID: "F3", Title: "Deferred Queue sizing",
		Notes: []string{"DQ=0 is hardware scout; returns should flatten near the default (64)"},
	}, []string{"oltp", "mcf", "jbb"}, "Figure 3: IPC vs Deferred Queue size", "DQ=%d",
		[]int{0, 8, 16, 32, 64, 128}, func(c *core.Config, n int) { c.DQSize = n })
}

// CheckpointSweep regenerates Figure 4: sensitivity to the number of
// checkpoints (concurrent speculation epochs).
func (r *Runner) CheckpointSweep(scale workload.Scale) (*Result, error) {
	return r.sstSweep(scale, Result{
		ID: "F4", Title: "checkpoint count",
		Notes: []string{"more checkpoints -> finer rollback granularity and deeper miss overlap"},
	}, workload.CommercialNames, "Figure 4: IPC vs number of checkpoints", "ckpt=%d",
		[]int{1, 2, 4, 8}, func(c *core.Config, n int) { c.Checkpoints = n })
}

// SSBSweep regenerates Figure 5: sensitivity to speculative store buffer
// size, on the store-heavy ERP workload.
func (r *Runner) SSBSweep(scale workload.Scale) (*Result, error) {
	return r.sstSweep(scale, Result{ID: "F5", Title: "store buffer sizing"},
		[]string{"erp", "oltp", "quantum"}, "Figure 5: IPC vs speculative store buffer size", "SSB=%d",
		[]int{4, 8, 16, 32, 64}, func(c *core.Config, n int) { c.SSBSize = n })
}

// sstSweep completes res with one table: the SST core's IPC on each
// named workload (rows) for each value of one SST parameter (columns,
// headed by format), set applying a value to the SST configuration.
func (r *Runner) sstSweep(scale workload.Scale, res Result, names []string, title, format string, vals []int, set func(c *core.Config, v int)) (*Result, error) {
	specs, err := workload.BuildSuite(names, scale)
	if err != nil {
		return nil, err
	}
	g := r.runGrid(len(specs), len(vals), func(row, col int) cell {
		opts := r.BaseOptions()
		set(&opts.SST, vals[col])
		return coreCell(sim.KindSST, specs[row], opts)
	})
	t := stats.NewTable(title, headerize("workload", vals, format)...)
	g.table(t, func(row int) any { return specs[row].Name }, (*sim.Outcome).IPC)
	res.Tables, res.Errs = []*stats.Table{t}, errLines(g)
	return &res, nil
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
	g := r.runGrid(len(lats), len(kinds), func(row, col int) cell {
		opts := r.BaseOptions()
		opts.Hier.DRAM.Latency = lats[row]
		return coreCell(kinds[col], w, opts)
	})
	headers := []string{"DRAM latency"}
	for _, k := range kinds {
		headers = append(headers, "IPC "+k.String())
	}
	headers = append(headers, "SST/inorder", "SST/ooo-large")
	t := stats.NewTable("Figure 6: performance vs memory latency (oltp)", headers...)
	for row, lat := range lats {
		vals := g.row([]any{lat}, row, 1, func(_ int, out *sim.Outcome) []any { return []any{out.IPC()} })
		if err := g.rowErr(row); err != nil {
			t.AddRow(fillErr(vals, 2, err)...) // ratios need every cell
			continue
		}
		ipc := func(col int) float64 { out, _ := g.at(row, col); return out.IPC() }
		t.AddRow(append(vals, ipc(2)/ipc(0), ipc(2)/ipc(1))...) // SST over in-order, over ooo-large
	}
	return &Result{
		ID: "F6", Title: "memory latency scaling", Tables: []*stats.Table{t},
		Notes: []string{"SST's speedup over in-order should grow with latency"},
		Errs:  errLines(g),
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
	g := r.runGrid(len(specs), len(bits), func(row, col int) cell {
		opts := r.BaseOptions()
		opts.Pred.GshareBits = bits[col]
		return coreCell(sim.KindSST, specs[row], opts)
	})
	headers := []string{"workload"}
	for _, b := range bits {
		headers = append(headers, fmt.Sprintf("IPC pht=%d", 1<<b), fmt.Sprintf("rollbacks pht=%d", 1<<b))
	}
	t := stats.NewTable("Figure 11: SST vs branch predictor size", headers...)
	for row, w := range specs {
		t.AddRow(g.row([]any{w.Name}, row, 2, func(_ int, out *sim.Outcome) []any {
			return []any{out.IPC(), out.SST.Rollbacks}
		})...)
	}
	return &Result{ID: "F11", Title: "branch predictor sensitivity", Tables: []*stats.Table{t}, Errs: errLines(g)}, nil
}

func headerize(first string, vals []int, format string) []string {
	out := []string{first}
	for _, v := range vals {
		out = append(out, fmt.Sprintf(format, v))
	}
	return out
}

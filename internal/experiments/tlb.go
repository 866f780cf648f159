package experiments

import (
	"rocksim/internal/mem"
	"rocksim/internal/sim"
	"rocksim/internal/stats"
	"rocksim/internal/workload"
)

// TLBSensitivity regenerates Figure 15 (extension): ROCK's checkpoint
// events include data-TLB misses, not just cache misses. With a DTLB
// modeled, an in-order core stalls for every table walk, while SST
// defers past it like any other long-latency event. The figure compares
// slowdown from enabling a 64-entry DTLB on large-footprint workloads.
func (r *Runner) TLBSensitivity(scale workload.Scale) (*Result, error) {
	names := []string{"oltp", "randarr", "jbb", "gcc"}
	specs, err := workload.BuildSuite(names, scale)
	if err != nil {
		return nil, err
	}
	kinds := []sim.Kind{sim.KindInOrder, sim.KindOOOLarge, sim.KindSST}
	baseOpts := r.BaseOptions()
	tlbOpts := r.BaseOptions()
	tlbOpts.Hier.DTLB = mem.DefaultTLBConfig()
	grid := make([]cell, 0, 2*len(specs)*len(kinds))
	for _, w := range specs {
		for _, k := range kinds {
			grid = append(grid, coreCell(k, w, baseOpts), coreCell(k, w, tlbOpts))
		}
	}
	outs, errs := r.runCells(grid)
	headers := []string{"workload", "DTLB miss%"}
	for _, k := range kinds {
		headers = append(headers, k.String()+" noTLB", k.String()+" TLB", k.String()+" slowdown%")
	}
	t := stats.NewTable("Figure 15 (extension): DTLB-miss tolerance (IPC and slowdown)", headers...)
	i := 0
	for _, w := range specs {
		row := []any{w.Name}
		missPct := 0.0
		cols := []any{}
		for range kinds {
			base, out := outs[i], outs[i+1]
			cerr := errs[i]
			if cerr == nil {
				cerr = errs[i+1]
			}
			i += 2
			if cerr != nil {
				cols = fillErr(cols, 3, cerr)
				continue
			}
			if tlb := out.Hier.DTLB; tlb != nil {
				missPct = 100 * tlb[0].MissRate()
			}
			cols = append(cols, base.IPC(), out.IPC(), 100*(base.IPC()/out.IPC()-1))
		}
		row = append(row, missPct)
		row = append(row, cols...)
		t.AddRow(row...)
	}
	return &Result{
		ID: "F15", Title: "TLB-miss tolerance", Tables: []*stats.Table{t},
		Notes: []string{"checkpoint cores absorb table walks like cache misses; stall-on-use cores pay them serially"},
		Errs:  collectErrs(errs),
	}, nil
}

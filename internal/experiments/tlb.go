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
	// Two columns per kind: without, then with the DTLB.
	g := r.runGrid(len(specs), 2*len(kinds), func(row, col int) cell {
		opts := baseOpts
		if col%2 == 1 {
			opts = tlbOpts
		}
		return coreCell(kinds[col/2], specs[row], opts)
	})
	headers := []string{"workload", "DTLB miss%"}
	for _, k := range kinds {
		headers = append(headers, k.String()+" noTLB", k.String()+" TLB", k.String()+" slowdown%")
	}
	t := stats.NewTable("Figure 15 (extension): DTLB-miss tolerance (IPC and slowdown)", headers...)
	for row, w := range specs {
		missPct := 0.0
		var cols []any
		for ki := range kinds {
			base, berr := g.at(row, 2*ki)
			out, err := g.at(row, 2*ki+1)
			if berr != nil {
				err = berr
			}
			if err != nil {
				cols = fillErr(cols, 3, err)
				continue
			}
			if tlb := out.Hier.DTLB; tlb != nil {
				missPct = 100 * tlb[0].MissRate()
			}
			cols = append(cols, base.IPC(), out.IPC(), 100*(base.IPC()/out.IPC()-1))
		}
		t.AddRow(append([]any{w.Name, missPct}, cols...)...)
	}
	return &Result{
		ID: "F15", Title: "TLB-miss tolerance", Tables: []*stats.Table{t},
		Notes: []string{"checkpoint cores absorb table walks like cache misses; stall-on-use cores pay them serially"},
		Errs:  errLines(g),
	}, nil
}

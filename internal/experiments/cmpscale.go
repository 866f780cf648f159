package experiments

import (
	"rocksim/internal/asm"
	"rocksim/internal/sim"
	"rocksim/internal/stats"
	"rocksim/internal/workload"
)

// CMPScaling regenerates Figure 9: chip throughput as core count grows,
// for chips of in-order, large-OOO and SST cores running a
// multiprogrammed commercial mix over the shared L2/DRAM. ROCK's design
// point is 16 small SST cores; the figure shows aggregate throughput and
// how shared-memory contention erodes per-core performance for each
// core type.
func (r *Runner) CMPScaling(scale workload.Scale) (*Result, error) {
	counts := []int{1, 2, 4, 8, 16}
	if scale == workload.ScaleTest {
		counts = []int{1, 2, 4}
	}
	mixNames := workload.CommercialNames
	kinds := []sim.Kind{sim.KindInOrder, sim.KindOOOLarge, sim.KindSST}

	headers := []string{"cores"}
	for _, k := range kinds {
		headers = append(headers, "ipc/chip "+k.String(), "ipc/core "+k.String())
	}
	t := stats.NewTable("Figure 9: CMP throughput scaling (commercial mix)", headers...)

	opts := r.BaseOptions()
	// Build each count's program mix up front (cheap, and shared
	// read-only by the chip cells): round-robin over the commercial suite.
	mixes := make([][]*asm.Program, len(counts))
	for ci, n := range counts {
		progs := make([]*asm.Program, 0, n)
		for i := 0; i < n; i++ {
			w, err := workload.Build(mixNames[i%len(mixNames)], scale)
			if err != nil {
				return nil, err
			}
			progs = append(progs, w.Program)
		}
		mixes[ci] = progs
	}
	// One chip cell per (count, kind).
	g := r.runGrid(len(counts), len(kinds), func(row, col int) cell {
		return cell{sim.Cell{Kind: kinds[col], Topo: sim.TopoCMP, Progs: mixes[row]}, opts}
	})
	for row, n := range counts {
		t.AddRow(g.row([]any{n}, row, 2, func(_ int, out *sim.Outcome) []any {
			tp := out.IPC()
			return []any{tp, tp / float64(n)}
		})...)
	}
	return &Result{
		ID: "F9", Title: "CMP throughput scaling", Tables: []*stats.Table{t},
		Notes: []string{"per-core IPC decays with contention; aggregate throughput keeps rising"},
		Errs:  errLines(g),
	}, nil
}

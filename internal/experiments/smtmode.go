package experiments

import (
	"rocksim/internal/asm"
	"rocksim/internal/sim"
	"rocksim/internal/stats"
	"rocksim/internal/workload"
)

// SMTMode regenerates Figure 12 (extension): the ROCK core's two
// operating modes compared. A physical core can either run TWO software
// threads with fine-grained multithreading (throughput mode) or devote
// both hardware strands to ONE thread under SST (latency mode). The
// figure reports per-thread and aggregate IPC for both choices on pairs
// of commercial workloads sharing one core's L1s.
//
// Approximation: the two SMT threads' code images share L1I index space
// (both load at the same text base); the code footprints are far below
// the L1I so the timing effect is negligible.
func (r *Runner) SMTMode(scale workload.Scale) (*Result, error) {
	pairs := [][2]string{{"oltp", "jbb"}, {"web", "erp"}, {"oltp", "web"}}
	opts := r.BaseOptions()
	// Three cells per pair: each thread alone on an SST core (sharing the
	// run cache with F1, and "oltp" across pairs) and the two as the
	// strands of one SMT-2 core. The pair's strands draw their predictors
	// from one group, so opts.Pred.Share decides the table sharing.
	specs := make([][]*workload.Spec, len(pairs))
	for i, pair := range pairs {
		var err error
		if specs[i], err = workload.BuildSuite(pair[:], scale); err != nil {
			return nil, err
		}
	}
	g := r.runGrid(len(pairs), 3, func(row, col int) cell {
		wa, wb := specs[row][0], specs[row][1]
		switch col {
		case 0:
			return coreCell(sim.KindSST, wa, opts)
		case 1:
			return coreCell(sim.KindSST, wb, opts)
		}
		return cell{sim.Cell{Kind: sim.KindInOrder, Topo: sim.TopoSMT,
			Progs: []*asm.Program{wa.Program, wb.Program}}, opts}
	})
	t := stats.NewTable("Figure 12 (extension): one core, two uses — SMT-2 throughput vs SST latency",
		"pair", "sst A", "sst B", "smt A", "smt B", "smt aggregate", "sst-A/smt-A")
	for row, pair := range pairs {
		name := pair[0] + "+" + pair[1]
		if err := g.rowErr(row); err != nil {
			t.AddRow(fillErr([]any{name}, 6, err)...)
			continue
		}
		a, _ := g.at(row, 0)
		b, _ := g.at(row, 1)
		smt, _ := g.at(row, 2)
		sstA, sstB := a.IPC(), b.IPC()
		th := smt.Threads
		smtA := float64(th[0].Base.Retired) / float64(smt.Cycles)
		smtB := float64(th[1].Base.Retired) / float64(smt.Cycles)
		t.AddRow(name, sstA, sstB, smtA, smtB, smtA+smtB, sstA/smtA)
	}
	return &Result{
		ID: "F12", Title: "SMT-throughput vs SST-latency mode", Tables: []*stats.Table{t},
		Notes: []string{
			"SST mode trades one thread's slot for per-thread speed; SMT mode trades latency for aggregate throughput — ROCK exposes both",
		},
		Errs: errLines(g),
	}, nil
}

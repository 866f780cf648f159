package experiments

import (
	"fmt"

	"rocksim/internal/core"
	"rocksim/internal/cpu"
	"rocksim/internal/sim"
	"rocksim/internal/stats"
	"rocksim/internal/workload"
)

// PerfComparison regenerates Figure 1, the headline result: per-thread
// performance of each machine on the commercial suite, normalized to the
// in-order core. The paper's claim: certain SST implementations are ~18%
// faster per thread than larger, higher-powered out-of-order cores on
// commercial benchmarks.
func (r *Runner) PerfComparison(scale workload.Scale) (*Result, error) {
	specs, err := workload.BuildSuite(workload.CommercialNames, scale)
	if err != nil {
		return nil, err
	}
	opts := r.BaseOptions()
	cells := make([]cell, 0, len(specs)*len(sim.Kinds))
	for _, w := range specs {
		for _, k := range sim.Kinds {
			cells = append(cells, coreCell(k, w, opts))
		}
	}
	outs, errs := r.runCells(cells)
	t := stats.NewTable("Figure 1: per-thread speedup over in-order (commercial suite)",
		append([]string{"workload"}, kindNames()...)...)
	perKind := map[sim.Kind][]float64{}
	i := 0
	for _, w := range specs {
		row := []any{w.Name}
		var baseIPC float64
		var baseErr error
		for _, k := range sim.Kinds {
			out, cerr := outs[i], errs[i]
			i++
			if k == sim.KindInOrder {
				baseIPC, baseErr = out.IPC(), cerr
			}
			if cerr == nil {
				cerr = baseErr // a failed baseline fails the row's ratios
			}
			if cerr != nil {
				row = append(row, errCell(cerr))
				continue
			}
			sp := out.IPC() / baseIPC
			perKind[k] = append(perKind[k], sp)
			row = append(row, sp)
		}
		t.AddRow(row...)
	}
	row := []any{"geomean"}
	geo := map[sim.Kind]float64{}
	for _, k := range sim.Kinds {
		geo[k] = stats.GeoMean(perKind[k])
		row = append(row, geo[k])
	}
	t.AddRow(row...)

	sstVsOOO := 100 * (geo[sim.KindSST]/geo[sim.KindOOOLarge] - 1)
	bigVsOOO := 100 * (geo[sim.KindSSTBig]/geo[sim.KindOOOLarge] - 1)
	return &Result{
		ID:     "F1",
		Title:  "per-thread performance vs in-order",
		Tables: []*stats.Table{t},
		Notes: []string{
			fmt.Sprintf("SST vs larger OOO on commercial geomean: %+.1f%% per-thread (paper reports ~+18%% for \"certain SST implementations\")", sstVsOOO),
			fmt.Sprintf("SST-big vs larger OOO: %+.1f%% — the paper's number sits between the two configurations", bigVsOOO),
			fmt.Sprintf("SST vs in-order geomean: %.2fx (SST-big %.2fx)", geo[sim.KindSST], geo[sim.KindSSTBig]),
		},
		Errs: collectErrs(errs),
	}, nil
}

func kindNames() []string {
	var out []string
	for _, k := range sim.Kinds {
		out = append(out, k.String())
	}
	return out
}

// ModeBreakdown regenerates Figure 2: where SST cycles go per workload
// (normal / ahead / replay / simultaneous / scout / stalls).
func (r *Runner) ModeBreakdown(scale workload.Scale) (*Result, error) {
	specs, err := workload.BuildSuite(workload.CommercialNames, scale)
	if err != nil {
		return nil, err
	}
	specs2, err := workload.BuildSuite([]string{"mcf", "stream"}, scale)
	if err != nil {
		return nil, err
	}
	specs = append(specs, specs2...)
	opts := r.BaseOptions()
	cells := make([]cell, 0, len(specs))
	for _, w := range specs {
		cells = append(cells, coreCell(sim.KindSST, w, opts))
	}
	outs, errs := r.runCells(cells)
	headers := []string{"workload"}
	for k := core.CycleKind(0); k < core.NumCycleKinds; k++ {
		headers = append(headers, k.String()+"%")
	}
	headers = append(headers, "top-loss")
	t := stats.NewTable("Figure 2: SST execution-cycle breakdown", headers...)
	for i, w := range specs {
		row := []any{w.Name}
		if errs[i] != nil {
			t.AddRow(fillErr(row, int(core.NumCycleKinds)+1, errs[i])...)
			continue
		}
		st := outs[i].SST
		for k := core.CycleKind(0); k < core.NumCycleKinds; k++ {
			row = append(row, stats.Pct(st.ModeCycles[k], st.Cycles))
		}
		// The cycle-accounting view of the same run: the single bucket
		// costing the most cycles (rollback causes included).
		row = append(row, sim.TopLoss(&st.BaseStats))
		t.AddRow(row...)
	}
	return &Result{ID: "F2", Title: "SST execution-time breakdown", Tables: []*stats.Table{t}, Errs: collectErrs(errs)}, nil
}

// MLPComparison regenerates Figure 7: average outstanding misses (over
// miss cycles) per machine — the mechanism behind Figure 1.
func (r *Runner) MLPComparison(scale workload.Scale) (*Result, error) {
	names := append(append([]string{}, workload.CommercialNames...), "mcf", "stream", "randarr", "chase")
	specs, err := workload.BuildSuite(names, scale)
	if err != nil {
		return nil, err
	}
	opts := r.BaseOptions()
	cells := make([]cell, 0, len(specs)*len(sim.Kinds))
	for _, w := range specs {
		for _, k := range sim.Kinds {
			cells = append(cells, coreCell(k, w, opts))
		}
	}
	outs, errs := r.runCells(cells)
	t := stats.NewTable("Figure 7: memory-level parallelism (mean outstanding L1D misses while missing)",
		append([]string{"workload"}, kindNames()...)...)
	i := 0
	for _, w := range specs {
		row := []any{w.Name}
		for range sim.Kinds {
			if errs[i] != nil {
				row = append(row, errCell(errs[i]))
			} else {
				row = append(row, outs[i].Base.MLP())
			}
			i++
		}
		t.AddRow(row...)
	}
	return &Result{ID: "F7", Title: "memory-level parallelism", Tables: []*stats.Table{t}, Errs: collectErrs(errs)}, nil
}

// Ablation regenerates Figure 8: how much of SST's win comes from each
// mechanism — scout (prefetch only), execute-ahead (DQ, one strand), and
// full SST (simultaneous second strand).
func (r *Runner) Ablation(scale workload.Scale) (*Result, error) {
	names := append(append([]string{}, workload.CommercialNames...), "mcf", "stream", "gcc")
	specs, err := workload.BuildSuite(names, scale)
	if err != nil {
		return nil, err
	}
	opts := r.BaseOptions()
	kinds := []sim.Kind{sim.KindInOrder, sim.KindScout, sim.KindSSTEA, sim.KindSST}
	cells := make([]cell, 0, len(specs)*len(kinds))
	for _, w := range specs {
		for _, k := range kinds {
			cells = append(cells, coreCell(k, w, opts))
		}
	}
	outs, errs := r.runCells(cells)
	headers := []string{"workload"}
	for _, k := range kinds {
		headers = append(headers, k.String())
	}
	t := stats.NewTable("Figure 8: ablation — speedup over in-order", headers...)
	acc := map[sim.Kind][]float64{}
	i := 0
	for _, w := range specs {
		row := []any{w.Name}
		var base float64
		var baseErr error
		for _, k := range kinds {
			out, cerr := outs[i], errs[i]
			i++
			if k == sim.KindInOrder {
				base, baseErr = out.IPC(), cerr
			}
			if cerr == nil {
				cerr = baseErr
			}
			if cerr != nil {
				row = append(row, errCell(cerr))
				continue
			}
			sp := out.IPC() / base
			acc[k] = append(acc[k], sp)
			row = append(row, sp)
		}
		t.AddRow(row...)
	}
	row := []any{"geomean"}
	for _, k := range kinds {
		row = append(row, stats.GeoMean(acc[k]))
	}
	t.AddRow(row...)
	return &Result{
		ID:     "F8",
		Title:  "mechanism ablation",
		Tables: []*stats.Table{t},
		Notes: []string{
			"expected ordering: in-order <= scout <= execute-ahead <= SST",
		},
		Errs: collectErrs(errs),
	}, nil
}

// RollbackAccounting regenerates Figure 10: speculation failure causes
// and the wasted-work rate.
func (r *Runner) RollbackAccounting(scale workload.Scale) (*Result, error) {
	specs, err := workload.BuildAll(scale)
	if err != nil {
		return nil, err
	}
	opts := r.BaseOptions()
	cells := make([]cell, 0, len(specs))
	for _, w := range specs {
		cells = append(cells, coreCell(sim.KindSST, w, opts))
	}
	outs, errs := r.runCells(cells)
	headers := []string{"workload", "checkpoints", "commits", "rollbacks"}
	for c := core.RollbackCause(0); c < core.NumRollbackCauses; c++ {
		headers = append(headers, "rb:"+c.String())
	}
	headers = append(headers, "discarded-insts%", "discarded-cycles%", "defer%", "dq-occ-mean")
	t := stats.NewTable("Figure 10: SST speculation outcome accounting", headers...)
	for i, w := range specs {
		row := []any{w.Name}
		if errs[i] != nil {
			t.AddRow(fillErr(row, len(headers)-1, errs[i])...)
			continue
		}
		st := outs[i].SST
		row = append(row, st.CheckpointsTaken, st.EpochCommits, st.Rollbacks)
		for cse := core.RollbackCause(0); cse < core.NumRollbackCauses; cse++ {
			row = append(row, st.RollbacksBy[cse])
		}
		// Cycle-accounting view: cycles re-attributed to rollback causes
		// (work the rollbacks discarded) as a share of all cycles.
		var rbCycles uint64
		for cse := core.RollbackCause(0); cse < core.NumRollbackCauses; cse++ {
			rbCycles += st.CPI[cpu.BktRollback0+cpu.Bucket(cse)]
		}
		row = append(row,
			stats.Pct(st.DiscardedInsts, st.DiscardedInsts+st.Retired),
			stats.Pct(rbCycles, st.Cycles),
			stats.Pct(st.Deferrals, st.Retired),
			st.DQOcc.Mean())
		t.AddRow(row...)
	}
	return &Result{ID: "F10", Title: "rollback accounting", Tables: []*stats.Table{t}, Errs: collectErrs(errs)}, nil
}

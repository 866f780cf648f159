package experiments

import (
	"fmt"
	"slices"

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
	t, geo, errs := r.speedups("Figure 1: per-thread speedup over in-order (commercial suite)", specs, sim.Kinds)
	geoOf := func(k sim.Kind) float64 { return geo[slices.Index(sim.Kinds, k)] }
	sstVsOOO := 100 * (geoOf(sim.KindSST)/geoOf(sim.KindOOOLarge) - 1)
	bigVsOOO := 100 * (geoOf(sim.KindSSTBig)/geoOf(sim.KindOOOLarge) - 1)
	return &Result{
		ID:     "F1",
		Title:  "per-thread performance vs in-order",
		Tables: []*stats.Table{t},
		Notes: []string{
			fmt.Sprintf("SST vs larger OOO on commercial geomean: %+.1f%% per-thread (paper reports ~+18%% for \"certain SST implementations\")", sstVsOOO),
			fmt.Sprintf("SST-big vs larger OOO: %+.1f%% — the paper's number sits between the two configurations", bigVsOOO),
			fmt.Sprintf("SST vs in-order geomean: %.2fx (SST-big %.2fx)", geoOf(sim.KindSST), geoOf(sim.KindSSTBig)),
		},
		Errs: errs,
	}, nil
}

// speedups runs every workload on every kind, kinds[0] being the
// in-order baseline, and tabulates each kind's speedup over that
// baseline with a closing geomean row. A failed baseline fails its
// row's ratios. It returns the table, the geomean per kind (in kinds
// order) and the attributed failures.
func (r *Runner) speedups(title string, specs []*workload.Spec, kinds []sim.Kind) (*stats.Table, []float64, []string) {
	opts := r.BaseOptions()
	g := r.runGrid(len(specs), len(kinds), func(row, col int) cell {
		return coreCell(kinds[col], specs[row], opts)
	})
	t := stats.NewTable(title, append([]string{"workload"}, kindNames(kinds)...)...)
	acc := make([][]float64, len(kinds))
	for row, w := range specs {
		base, baseErr := g.at(row, 0)
		t.AddRow(g.row([]any{w.Name}, row, 1, func(col int, out *sim.Outcome) []any {
			if baseErr != nil {
				return []any{errCell(baseErr)}
			}
			sp := out.IPC() / base.IPC()
			acc[col] = append(acc[col], sp)
			return []any{sp}
		})...)
	}
	geo := make([]float64, len(kinds))
	row := []any{"geomean"}
	for col := range kinds {
		geo[col] = stats.GeoMean(acc[col])
		row = append(row, geo[col])
	}
	t.AddRow(row...)
	return t, geo, errLines(g)
}

func kindNames(kinds []sim.Kind) []string {
	var out []string
	for _, k := range kinds {
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
	g := r.runGrid(len(specs), 1, func(row, _ int) cell { return coreCell(sim.KindSST, specs[row], opts) })
	headers := []string{"workload"}
	for k := core.CycleKind(0); k < core.NumCycleKinds; k++ {
		headers = append(headers, k.String()+"%")
	}
	headers = append(headers, "top-loss")
	t := stats.NewTable("Figure 2: SST execution-cycle breakdown", headers...)
	for row, w := range specs {
		t.AddRow(g.row([]any{w.Name}, row, int(core.NumCycleKinds)+1, func(_ int, out *sim.Outcome) []any {
			st := out.SST
			var vals []any
			for k := core.CycleKind(0); k < core.NumCycleKinds; k++ {
				vals = append(vals, stats.Pct(st.ModeCycles[k], st.Cycles))
			}
			// The cycle-accounting view of the same run: the single bucket
			// costing the most cycles (rollback causes included).
			return append(vals, sim.TopLoss(&st.BaseStats))
		})...)
	}
	return &Result{ID: "F2", Title: "SST execution-time breakdown", Tables: []*stats.Table{t}, Errs: errLines(g)}, nil
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
	g := r.runGrid(len(specs), len(sim.Kinds), func(row, col int) cell {
		return coreCell(sim.Kinds[col], specs[row], opts)
	})
	t := stats.NewTable("Figure 7: memory-level parallelism (mean outstanding L1D misses while missing)",
		append([]string{"workload"}, kindNames(sim.Kinds)...)...)
	g.table(t, func(row int) any { return specs[row].Name }, func(out *sim.Outcome) float64 { return out.Base.MLP() })
	return &Result{ID: "F7", Title: "memory-level parallelism", Tables: []*stats.Table{t}, Errs: errLines(g)}, nil
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
	kinds := []sim.Kind{sim.KindInOrder, sim.KindScout, sim.KindSSTEA, sim.KindSST}
	t, _, errs := r.speedups("Figure 8: ablation — speedup over in-order", specs, kinds)
	return &Result{
		ID:     "F8",
		Title:  "mechanism ablation",
		Tables: []*stats.Table{t},
		Notes: []string{
			"expected ordering: in-order <= scout <= execute-ahead <= SST",
		},
		Errs: errs,
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
	g := r.runGrid(len(specs), 1, func(row, _ int) cell { return coreCell(sim.KindSST, specs[row], opts) })
	headers := []string{"workload", "checkpoints", "commits", "rollbacks"}
	for c := core.RollbackCause(0); c < core.NumRollbackCauses; c++ {
		headers = append(headers, "rb:"+c.String())
	}
	headers = append(headers, "discarded-insts%", "discarded-cycles%", "defer%", "dq-occ-mean")
	t := stats.NewTable("Figure 10: SST speculation outcome accounting", headers...)
	for row, w := range specs {
		t.AddRow(g.row([]any{w.Name}, row, len(headers)-1, func(_ int, out *sim.Outcome) []any {
			st := out.SST
			vals := []any{st.CheckpointsTaken, st.EpochCommits, st.Rollbacks}
			for cse := core.RollbackCause(0); cse < core.NumRollbackCauses; cse++ {
				vals = append(vals, st.RollbacksBy[cse])
			}
			// Cycle-accounting view: cycles re-attributed to rollback causes
			// (work the rollbacks discarded) as a share of all cycles.
			var rbCycles uint64
			for cse := core.RollbackCause(0); cse < core.NumRollbackCauses; cse++ {
				rbCycles += st.CPI[cpu.BktRollback0+cpu.Bucket(cse)]
			}
			return append(vals,
				stats.Pct(st.DiscardedInsts, st.DiscardedInsts+st.Retired),
				stats.Pct(rbCycles, st.Cycles),
				stats.Pct(st.Deferrals, st.Retired),
				st.DQOcc.Mean())
		})...)
	}
	return &Result{ID: "F10", Title: "rollback accounting", Tables: []*stats.Table{t}, Errs: errLines(g)}, nil
}

package experiments

import (
	"fmt"

	"rocksim/internal/asm"
	"rocksim/internal/bpred"
	"rocksim/internal/core"
	"rocksim/internal/sim"
	"rocksim/internal/stats"
	"rocksim/internal/workload"
)

// bpredKinds lists the predictor kinds the B1 grid compares, in
// presentation order (gshare is the baseline, column-left).
var bpredKinds = []bpred.Kind{bpred.Gshare, bpred.TAGE}

// bpredShareModes lists the strand-sharing policies of the grid.
var bpredShareModes = []bpred.ShareMode{bpred.SharePartitioned, bpred.ShareShared, bpred.ShareHashed}

// bpredSMTPairs are the SMT-2 coschedules of the grid. Homogeneous
// pairs are the interesting ones: two copies of one program hit the
// same branch pcs, so pooled tables constructively share training
// (gcc+gcc) or destructively interfere when the strands run the same
// pattern out of phase (brfield+brfield), and hashing restores
// partitioned-like isolation. A heterogeneous taken-biased pair
// (brfield+loopnest) is the control: saturated counters absorb
// cross-strand aliasing, so all three policies coincide.
var bpredSMTPairs = [][2]string{{"gcc", "gcc"}, {"brfield", "brfield"}, {"brfield", "loopnest"}}

// BpredGrid runs B1: the predictor-architecture grid. SST turns branch
// misprediction into rollback (Figure 5's dominant non-memory cost), so
// the predictor trains deferred branches at replay resolution — this
// grid reports how much a TAGE-lite predictor recovers over gshare on
// loop-heavy workloads, and how the strand-sharing policy moves the
// numbers when two SMT strands or four CMP cores draw predictors from
// one group.
//
// Three tables: (B1a) one SST core per kind — deferred-branch mispredict
// rate, RbBranch rollbacks and IPC; (B1b) SMT-2 pairs × kind × share
// mode — aggregate direction-mispredict rate and aggregate IPC; (B1c) a
// 4-core SST CMP × kind × share mode — chip deferred mispredict rate,
// rollbacks and throughput.
func (r *Runner) BpredGrid(scale workload.Scale) (*Result, error) {
	opts := r.BaseOptions()
	names := workload.LoopHeavyNames
	nk, nm := len(bpredKinds), len(bpredShareModes)

	// B1a: single SST core per (workload, kind); the share mode is
	// deliberately left at base (one strand cannot observe sharing), so
	// these cells dedup with any other experiment touching the same kind.
	cells := make([]cell, 0, len(names)*nk)
	for _, n := range names {
		w, err := workload.Build(n, scale)
		if err != nil {
			return nil, err
		}
		for _, k := range bpredKinds {
			o := opts
			o.Pred.Kind = k
			cells = append(cells, coreCell(sim.KindSST, w, o))
		}
	}
	outs, errs1 := r.runCells(cells)
	t1 := stats.NewTable("B1a: deferred-branch prediction, one SST core",
		"workload", "kind", "deferred", "mispred", "mispred%", "rb-branch", "ipc")
	for i := range cells {
		wname, kname := names[i/nk], bpredKinds[i%nk].String()
		if errs1[i] != nil {
			t1.AddRow(fillErr([]any{wname, kname}, 5, errs1[i])...)
			continue
		}
		s := outs[i].SST
		t1.AddRow(wname, kname, s.DeferredBranches, s.DeferredBranchMispred,
			pct(s.DeferredBranchMispred, s.DeferredBranches),
			s.RollbacksBy[core.RbBranch], outs[i].IPC())
	}

	// B1b: SMT-2 share grid, one pair cell per (pair, kind, mode),
	// assembled in flat-index order.
	smtCells := make([]cell, 0, len(bpredSMTPairs)*nk*nm)
	for _, p := range bpredSMTPairs {
		wa, err := workload.Build(p[0], scale)
		if err != nil {
			return nil, err
		}
		wb, err := workload.Build(p[1], scale)
		if err != nil {
			return nil, err
		}
		for _, k := range bpredKinds {
			for _, m := range bpredShareModes {
				o := opts
				o.Pred.Kind = k
				o.Pred.Share = m
				smtCells = append(smtCells, cell{sim.Cell{Kind: sim.KindInOrder, Topo: sim.TopoSMT,
					Progs: []*asm.Program{wa.Program, wb.Program}}, o})
			}
		}
	}
	smtOuts, errs2 := r.runCells(smtCells)
	// smtRate is a pair's aggregate direction-mispredict rate.
	smtRate := func(out sim.Outcome) float64 {
		var look, mis uint64
		for _, th := range out.Threads {
			look += th.Pred.DirLookups
			mis += th.Pred.DirMispredict
		}
		return pct(mis, look)
	}
	h2 := []string{"pair", "kind"}
	for _, m := range bpredShareModes {
		h2 = append(h2, "misp% "+m.String(), "ipc "+m.String())
	}
	t2 := stats.NewTable("B1b: SMT-2 predictor sharing (both strands busy)", h2...)
	for pi, p := range bpredSMTPairs {
		for ki, k := range bpredKinds {
			row := []any{p[0] + "+" + p[1], k.String()}
			for mi := range bpredShareModes {
				i := pi*nk*nm + ki*nm + mi
				if errs2[i] != nil {
					row = fillErr(row, 2, errs2[i])
					continue
				}
				row = append(row, smtRate(smtOuts[i]), smtOuts[i].IPC())
			}
			t2.AddRow(row...)
		}
	}

	// B1c: 4-core SST CMP share grid over the loop-heavy mix.
	progs := make([]*asm.Program, 0, len(names))
	for _, n := range names {
		w, err := workload.Build(n, scale)
		if err != nil {
			return nil, err
		}
		progs = append(progs, w.Program)
	}
	cmpCells := make([]cell, 0, nk*nm)
	for _, k := range bpredKinds {
		for _, m := range bpredShareModes {
			o := opts
			o.Pred.Kind = k
			o.Pred.Share = m
			cmpCells = append(cmpCells, cell{sim.Cell{Kind: sim.KindSST, Topo: sim.TopoCMP, Progs: progs}, o})
		}
	}
	cmpOuts, errs3 := r.runCells(cmpCells)
	h3 := []string{"kind"}
	for _, m := range bpredShareModes {
		h3 = append(h3, "dmisp% "+m.String(), "rb-branch "+m.String(), "ipc/chip "+m.String())
	}
	t3 := stats.NewTable(fmt.Sprintf("B1c: CMP-%d SST predictor sharing (loop-heavy mix)", len(progs)), h3...)
	for ki, k := range bpredKinds {
		row := []any{k.String()}
		for mi := range bpredShareModes {
			i := ki*nm + mi
			if errs3[i] != nil {
				row = fillErr(row, 3, errs3[i])
				continue
			}
			var def, mis, rb uint64
			for _, th := range cmpOuts[i].Threads {
				def += th.SST.DeferredBranches
				mis += th.SST.DeferredBranchMispred
				rb += th.SST.RollbacksBy[core.RbBranch]
			}
			row = append(row, pct(mis, def), rb, cmpOuts[i].IPC())
		}
		t3.AddRow(row...)
	}

	// Headline: the tage-vs-gshare delta on the two engineered
	// deferred-branch workloads, computed from the B1a cells.
	notes := []string{
		"deferred branches train at replay resolution, not fetch: the predictor sees the outcome when the strand verifies it, and RbBranch rollbacks restore the history checkpoint",
		"one strand cannot observe sharing: partitioned, shared and hashed collapse byte-identically (hashed salts strand 0 with 0)",
	}
	for _, w := range []string{"brfield", "loopnest"} {
		gi, ti := -1, -1
		for wi, n := range names {
			if n == w {
				gi, ti = wi*nk, wi*nk+1
			}
		}
		if gi < 0 || errs1[gi] != nil || errs1[ti] != nil {
			continue
		}
		gs, ts := outs[gi].SST, outs[ti].SST
		notes = append(notes, fmt.Sprintf(
			"%s: tage cuts the deferred mispredict rate %.2f%% -> %.2f%% (rb-branch %d -> %d), ipc %.3f -> %.3f (%+.1f%%)",
			w,
			pct(gs.DeferredBranchMispred, gs.DeferredBranches),
			pct(ts.DeferredBranchMispred, ts.DeferredBranches),
			gs.RollbacksBy[core.RbBranch], ts.RollbacksBy[core.RbBranch],
			outs[gi].IPC(), outs[ti].IPC(), 100*(outs[ti].IPC()/outs[gi].IPC()-1)))
	}

	// Sharing-policy observation, computed from the gshare rows of B1b:
	// pooling helps a homogeneous coschedule and hurts a phase-shifted
	// one, while hashing tracks partitioned.
	if gi := 0; errs2[gi*nk*nm] == nil && errs2[gi*nk*nm+1] == nil {
		part, shared := smtOuts[gi*nk*nm], smtOuts[gi*nk*nm+1]
		notes = append(notes, fmt.Sprintf(
			"gcc+gcc (gshare): pooled tables share training constructively, mispredict %.2f%% -> %.2f%%",
			smtRate(part), smtRate(shared)))
	}
	var allErrs []error
	allErrs = append(allErrs, errs1...)
	allErrs = append(allErrs, errs2...)
	allErrs = append(allErrs, errs3...)
	return &Result{
		ID: "B1", Title: "Branch prediction: kind x sharing grid",
		Tables: []*stats.Table{t1, t2, t3},
		Notes:  notes,
		Errs:   collectErrs(allErrs),
	}, nil
}

// pct returns 100*num/den, 0 when den is 0.
func pct(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

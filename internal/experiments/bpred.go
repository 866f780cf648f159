package experiments

import (
	"fmt"
	"slices"

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
	specs, err := workload.BuildSuite(names, scale)
	if err != nil {
		return nil, err
	}
	predOpts := func(k bpred.Kind, m bpred.ShareMode) sim.Options {
		o := opts
		o.Pred.Kind, o.Pred.Share = k, m
		return o
	}

	// B1a: single SST core per (workload, kind); the share mode is
	// deliberately left at base (one strand cannot observe sharing), so
	// these cells dedup with any other experiment touching the same kind.
	g1 := r.runGrid(len(specs), len(bpredKinds), func(row, col int) cell {
		return coreCell(sim.KindSST, specs[row], predOpts(bpredKinds[col], opts.Pred.Share))
	})
	t1 := stats.NewTable("B1a: deferred-branch prediction, one SST core",
		"workload", "kind", "deferred", "mispred", "mispred%", "rb-branch", "ipc")
	for row, n := range names {
		for col, k := range bpredKinds {
			vals := []any{n, k.String()}
			if out, err := g1.at(row, col); err != nil {
				vals = fillErr(vals, 5, err)
			} else {
				s := out.SST
				vals = append(vals, s.DeferredBranches, s.DeferredBranchMispred,
					pct(s.DeferredBranchMispred, s.DeferredBranches),
					s.RollbacksBy[core.RbBranch], out.IPC())
			}
			t1.AddRow(vals...)
		}
	}

	// B1b: SMT-2 share grid, one pair cell per mode in each (pair, kind)
	// row.
	pairs := make([][]*asm.Program, len(bpredSMTPairs))
	for i, p := range bpredSMTPairs {
		for _, n := range p {
			w, err := workload.Build(n, scale)
			if err != nil {
				return nil, err
			}
			pairs[i] = append(pairs[i], w.Program)
		}
	}
	nk := len(bpredKinds)
	g2 := r.runGrid(len(pairs)*nk, len(bpredShareModes), func(row, col int) cell {
		return cell{sim.Cell{Kind: sim.KindInOrder, Topo: sim.TopoSMT, Progs: pairs[row/nk]},
			predOpts(bpredKinds[row%nk], bpredShareModes[col])}
	})
	// smtRate is a pair's aggregate direction-mispredict rate.
	smtRate := func(out *sim.Outcome) float64 {
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
	for row := 0; row < len(pairs)*nk; row++ {
		p, k := bpredSMTPairs[row/nk], bpredKinds[row%nk]
		t2.AddRow(g2.row([]any{p[0] + "+" + p[1], k.String()}, row, 2, func(_ int, out *sim.Outcome) []any {
			return []any{smtRate(out), out.IPC()}
		})...)
	}

	// B1c: 4-core SST CMP share grid over the loop-heavy mix.
	progs := make([]*asm.Program, 0, len(specs))
	for _, w := range specs {
		progs = append(progs, w.Program)
	}
	g3 := r.runGrid(nk, len(bpredShareModes), func(row, col int) cell {
		return cell{sim.Cell{Kind: sim.KindSST, Topo: sim.TopoCMP, Progs: progs},
			predOpts(bpredKinds[row], bpredShareModes[col])}
	})
	h3 := []string{"kind"}
	for _, m := range bpredShareModes {
		h3 = append(h3, "dmisp% "+m.String(), "rb-branch "+m.String(), "ipc/chip "+m.String())
	}
	t3 := stats.NewTable(fmt.Sprintf("B1c: CMP-%d SST predictor sharing (loop-heavy mix)", len(progs)), h3...)
	for row, k := range bpredKinds {
		t3.AddRow(g3.row([]any{k.String()}, row, 3, func(_ int, out *sim.Outcome) []any {
			var def, mis, rb uint64
			for _, th := range out.Threads {
				def += th.SST.DeferredBranches
				mis += th.SST.DeferredBranchMispred
				rb += th.SST.RollbacksBy[core.RbBranch]
			}
			return []any{pct(mis, def), rb, out.IPC()}
		})...)
	}

	// Headline: the tage-vs-gshare delta on the two engineered
	// deferred-branch workloads, computed from the B1a cells.
	notes := []string{
		"deferred branches train at replay resolution, not fetch: the predictor sees the outcome when the strand verifies it, and RbBranch rollbacks restore the history checkpoint",
		"one strand cannot observe sharing: partitioned, shared and hashed collapse byte-identically (hashed salts strand 0 with 0)",
	}
	for _, w := range []string{"brfield", "loopnest"} {
		row := slices.Index(names, w)
		if row < 0 || g1.rowErr(row) != nil {
			continue
		}
		gout, _ := g1.at(row, 0)
		tout, _ := g1.at(row, 1)
		gs, ts := gout.SST, tout.SST
		notes = append(notes, fmt.Sprintf(
			"%s: tage cuts the deferred mispredict rate %.2f%% -> %.2f%% (rb-branch %d -> %d), ipc %.3f -> %.3f (%+.1f%%)",
			w,
			pct(gs.DeferredBranchMispred, gs.DeferredBranches),
			pct(ts.DeferredBranchMispred, ts.DeferredBranches),
			gs.RollbacksBy[core.RbBranch], ts.RollbacksBy[core.RbBranch],
			gout.IPC(), tout.IPC(), 100*(tout.IPC()/gout.IPC()-1)))
	}

	// Sharing-policy observation, computed from the gshare row of the
	// first pair in B1b: pooling helps a homogeneous coschedule and hurts
	// a phase-shifted one, while hashing tracks partitioned.
	part, perr := g2.at(0, 0)
	shared, serr := g2.at(0, 1)
	if perr == nil && serr == nil {
		notes = append(notes, fmt.Sprintf(
			"gcc+gcc (gshare): pooled tables share training constructively, mispredict %.2f%% -> %.2f%%",
			smtRate(part), smtRate(shared)))
	}
	return &Result{
		ID: "B1", Title: "Branch prediction: kind x sharing grid",
		Tables: []*stats.Table{t1, t2, t3},
		Notes:  notes,
		Errs:   errLines(g1, g2, g3),
	}, nil
}

// pct returns 100*num/den, 0 when den is 0.
func pct(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

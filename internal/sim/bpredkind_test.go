package sim

import (
	"testing"

	"rocksim/internal/bpred"
	"rocksim/internal/core"
	"rocksim/internal/workload"
)

// sstWithPredKind runs one SST cell with the given predictor kind and
// returns the SST stats block and the outcome.
func sstWithPredKind(t *testing.T, name string, kind bpred.Kind) (*core.Stats, Outcome) {
	t.Helper()
	w, err := workload.Build(name, workload.ScaleTest)
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	opts := DefaultOptions()
	opts.Pred.Kind = kind
	out, err := Run(KindSST, w.Program, opts)
	if err != nil {
		t.Fatalf("run %s kind=%v: %v", name, kind, err)
	}
	if out.SST == nil {
		t.Fatalf("run %s: no SST statistics", name)
	}
	return out.SST, out
}

// TestTageBeatsGshareOnDeferredBranches pins the B1 headline: on the
// loop-heavy workloads whose branch history exceeds a 14-bit gshare
// window but fits TAGE's longest geometric table, TAGE-lite must show a
// strictly lower deferred-branch mispredict rate — the paper's dominant
// speculation-failure mode — and strictly fewer RbBranch rollbacks.
func TestTageBeatsGshareOnDeferredBranches(t *testing.T) {
	for _, name := range []string{"brfield", "loopnest"} {
		gs, _ := sstWithPredKind(t, name, bpred.Gshare)
		tg, tout := sstWithPredKind(t, name, bpred.TAGE)
		if gs.DeferredBranches == 0 || tg.DeferredBranches == 0 {
			t.Fatalf("%s: expected deferred branches (gshare=%d tage=%d) — the workload no longer defers",
				name, gs.DeferredBranches, tg.DeferredBranches)
		}
		gr := float64(gs.DeferredBranchMispred) / float64(gs.DeferredBranches)
		tr := float64(tg.DeferredBranchMispred) / float64(tg.DeferredBranches)
		t.Logf("%s: gshare %d/%d (%.2f%%) rbBranch=%d | tage %d/%d (%.2f%%) rbBranch=%d ipc=%.3f",
			name, gs.DeferredBranchMispred, gs.DeferredBranches, 100*gr, gs.RollbacksBy[core.RbBranch],
			tg.DeferredBranchMispred, tg.DeferredBranches, 100*tr, tg.RollbacksBy[core.RbBranch], tout.IPC())
		if tr >= gr {
			t.Errorf("%s: tage deferred mispredict rate %.4f not strictly below gshare %.4f", name, tr, gr)
		}
		if tg.RollbacksBy[core.RbBranch] >= gs.RollbacksBy[core.RbBranch] {
			t.Errorf("%s: tage RbBranch rollbacks %d not strictly below gshare %d",
				name, tg.RollbacksBy[core.RbBranch], gs.RollbacksBy[core.RbBranch])
		}
	}
}
